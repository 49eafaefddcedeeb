import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from aslattice import build_poset, certificate_to_json, enumerate_ideals, generate_posets, genposets
from aslattice.uniqueness import UniquenessResult


def chain(n, prefix="c"):
    labels = [f"{prefix}{i}" for i in range(n)]
    return build_poset(labels, list(zip(labels, labels[1:])))


def antichain(n, prefix="a"):
    return build_poset([f"{prefix}{i}" for i in range(n)], [])


def sum_of_chains(*lengths):
    labels = []
    covers = []
    for ci, ln in enumerate(lengths):
        part = [f"c{ci}_{i}" for i in range(ln)]
        labels.extend(part)
        covers.extend(zip(part, part[1:]))
    return build_poset(labels, covers)


def ladder(k):
    """k levels of two elements, each covered by both elements of the next
    level: 2**k maximal chains on 2k points."""
    levels = [(f"a{i}", f"b{i}") for i in range(k)]
    covers = [(x, y) for lo, hi in zip(levels, levels[1:]) for x in lo for y in hi]
    return build_poset([x for lv in levels for x in lv], covers)


@pytest.fixture
def v_poset():
    """p < q > p': two incomparable elements under a common top."""
    return build_poset(["p", "p'", "q"], [("p", "q"), ("p'", "q")])


@pytest.fixture
def lam_poset():
    """q < p, q < p': one bottom under two incomparable tops."""
    return build_poset(["q", "p", "p'"], [("q", "p"), ("q", "p'")])


@pytest.fixture
def n_poset():
    """The four-element N shape: a < c > b < d."""
    return build_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])


def corpus(max_n):
    """All isomorphism classes with at most max_n elements."""
    for n in range(1, max_n + 1):
        yield from (cp.poset for cp in generate_posets(n))


def lattice_of(p):
    return enumerate_ideals(p)


def certificate_doc(cert):
    """The certificate document as a reader of the file sees it."""
    return json.loads("".join(certificate_to_json(cert)))


def _is_two_antichain(p):
    return p.n == 2 and not p.covers


def _flip_sum_of_chains(monkeypatch):
    flag = genposets.is_direct_sum_of_chains
    monkeypatch.setattr(
        genposets, "is_direct_sum_of_chains", lambda p: flag(p) != _is_two_antichain(p)
    )


def _not_unique(monkeypatch):
    decide = genposets.check_unique
    monkeypatch.setattr(
        genposets,
        "check_unique",
        lambda lat: UniquenessResult(unique=False) if _is_two_antichain(lat.poset) else decide(lat),
    )


def _reject_certificate(monkeypatch):
    validate = genposets.validate_certificate
    monkeypatch.setattr(
        genposets,
        "validate_certificate",
        lambda p, cert: (False, "tampered") if _is_two_antichain(p) else validate(p, cert),
    )


# One fault per failure branch of the corpus check, each confined to the
# 2-antichain (the first class with two points), with the detail it reports.
CORPUS_FAULTS = [
    pytest.param(
        _flip_sum_of_chains, "condition (ii) True but sum-of-chains False", id="sum-of-chains"
    ),
    pytest.param(_not_unique, "uniqueness verdict False but sum-of-chains True", id="verdict"),
    pytest.param(_reject_certificate, "certificate rejected: tampered", id="certificate"),
]
TWO_ANTICHAIN_DOC = {"elements": ["p0", "p1"], "covers": []}
