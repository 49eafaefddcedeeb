"""Isomorph-free exhaustive generation of small posets and corpus-level
verification of the uniqueness equivalence.

Generation extends each (n-1)-element class by one new maximal element v
whose strict down-set runs over the parent's ideals D, rejecting duplicates
through a canonical key: the minimal upper-triangular adjacency encoding
over all linear extensions.  Two isomorphism-safe rules skip most children
before their key is computed:

* Deletion rule.  Skip the child when some maximal element x of the parent
  with x not in D has a strict down-set larger than D.  Those x are the
  child's other maximal elements, so the child is kept exactly when v has
  a largest strict down-set among its maximal elements.  The rule is
  complete: every n-element class C has a maximal element x with a largest
  down-set; C - x is isomorphic to a class of the previous level, and that
  class extended by the image of x's down-set is C and passes the rule.
* Twin rule.  Parent elements i < j are twins when they have equal strict
  up- and down-sets; swapping them is an automorphism, so D and D with j
  replaced by i give isomorphic children.  Within each twin class only
  ideals that hold a lowest-index prefix are keyed.  The deletion rule is
  an isomorphism invariant of (child, v), so the prefix representative of
  any child that passes it passes it too, and both rules together stay
  complete.

Neither rule decides that two kept children are isomorphic, so the
per-level set of keys stays the only judge of isomorphism and the output
is the same set of classes, yielded in key order.  A level is held as its
keys alone: each class's poset is built once, from its key, where it is
used (as a parent, in key order, or as an output) and dropped after.  The
naive labeled generator used to validate this lives with the tests, as an
independent oracle.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import chain, groupby

from aslattice import _kernels
from aslattice._kernels import _BITS
from aslattice.errors import CapacityExceeded
from aslattice.ideals import enumerate_ideals
from aslattice.posets import Poset, build_poset, is_direct_sum_of_chains, poset_to_json
from aslattice.straightening import check_condition_ii, condition_ii_witnesses, cover_witness
from aslattice.uniqueness import UniquenessResult, check_unique, not_unique, validate_certificate

MAX_CANONICAL_N = 8
DEFAULT_CORPUS_MAX_N = 6
MAX_CORPUS_N = MAX_CANONICAL_N  # every size generation supports


@dataclass(frozen=True)
class CanonicalPoset:
    poset: Poset
    canonical_key: bytes


def _strict_masks(p: Poset) -> tuple[list[int], list[int]]:
    lt = [p.up[i] & ~(1 << i) for i in range(p.n)]
    pred = [p.down[i] & ~(1 << i) for i in range(p.n)]
    return lt, pred


def canonical_form(p: Poset) -> CanonicalPoset:
    """Canonical key of a poset; equal keys characterize isomorphism."""
    if p.n > MAX_CANONICAL_N:
        raise CapacityExceeded(f"canonical form limited to {MAX_CANONICAL_N} elements")
    key = _kernels.canonical_key(_strict_masks(p)[1])
    return CanonicalPoset(poset=p, canonical_key=key)


# one label tuple per size, shared by every generated poset of that size
_LABELS = tuple(tuple(f"p{i}" for i in range(n)) for n in range(MAX_CANONICAL_N + 1))


def _poset_from_key(key: bytes) -> Poset:
    """The canonically labeled poset of a key.  A key lists, for each j,
    the i < j below it: a closed order whose indices are already a linear
    extension, so the rows are read off, and the covers below j are the
    elements of ``key[j]`` below none of the others."""
    n = len(key)
    up = [1 << i for i in range(n)]
    covers = []
    for j, code in enumerate(key):
        bit = 1 << j
        above = 0
        for i in _BITS[code]:
            up[i] |= bit
            above |= key[i]
        for i in _BITS[code & ~above]:
            covers.append((i, j))
    covers.sort()
    return Poset(labels=_LABELS[n], up=tuple(up), covers=tuple(covers))


def _deletion_table(lt: list[int], pred: list[int]) -> list[int]:
    """``need[s]``: the parent's maximal elements whose strict down-set has
    more than ``s`` elements.  An ideal D passes the deletion rule exactly
    when it contains ``need[|D|]``."""
    need = [0] * (len(lt) + 1)
    for x, succ in enumerate(lt):
        if not succ:
            for s in range(pred[x].bit_count()):
                need[s] |= 1 << x
    return need


def _twin_steps(lt: list[int], pred: list[int]) -> list[tuple[int, int]]:
    """``(bit of i, bit of j)`` for each twin j and the twin i just before
    it; an ideal holds a lowest-index prefix of every twin class exactly
    when it contains i wherever it contains j."""
    last: dict[tuple[int, int], int] = {}
    steps = []
    for j, sig in enumerate(zip(lt, pred)):
        i = last.get(sig)
        if i is not None:
            steps.append((1 << i, 1 << j))
        last[sig] = j
    return steps


def generate_posets(n: int, *, min_n: int | None = None):
    """Yield every isomorphism class of n-element posets exactly once, as
    canonically labeled posets in key order.  With ``min_n``, the classes
    of every size from ``min_n`` to n come out of the same walk, size by
    size: each class of a smaller size is yielded once its children have
    been keyed, so the walk holds no level of posets."""
    if not 1 <= n <= MAX_CANONICAL_N:
        raise CapacityExceeded(f"generation supports 1..{MAX_CANONICAL_N} elements")
    first = n if min_n is None else min_n
    if not 1 <= first <= n:
        raise ValueError(f"min_n must lie in 1..{n}")
    import logging  # here, not at the top: it adds about 5 ms to importing the package

    log = logging.getLogger("aslattice")
    # levels keep keys only; parents are rebuilt in key order, so the calls
    # made do not depend on the hash seed
    level = iter([(b"\x00", build_poset(["p0"], []))])
    for size in range(1, n):
        keys: set[bytes] = set()
        considered = by_deletion = by_twins = 0
        for key, parent in level:
            lt, pred = _strict_masks(parent)
            need = _deletion_table(lt, pred)
            twins = _twin_steps(lt, pred)
            ideals = enumerate_ideals(parent).ideals
            considered += len(ideals)
            for down_set in ideals:
                if need[down_set.bit_count()] & ~down_set:
                    by_deletion += 1
                    continue
                if twins and any(down_set & j and not down_set & i for i, j in twins):
                    by_twins += 1
                    continue
                keys.add(_kernels.canonical_key(pred + [down_set]))
            if size >= first:
                yield CanonicalPoset(poset=parent, canonical_key=key)
        log.debug(
            "generate size %d: %d extensions, %d skipped by the deletion rule, "
            "%d by the twin rule, %d keyed, %d classes",
            size + 1, considered, by_deletion, by_twins,
            considered - by_deletion - by_twins, len(keys),
        )
        level = ((key, _poset_from_key(key)) for key in sorted(keys))
    for key, poset in level:
        yield CanonicalPoset(poset=poset, canonical_key=key)


@dataclass
class CorpusCounterexample:
    poset: Poset
    detail: str


@dataclass
class CorpusTally:
    n: int
    posets: int = 0
    sums_of_chains: int = 0
    condition_ii_true: int = 0
    unique_checked: int = 0
    certificates_validated: int = 0


@dataclass
class CorpusReport:
    max_n: int
    tallies: list[CorpusTally] = field(default_factory=list)
    counterexamples: list[CorpusCounterexample] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "max_n": self.max_n,
            "per_n": [asdict(t) for t in self.tallies],
            "counterexamples": [
                {**poset_to_json(c.poset), "detail": c.detail} for c in self.counterexamples
            ],
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _decide(p: Poset, soc: bool) -> tuple[bool, UniquenessResult | None, bool]:
    """Condition (ii) and the uniqueness verdict of one class, given its
    sum-of-chains flag, and whether a witness built from covers decided
    them; the verdict is None when condition (ii) disagrees with the flag.
    A sum of chains builds its lattice and runs ``check_condition_ii`` and
    ``check_unique``.  Any other class is decided by ``cover_witness``
    without a lattice.  That witness differs in general from the first in
    pair order, which ``check_unique`` reports; only the verdict is the
    same.  If no witness is built (no class with n <= 8 comes to this),
    the class builds its lattice and the ``relations_equal`` scans decide,
    so no verdict is presumed."""
    if soc:
        lat = enumerate_ideals(p)
        cii = check_condition_ii(lat).equal
        return cii, check_unique(lat) if cii else None, False
    witness = cover_witness(p)
    if witness is not None:
        return False, not_unique(witness), True
    witness = next(condition_ii_witnesses(enumerate_ideals(p)), None)
    if witness is None:
        return True, None, False
    return False, not_unique(witness), False


def _verify_one(p: Poset) -> tuple[bool, bool, str | None, bool, bool, bool]:
    """Per-poset corpus checks; returns (sum_of_chains, condition_ii,
    failure detail, unique_checked, certificate_validated, built_witness).

    A sum of chains's certificate comes from ``check_unique`` as built, so
    ``validate_certificate`` replays it with replay's checks alone, and
    builds only the steps from the first one that fails them, if any.  A
    built certificate is taken to be the one replay expects, which the
    tests pin for every sum of chains with at most 8 points (see
    ``validate_certificate``)."""
    soc = is_direct_sum_of_chains(p)
    cii, res, built = _decide(p, soc)
    if soc != cii:
        return soc, cii, f"condition (ii) {cii} but sum-of-chains {soc}", False, False, built
    if res.unique != soc:
        detail = f"uniqueness verdict {res.unique} but sum-of-chains {soc}"
        return soc, cii, detail, True, False, built
    if res.unique:
        ok, reason = validate_certificate(p, res.certificate)
        if not ok:
            return soc, cii, f"certificate rejected: {reason}", True, False, built
    return soc, cii, None, True, res.unique, built


def corpus_verify(
    max_n: int = DEFAULT_CORPUS_MAX_N,
    parallel: bool = False,
) -> CorpusReport:
    """Check the equivalence of the three characterizations over every
    isomorphism class up to ``max_n`` elements; counterexamples (there
    should be none) land in the report.  One DEBUG record on the
    ``aslattice`` logger says how the classes were decided and in which
    mode."""
    if not 1 <= max_n <= MAX_CORPUS_N:  # below 1 nothing would be checked
        raise CapacityExceeded(f"corpus verification supports 1..{MAX_CORPUS_N} elements")
    import logging  # here, not at the top: see generate_posets

    report = CorpusReport(max_n=max_n)
    built = 0
    start = time.perf_counter()
    for n, posets, results, mode in _verified_levels(max_n, parallel):
        tally = CorpusTally(n=n)
        for p, (soc, cii, detail, checked, validated, witnessed) in zip(posets, results):
            tally.posets += 1
            tally.sums_of_chains += soc
            tally.condition_ii_true += cii
            tally.unique_checked += checked
            tally.certificates_validated += validated
            built += witnessed
            if detail is not None:
                report.counterexamples.append(CorpusCounterexample(poset=p, detail=detail))
        report.tallies.append(tally)
    report.elapsed_s = time.perf_counter() - start
    classes = sum(t.posets for t in report.tallies)
    non_sums = classes - sum(t.sums_of_chains for t in report.tallies)
    logging.getLogger("aslattice").debug(
        "corpus max-n %d: %d classes, %d non-sums decided by a built witness, "
        "%d by the scan fallback, %d ideal lattices built to decide, mode %s",
        max_n, classes, built, non_sums - built, classes - built, mode,
    )
    return report


def _verified_levels(max_n: int, parallel: bool):
    """Yield ``(n, classes, results, mode)`` for n = 1..max_n, with each
    class's ``_verify_one`` result in class order and the mode the level
    ran in: ``serial``, ``parallel`` or ``serial after pool failure``.  The
    levels come from one generation walk.  With ``parallel`` one process
    pool serves the whole run, mapping each size in about sixteen chunks
    per worker (class costs vary widely).  If no pool can be opened or
    used, one WARNING is logged and the sizes left run serially."""
    walk = groupby(generate_posets(max_n, min_n=1), key=lambda cp: cp.poset.n)
    levels = ((n, [cp.poset for cp in level]) for n, level in walk)
    mode = "serial"
    pending = []  # the level a failed pool left unverified
    if parallel:
        import concurrent.futures
        import os

        workers = os.cpu_count() or 1
        try:
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                mode = "parallel"
                for n, posets in levels:
                    pending = [(n, posets)]
                    chunk = -(-len(posets) // (16 * workers))
                    results = list(pool.map(_verify_one, posets, chunksize=chunk))
                    pending = []
                    yield n, posets, results, mode
        except (OSError, NotImplementedError) as exc:
            import logging

            logging.getLogger("aslattice").warning(
                "corpus --parallel: no process pool (%s); verifying serially", exc
            )
            mode = "serial after pool failure"
    for n, posets in chain(pending, levels):
        yield n, posets, [_verify_one(p) for p in posets], mode
