"""The four benchmark workloads and their correctness gates.

Each workload is a class with ``setup(workdir, rng)``, which builds plain
inputs (labels, covers, files) and nothing the library caches, and
``run_pass(clock)``, which does one full pass of the workload through the
public API and returns ``(attempted, failures)``.  Every piece of library
work runs inside ``clock.measure(...)``; the checks of its output run
outside it, so the gate costs no measured time.  A pass builds every
``Poset`` and ``IdealLattice`` afresh, because both cache derived tables
(``down``, ``position``, ``incomparable_pairs``, ...) that a first-time
user would have to compute.

The workloads are exhaustive sets (every class, every sum of chains of one
size, every small lattice), so the seed (``rng``, seeded from ``--seed``)
only renames the elements of the posets a workload reads from labels and
covers; names of one length keep the work and the bytes written the same.
Items always run in the same order: in a seeded order the peak RSS of
certify moved between 266 and 290 MB, as the largest certificate lands on
a heap shaped by the items before it; in one order it moves by 0.1%.

The library is always reached through module attributes at call time
(``aslattice.x``, ``aslattice.cli.main``), so the tracer's wrappers are
seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from itertools import chain

import aslattice
import aslattice.cli

# OEIS A000112 and Brinkmann-McKay, "Posets on up to 16 points", Order 2002.
CLASSES = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045, 8: 16999}
# Direct sums of chains on n points are the partitions of n.
SUMS_OF_CHAINS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}

# Recorded at commit 4fef69b (pure backend).  Certificate size per sum of
# chains, keyed by its chain lengths: (steps, refutations).
CERT_COUNTS = {
    (1,): (0, 0), (2,): (0, 0), (1, 1): (1, 0), (3,): (0, 0), (2, 1): (3, 2),
    (1, 1, 1): (9, 6), (4,): (0, 0), (3, 1): (6, 8), (2, 2): (9, 14), (2, 1, 1): (24, 36),
    (1, 1, 1, 1): (55, 84), (5,): (0, 0), (4, 1): (10, 20), (3, 2): (18, 44),
    (3, 1, 1): (46, 108), (2, 2, 1): (63, 162), (2, 1, 1, 1): (138, 356),
    (1, 1, 1, 1, 1): (285, 750), (6,): (0, 0), (5, 1): (15, 40), (4, 2): (30, 100),
    (4, 1, 1): (75, 240), (3, 3): (36, 128), (3, 2, 1): (120, 440),
    (3, 1, 1, 1): (258, 944), (2, 2, 2): (162, 636), (2, 2, 1, 1): (342, 1340),
    (2, 1, 1, 1, 1): (690, 2736), (1, 1, 1, 1, 1, 1): (1351, 5460), (7,): (0, 0),
    (6, 1): (21, 70), (5, 2): (45, 190), (5, 1, 1): (111, 450), (4, 3): (60, 280),
    (4, 2, 1): (195, 930), (4, 1, 1, 1): (415, 1970), (3, 3, 1): (228, 1144),
    (3, 2, 2): (306, 1628), (3, 2, 1, 1): (636, 3368), (3, 1, 1, 1, 1): (1270, 6780),
    (2, 2, 2, 1): (837, 4694), (2, 2, 1, 1, 1): (1656, 9360),
    (2, 1, 1, 1, 1, 1): (3198, 18332), (1, 1, 1, 1, 1, 1, 1): (6069, 35406),
}
# Number of realizable compatible systems (degree 3) per class with at most
# 12 ideals, keyed by the hex canonical key of the class.
SEARCH_COUNTS = {
    '00': 1, '0000': 1, '0001': 1, '000000': 1, '000001': 1, '000003': 2, '000101': 2,
    '000103': 1, '00000001': 1, '00000003': 2, '00000007': 2, '00000101': 2, '00000102': 1,
    '00000103': 3, '00000105': 1, '00000107': 2, '00000303': 12, '00000307': 3,
    '00010101': 2, '00010103': 2, '00010107': 4, '00010303': 3, '00010307': 1,
    '0000000307': 8, '000000030b': 3, '000000030f': 4, '0000000707': 20, '000000070f': 3,
    '0000010107': 4, '000001010d': 4, '000001010f': 4, '0000010205': 1, '0000010207': 3,
    '000001020f': 2, '0000010303': 8, '0000010305': 3, '0000010307': 8, '000001030b': 4,
    '000001030f': 6, '0000010505': 3, '0000010507': 4, '000001050d': 1, '000001050f': 2,
    '0000010707': 18, '000001070f': 3, '0000030303': 20, '0000030307': 18, '000003030f': 32,
    '0000030707': 21, '000003070f': 4, '0001010107': 4, '000101010f': 4, '0001010303': 4,
    '0001010305': 2, '0001010307': 6, '000101030b': 2, '000101030f': 4, '0001010707': 32,
    '000101070f': 6, '0001030303': 3, '0001030307': 3, '000103030f': 6, '0001030707': 4,
    '000103070f': 1,
}


def partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples, in lexicographic order."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def chain_sum(lengths) -> tuple[list[str], list[list[str]]]:
    """Labels and covers of the direct sum of chains of the given lengths."""
    labels, covers = [], []
    for c, length in enumerate(lengths):
        names = [f"{chr(97 + c)}{i}" for i in range(length)]
        labels += names
        covers += [[lo, hi] for lo, hi in zip(names, names[1:])]
    return labels, covers


def plain(p, rng) -> tuple[list[str], list[list[str]]]:
    """Labels and covers of a poset, its elements renamed from ``rng``."""
    labels = names(rng, p.n)
    return labels, [[labels[i], labels[j]] for i, j in p.covers]


def names(rng, n: int) -> list[str]:
    """n distinct random three-letter names."""
    return ["".join(chr(97 + k // 26 ** d % 26) for d in range(3))
            for k in rng.sample(range(26 ** 3), n)]


class Corpus:
    """``corpus_verify(max_n)``: every class with at most ``max_n`` points.

    The pass is one measured call of the library's own verification loop.
    The gate reads its report: no counterexample, and per size the number
    of classes (A000112), of sums of chains, of classes satisfying
    condition (ii), of uniqueness verdicts and of accepted certificates.
    Every class is an item of ``attempted``; a wrong tally of one size
    counts every class of that size as failed.  There is no per-item time.
    """

    def __init__(self, max_n: int = 7):
        self.max_n = max_n
        self.classes = CLASSES
        self.sums_of_chains = SUMS_OF_CHAINS

    def setup(self, workdir, rng):
        pass

    def run_pass(self, clock):
        with clock.measure(item=False):
            report = aslattice.corpus_verify(max_n=self.max_n)
        counterexamples = {}
        for c in report.counterexamples:
            counterexamples.setdefault(c.poset.n, []).append(f"corpus {c.poset!r}: {c.detail}")
        attempted, failures = 0, []
        per_n = {t["n"]: t for t in report.to_json()["per_n"]}
        for n in range(1, self.max_n + 1):
            t = per_n.get(n, {})
            got = tuple(t.get(k) for k in ("posets", "unique_checked", "sums_of_chains",
                                            "condition_ii_true", "certificates_validated"))
            want = (self.classes[n],) * 2 + (self.sums_of_chains[n],) * 3
            attempted += self.classes[n]
            if got != want:
                failures += [f"corpus n={n}: (classes, verdicts, sums of chains, "
                             f"condition (ii), certificates) = {got}, expected {want}"
                             ] * self.classes[n]
            else:
                failures += counterexamples.get(n, [])
        return attempted, failures


class Certify:
    """``aslattice unique P --certificate C`` then ``aslattice validate-cert
    C P``, in process, on every direct sum of chains with ``n`` points.

    One item is the pair of commands.  The poset files are written during
    set-up; the certificate files are written by the command under test.
    """

    def __init__(self, n: int = 7):
        self.shapes = list(partitions(n))
        self.counts = CERT_COUNTS
        self.cert_bytes = 0

    def setup(self, workdir, rng):
        self.files = []
        for shape in self.shapes:
            p = aslattice.build_poset(*chain_sum(shape))
            labels, covers = plain(p, rng)
            name = "-".join(map(str, shape))
            poset_path = os.path.join(workdir, f"poset-{name}.json")
            with open(poset_path, "w") as fh:
                json.dump({"elements": labels, "covers": covers}, fh)
            self.files.append((shape, poset_path, os.path.join(workdir, f"cert-{name}.json")))

    def run_pass(self, clock):
        failures = []
        self.cert_bytes = 0
        for shape, poset_path, cert_path in self.files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(cert_path)
            unique_out, validate_out = io.StringIO(), io.StringIO()
            with clock.measure():
                with contextlib.redirect_stdout(unique_out):
                    unique_rc = aslattice.cli.main(
                        ["--json", "--no-timestamp", "unique", poset_path,
                         "--certificate", cert_path])
                with contextlib.redirect_stdout(validate_out):
                    validate_rc = aslattice.cli.main(
                        ["--json", "--no-timestamp", "validate-cert", cert_path, poset_path])
            problem = self._check(shape, cert_path, unique_rc, unique_out.getvalue(),
                                  validate_rc, validate_out.getvalue())
            if problem:
                failures.append(f"certify {shape}: {problem}")
        return len(self.files), failures

    def _check(self, shape, cert_path, unique_rc, unique_out, validate_rc, validate_out):
        try:
            verdict = json.loads(unique_out)
            valid = json.loads(validate_out)
            with open(cert_path, "rb") as fh:
                data = fh.read()
            cert = json.loads(data)
            steps = len(cert["steps"])
            refutations = sum(len(s["refutations"]) for s in cert["steps"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        self.cert_bytes += len(data)
        got = (unique_rc, verdict.get("verdict"), verdict.get("certificate_steps"),
               validate_rc, valid.get("valid"), steps, refutations)
        want = (0, "UNIQUE", self.counts[shape][0], 0, True) + self.counts[shape]
        if got != want:
            return ("(unique exit, verdict, steps, validate exit, valid, file steps, "
                    f"refutations) = {got}, expected {want}")
        return None


class Search:
    """``search_compatible_asls`` at the default degree on every class with
    at most ``max_n`` points whose lattice has at most ``max_ideals``
    ideals.  One item is one lattice: build the poset from its labels and
    covers, enumerate its ideals and search, as ``aslattice search`` does."""

    def __init__(self, max_n: int = 5, max_ideals: int = 12):
        self.max_n = max_n
        self.max_ideals = max_ideals
        self.counts = SEARCH_COUNTS

    def setup(self, workdir, rng):
        self.inputs = []
        for cp in chain.from_iterable(aslattice.generate_posets(n)
                                      for n in range(1, self.max_n + 1)):
            if len(aslattice.enumerate_ideals(cp.poset)) <= self.max_ideals:
                self.inputs.append((cp.canonical_key.hex(),
                                    aslattice.is_direct_sum_of_chains(cp.poset))
                                   + plain(cp.poset, rng))

    def run_pass(self, clock):
        failures = []
        for key, soc, labels, covers in self.inputs:
            with clock.measure():
                p = aslattice.build_poset(labels, covers)
                systems = aslattice.search_compatible_asls(aslattice.enumerate_ideals(p))
            want = self.counts.get(key)
            if len(systems) != want or (len(systems) == 1) != soc:
                failures.append(f"search {p!r}: {len(systems)} systems, expected {want} "
                                f"(sum of chains {soc})")
        return len(self.inputs), failures


class Generate:
    """Consume ``generate_posets(n)`` fully, as one item of ``attempted``.
    There is no per-item time: the classes come out only after the last
    level is built."""

    def __init__(self, n: int = 8):
        self.n = n
        self.classes = CLASSES

    def setup(self, workdir, rng):
        pass

    def run_pass(self, clock):
        with clock.measure(item=False):
            keys = [cp.canonical_key for cp in aslattice.generate_posets(self.n)]
        if len(keys) != self.classes[self.n] or keys != sorted(set(keys)):
            return 1, [f"generate {self.n}: {len(keys)} keys (distinct and sorted: "
                       f"{keys == sorted(set(keys))}), expected {self.classes[self.n]}"]
        return 1, []


WORKLOADS = {"corpus": Corpus, "certify": Certify, "search": Search, "generate": Generate}
