import copy
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aslattice
import oracles
from aslattice import (
    BudgetExceeded,
    CapacityExceeded,
    IdealLattice,
    InvalidCertificate,
    PreconditionViolated,
    RealizationKind,
    UniquenessCertificate,
    build_poset,
    certificate_from_json,
    certificate_size,
    certificate_to_json,
    check_unique,
    enumerate_ideals,
    generate_posets,
    is_direct_sum_of_chains,
    is_realizable,
    search_compatible_asls,
    straightening_relations,
    uniqueness_certificate,
    validate_certificate,
)
from aslattice import straightening, uniqueness
from aslattice.straightening import PairMap, multichains
from aslattice.uniqueness import (
    MAX_CERTIFICATE_REFUTATIONS,
    _candidate_rhs,
    _collides,
    _collision_root,
    _degree_two_filter,
    _nonnegative,
    _null_push,
    induction_parameter,
)
from conftest import antichain, certificate_doc, chain, corpus, sum_of_chains
from oracles import _Echelon


def canonical_pm(lat):
    return straightening_relations(lat, RealizationKind.ORDER)


def _rows(lat, pm):
    pos = lat.position
    return [(pos[a], pos[b], pos[lo], pos[hi]) for (a, b), (lo, hi) in pm.entries()]


class TestRealizability:
    def test_canonical_kinds_always_realizable(self):
        for p in corpus(4):
            lat = enumerate_ideals(p)
            for kind in RealizationKind:
                pm = straightening_relations(lat, kind)
                real = is_realizable(lat, pm)
                assert real is not None
                assert real.satisfies(pm)
                exps = list(real.exponents.values())
                assert len(set(exps)) == len(lat)
                assert all(e[-1] == 1 for e in exps)

    def test_v_delta_table_realizable(self, v_poset):
        p = v_poset
        lat = enumerate_ideals(p)
        a, b = p.mask_of(["p"]), p.mask_of(["p'"])
        pm = PairMap(lattice=lat, rhs={(a, b): (0, p.full_mask)})
        assert is_realizable(lat, pm) is not None

    def test_non_canonical_on_sum_of_chains_fails(self):
        # chain(2)+point: widen one relation beyond the canonical join
        p = sum_of_chains(2, 1)
        lat = enumerate_ideals(p)
        a = p.mask_of(["c0_0"])
        b = p.mask_of(["c1_0"])
        pm = canonical_pm(lat)
        rhs = dict(pm.rhs)
        key = pm.key(a, b)
        rhs[key] = (0, p.full_mask)  # not the canonical union {c0_0, c1_0}
        assert rhs[key] != pm.rhs[key]
        bad = PairMap(lattice=lat, rhs=rhs)
        assert is_realizable(lat, bad) is None

    def test_every_single_deviation_fails_on_sums_of_chains(self):
        # uniqueness in the strongest per-entry form: perturbing any one
        # relation of the canonical system kills realizability
        from aslattice.uniqueness import _candidate_rhs

        for p in corpus(4):
            if not is_direct_sum_of_chains(p):
                continue
            lat = enumerate_ideals(p)
            pm = canonical_pm(lat)
            for pair in lat.incomparable_pairs:
                for cand in _candidate_rhs(lat, *pair):
                    if cand == pm.rhs[pair]:
                        continue
                    rhs = dict(pm.rhs)
                    rhs[pair] = cand
                    assert is_realizable(lat, PairMap(lattice=lat, rhs=rhs)) is None, (
                        p,
                        pair,
                        cand,
                    )

    def test_matches_residual_oracle_on_every_system(self):
        # every compatible system of each lattice with at most 3,000 of them
        # (32 lattices, n <= 5) is realizable iff the integer search keeps it
        checked = 0
        for p in corpus(5):
            lat = enumerate_ideals(p)
            pairs = lat.incomparable_pairs
            cands = [_candidate_rhs(lat, a, b) for a, b in pairs]
            if math.prod(map(len, cands)) > 3000:
                continue
            for degree in (2, 3):
                kept = oracles.search_by_residuals(lat, degree)
                want = {tuple(sorted(rhs.items())) for rhs in kept}
                for choice in itertools.product(*cands):
                    rhs = dict(zip(pairs, choice))
                    got = is_realizable(lat, PairMap(lattice=lat, rhs=rhs), degree)
                    assert (got is not None) == (tuple(sorted(rhs.items())) in want), (p, degree)
                    checked += 1
        assert checked == 17290

    def test_exponents_match_echelon_oracle(self):
        # the integer null-space push gives the echelon's kernel vectors and
        # exponents exactly: the canonical systems of every class with n <= 5
        # and every system search keeps on lattices with n <= 4, <= 12 ideals
        systems = []
        for p in corpus(5):
            lat = enumerate_ideals(p)
            systems += [(lat, straightening_relations(lat, kind)) for kind in RealizationKind]
            if p.n <= 4 and len(lat) <= 12:
                systems += [(lat, pm) for pm in search_compatible_asls(lat)]
        assert len(systems) == 312

        def kernel_of(lat, pm):
            n = len(lat)
            basis = [[int(i == j) for j in range(n)] for i in range(n)]
            w = [0] * n
            for cols in _rows(lat, pm):
                pushed = _null_push(basis, w, cols)
                if pushed is not None:
                    basis, w = pushed
            return [_nonnegative(k) for k in basis]

        rng = random.Random(314159)
        for lat, pm in systems:
            kernel, exps = oracles.reference_exponents(lat, pm)
            assert kernel_of(lat, pm) == kernel
            assert is_realizable(lat, pm).exponents == exps
            # a random compatible system on the same lattice, mostly not
            # realizable, reaches eliminations whose pivot value is not 1
            rhs = {pair: rng.choice(_candidate_rhs(lat, *pair)) for pair in pm.rhs}
            other = PairMap(lattice=lat, rhs=rhs)
            kernel, _ = oracles.reference_exponents(lat, other)
            assert kernel_of(lat, other) == kernel

    def test_multichains_listed_once_per_degree(self, monkeypatch):
        # the soundness gate reuses the root's chain lists: degree 3 and
        # degree 2 once each, degree 1 from the ideals themselves
        calls = []
        listed = uniqueness.multichains

        def counting(lat, length):
            calls.append(length)
            return listed(lat, length)

        monkeypatch.setattr(uniqueness, "multichains", counting)
        lat = enumerate_ideals(sum_of_chains(2, 2))
        assert is_realizable(lat, canonical_pm(lat), 3) is not None
        assert len(calls) <= 2
        assert calls[0] == 3


SOUNDNESS_GATE_SCRIPT = """
import sys
from aslattice import RealizationKind, build_poset, enumerate_ideals, is_realizable
from aslattice import straightening_relations, uniqueness
from aslattice.straightening import PairMap

if not sys.flags.optimize:
    raise SystemExit("run with python -O")
p = build_poset(["a", "b", "c"], [("a", "b")])
lat = enumerate_ideals(p)

# gate 1: the realization must satisfy the relations
pm = straightening_relations(lat, RealizationKind.ORDER)
satisfies = uniqueness.MonomialRealization.satisfies
uniqueness.MonomialRealization.satisfies = lambda self, pm: False
try:
    is_realizable(lat, pm)
except AssertionError as exc:
    print("gate1:", exc)
uniqueness.MonomialRealization.satisfies = satisfies

# gate 2: a system with a collision must not slip past a broken detector
a, b = p.mask_of(["a"]), p.mask_of(["c"])
rhs = dict(pm.rhs)
rhs[pm.key(a, b)] = (0, p.full_mask)
uniqueness._collides = lambda chains, gather, basis, w: False
try:
    is_realizable(lat, PairMap(lattice=lat, rhs=rhs))
except AssertionError as exc:
    print("gate2:", exc)
"""


def test_soundness_gates_survive_optimize():
    src = Path(aslattice.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SOUNDNESS_GATE_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "gate1: kernel basis violates the relation constraints",
        "gate2: kernel signature check missed a collision",
    ]


class TestSearch:
    def test_v_exactly_two(self, v_poset):
        p = v_poset
        lat = enumerate_ideals(p)
        systems = search_compatible_asls(lat)
        assert len(systems) == 2
        a, b = p.mask_of(["p"]), p.mask_of(["p'"])
        tables = {s.rhs[(a, b)] for s in systems}
        assert tables == {(0, p.mask_of(["p", "p'"])), (0, p.full_mask)}

    def test_lambda_exactly_two(self, lam_poset):
        p = lam_poset
        lat = enumerate_ideals(p)
        systems = search_compatible_asls(lat)
        assert len(systems) == 2
        a, b = p.mask_of(["q", "p"]), p.mask_of(["q", "p'"])
        tables = {s.rhs[(a, b)] for s in systems}
        assert tables == {(p.mask_of(["q"]), p.full_mask), (0, p.full_mask)}

    def test_antichain2_exactly_one(self):
        lat = enumerate_ideals(antichain(2))
        assert len(search_compatible_asls(lat)) == 1

    def test_chain_trivial(self):
        lat = enumerate_ideals(chain(3))
        systems = search_compatible_asls(lat)
        assert len(systems) == 1
        assert systems[0].rhs == {}

    def test_count_one_iff_sum_of_chains(self):
        # up to n=5 for every lattice small enough to search
        for p in corpus(5):
            lat = enumerate_ideals(p)
            if len(lat) > 12:
                continue
            systems = search_compatible_asls(lat)
            if is_direct_sum_of_chains(p):
                assert len(systems) == 1
            else:
                assert len(systems) >= 2

    def test_canonical_tables_among_results(self):
        for p in corpus(4):
            lat = enumerate_ideals(p)
            if len(lat) > 12:
                continue
            systems = search_compatible_asls(lat)
            for kind in RealizationKind:
                assert straightening_relations(lat, kind) in systems

    def test_budget(self, monkeypatch):
        # the 3-antichain's search makes 37 tests (the V's makes none)
        lat = enumerate_ideals(antichain(3))
        monkeypatch.setattr(uniqueness, "MAX_SEARCH_TESTS", 1)
        with pytest.raises(BudgetExceeded):
            search_compatible_asls(lat)

    def test_matches_residual_oracle(self, v_poset, lam_poset, n_poset):
        # same systems in the same order as the exact integer search
        posets = [v_poset, lam_poset, *corpus(4)]
        for p in posets:
            lat = enumerate_ideals(p)
            want = oracles.search_by_residuals(lat)
            assert [s.rhs for s in search_compatible_asls(lat)] == want, p
        for p in [v_poset, lam_poset, n_poset, antichain(3), sum_of_chains(2, 1)]:
            lat = enumerate_ideals(p)
            for degree in (2, 4):
                want = oracles.search_by_residuals(lat, degree)
                got = search_compatible_asls(lat, max_degree=degree)
                assert [s.rhs for s in got] == want, (p, degree)

    @pytest.mark.parametrize(
        "elements, covers, tests",
        [
            (["p", "p'", "q"], [("p", "q"), ("p'", "q")], 0),
            (["q", "p", "p'"], [("q", "p"), ("q", "p'")], 0),
            # the two 5-element lattices with 11 ideals and 20 systems
            (["p0", "p1", "p2", "p3", "p4"],
             [("p0", "p3"), ("p0", "p4"), ("p1", "p3"), ("p1", "p4"), ("p2", "p3"), ("p2", "p4")],
             742),
            (["p0", "p1", "p2", "p3", "p4"],
             [("p0", "p2"), ("p0", "p3"), ("p0", "p4"), ("p1", "p2"), ("p1", "p3"), ("p1", "p4")],
             906),
        ],
    )
    def test_node_count_pinned(self, monkeypatch, elements, covers, tests):
        # push-and-collide tests of the forward-checking search, in the
        # degree-2 filters and at assignment (the V and the Λ have one pair,
        # whose root list and first assignment are not tested, so their
        # searches make no test)
        lat = enumerate_ideals(build_poset(elements, covers))
        if tests:
            monkeypatch.setattr(uniqueness, "MAX_SEARCH_TESTS", tests - 1)
            with pytest.raises(BudgetExceeded):
                search_compatible_asls(lat)
        monkeypatch.setattr(uniqueness, "MAX_SEARCH_TESTS", tests)
        search_compatible_asls(lat)

    def test_k33_finishes(self):
        # three minima under three maxima: 28 systems within the default
        # budget, each realizable, the three canonical tables among them
        p = build_poset(["a", "b", "c", "x", "y", "z"], [(m, t) for m in "abc" for t in "xyz"])
        lat = enumerate_ideals(p)
        systems = search_compatible_asls(lat)
        assert len(systems) == 28
        assert all(is_realizable(lat, pm) is not None for pm in systems)
        for kind in RealizationKind:
            assert straightening_relations(lat, kind) in systems
        assert search_compatible_asls(lat, max_degree=4) == systems

    def test_workload_lattices_pinned(self, caplog):
        # the 64 classes with n <= 5 whose lattices have at most 12 ideals,
        # in corpus order, searched at degree 3: the same systems in the same
        # order, from the same number of tests, as before the filter shared
        # its chain sums.  Serialization: one line per lattice, json.dumps of
        # its list of systems, each system the sorted list of its relations
        # as [a, b, lo, hi] ideal masks; lines joined by "\n", UTF-8
        lines = []
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            for p in corpus(5):
                lat = enumerate_ideals(p)
                if len(lat) > 12:
                    continue
                systems = search_compatible_asls(lat, max_degree=3)
                lines.append(json.dumps([
                    sorted([a, b, lo, hi] for (a, b), (lo, hi) in s.rhs.items())
                    for s in systems
                ]))
        assert len(lines) == 64
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "06c5f3b3392442e88473f85934d79ed519e455c20832d58ec93ae0a7d1ba855f"
        )
        records = [r for r in caplog.records if r.msg.startswith("search:")]
        assert len(records) == 64
        assert sum(r.args[2] for r in records) == 13_244

    def test_k33_logs_one_record(self, caplog):
        # one DEBUG record per search: pairs, nodes, tests, refusals at
        # assignment and systems
        p = build_poset(["a", "b", "c", "x", "y", "z"], [(m, t) for m in "abc" for t in "xyz"])
        lat = enumerate_ideals(p)
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            systems = search_compatible_asls(lat, max_degree=3)
        records = [r for r in caplog.records if r.name == "aslattice"]
        assert [r.levelno for r in records] == [logging.DEBUG]
        assert records[0].args == (18, 409, 27_586, 0, 28)
        assert len(systems) == 28 and len(lat.induction_pairs) == 18

    @pytest.mark.parametrize(
        "covers, refusals",
        [
            # a 3-antichain between a bottom and a top: 10 ideals
            ([("p0", "p1"), ("p0", "p2"), ("p0", "p3"), ("p1", "p4"), ("p2", "p4"),
              ("p3", "p4")], 24),
            # p0 < p1 < p3 < p4 and p0 < p2 < p4: 8 ideals
            ([("p0", "p1"), ("p0", "p2"), ("p1", "p3"), ("p2", "p4"), ("p3", "p4")], 8),
        ],
    )
    def test_refused_at_assignment(self, monkeypatch, covers, refusals):
        # the live lists are filtered at degree 2 only, so a branching
        # candidate can still merge two degree-3 chains: it is refused when
        # assigned, and the systems stay the oracle's at degrees 3 and 4
        lat = enumerate_ideals(build_poset(["p0", "p1", "p2", "p3", "p4"], covers))
        degrees, verdicts = set(), []

        def counting(chains, gathers, basis, w):
            merges = _collides(chains, gathers, basis, w)
            if len(chains[0][0]) > 2:  # not a degree-2 confirmation
                degrees.add(tuple(len(cs[0]) for cs in chains))
                verdicts.append(merges)
            return merges

        monkeypatch.setattr(uniqueness, "_collides", counting)
        for degree in (3, 4):
            degrees.clear()
            verdicts.clear()
            got = search_compatible_asls(lat, max_degree=degree)
            assert [s.rhs for s in got] == oracles.search_by_residuals(lat, degree)
            assert degrees == {tuple(range(3, degree + 1))}
            assert sum(verdicts) == refusals, degree

    def test_degree_two_filter_matches_pushed_test(self, lam_poset):
        # the node's filter, which builds no child basis or vector, agrees
        # with _collides at degree 2 on the child that _null_push builds, for
        # every candidate row after random subsets of rows
        rng = random.Random(314159)
        for p in [sum_of_chains(2, 1), lam_poset, antichain(3), sum_of_chains(2, 2),
                  build_poset(["p0", "p1", "p2", "p3", "p4"],
                              [("p0", "p1"), ("p0", "p2"), ("p0", "p3"), ("p1", "p4"),
                               ("p2", "p4"), ("p3", "p4")])]:
            lat = enumerate_ideals(p)
            pos = lat.position
            rows = [
                (pos[a], pos[b], pos[lo], pos[hi])
                for a, b in lat.incomparable_pairs
                for lo, hi in _candidate_rhs(lat, a, b)
            ]
            chains, gathers, root_basis, hash_w = _collision_root(lat, 3)
            verdicts = set()
            for trial in range(20):
                # a zero hash vector repeats every hash: only the confirmation decides
                basis, w = root_basis, hash_w if trial % 2 else [0] * len(lat)
                for cols in rng.sample(rows, rng.randint(0, min(len(rows), len(lat) - 2))):
                    pushed = _null_push(basis, w, cols)
                    if pushed is not None:
                        basis, w = pushed
                merges = _degree_two_filter(gathers[0], basis, w)
                for cols in rows:
                    pushed = _null_push(basis, w, cols)
                    want = pushed is not None and _collides(chains[:1], gathers[:1], *pushed)
                    assert merges(cols) == want, p
                    verdicts.add(want)
            assert verdicts == {False, True}, p

    def test_degree_two_filter_tries_every_pair_of_a_bucket(self):
        # a zero hash vector puts every degree-2 chain in one bucket headed
        # by the chain (bottom, bottom); on the 2-chain plus a point, after
        # each first row and for every candidate row, the filter agrees with
        # _collides on the pushed child, and some merging children leave the
        # head unmerged, so a chain compared only with the head would pass
        lat = enumerate_ideals(sum_of_chains(2, 1))
        pos = lat.position
        rows = [
            (pos[a], pos[b], pos[lo], pos[hi])
            for a, b in lat.incomparable_pairs
            for lo, hi in _candidate_rhs(lat, a, b)
        ]
        chains, gathers, root, _ = _collision_root(lat, 3)
        head, zero = chains[0][0], [0] * len(lat)
        assert head == (0, 0)
        headless = 0
        for first in rows:
            basis, w = _null_push(root, zero, first)
            merges = _degree_two_filter(gathers[0], basis, w)
            for cols in rows:
                pushed = _null_push(basis, w, cols)
                want = pushed is not None and _collides(chains[:1], gathers[:1], *pushed)
                assert merges(cols) == want, (first, cols)
                if want:
                    sigs = [tuple(sum(k[i] for i in ch) for k in pushed[0]) for ch in chains[0]]
                    headless += sigs.count(sigs[0]) == 1
        assert headless
        # on the 3-antichain a0, a1, a2, ideals named by their indices: after
        # 1·2 = ∅·12 and 0·2 = ∅·012, the row of 01·12 = ∅·012 merges one
        # pair alone, ∅·0 and 1·01, and it moves the hash of the head and of
        # both chains of that pair (S_k0 is nonzero on all three)
        lat = enumerate_ideals(antichain(3))
        ideal = {x: lat.position[lat.poset.mask_of(["a" + i for i in x])]
                 for x in ["", "0", "1", "2", "01", "12", "012"]}
        chains, gathers, basis, _ = _collision_root(lat, 3)
        w = [0] * len(lat)
        for a, b, lo, hi in [("1", "2", "", "12"), ("0", "2", "", "012")]:
            basis, w = _null_push(basis, w, (ideal[a], ideal[b], ideal[lo], ideal[hi]))
        cols = (ideal["01"], ideal["12"], ideal[""], ideal["012"])
        k0 = next(k for k in basis if k[cols[0]] + k[cols[1]] - k[cols[2]] - k[cols[3]])
        child = _null_push(basis, w, cols)[0]
        sigs = {}
        for ch in chains[0]:
            sigs.setdefault(tuple(sum(k[i] for i in ch) for k in child), []).append(ch)
        pair = [(ideal[""], ideal["0"]), (ideal["1"], ideal["01"])]
        assert [chs for chs in sigs.values() if len(chs) > 1] == [pair]
        assert all(sum(k0[i] for i in ch) for ch in [chains[0][0], *pair])
        assert _degree_two_filter(gathers[0], basis, w)(cols)

    def test_degree_two_filter_with_d0_two(self):
        # on the 2x2 grid of ideals (i, j), i points of the first chain and j
        # of the second, after four relations the row of (2,0)(1,1) =
        # (1,0)(2,1) has d0 = 2 and merges one pair alone, (0,0)(2,2) and
        # (1,1)(1,1): one chain whose hash it moves and one whose hash it
        # only scales by d0
        p = sum_of_chains(2, 2)
        lat = enumerate_ideals(p)
        c0, c1 = p.labels[:2], p.labels[2:]
        ideal = {(i, j): lat.position[p.mask_of([*c0[:i], *c1[:j]])]
                 for i in range(3) for j in range(3)}
        chains, gathers, basis, w = _collision_root(lat, 3)
        for row in [((1, 1), (0, 2), (0, 1), (1, 2)), ((1, 0), (0, 1), (0, 0), (2, 2)),
                    ((2, 0), (0, 2), (0, 0), (2, 2)), ((2, 1), (1, 2), (0, 0), (2, 2))]:
            basis, w = _null_push(basis, w, tuple(ideal[x] for x in row))
        cols = tuple(ideal[x] for x in [(2, 0), (1, 1), (1, 0), (2, 1)])
        k0 = next(k for k in basis if k[cols[0]] + k[cols[1]] - k[cols[2]] - k[cols[3]])
        assert abs(k0[cols[0]] + k0[cols[1]] - k0[cols[2]] - k0[cols[3]]) == 2
        child = _null_push(basis, w, cols)[0]
        sigs = {}
        for ch in chains[0]:
            sigs.setdefault(tuple(sum(k[i] for i in ch) for k in child), []).append(ch)
        pair = [(ideal[0, 0], ideal[2, 2]), (ideal[1, 1], ideal[1, 1])]
        assert [chs for chs in sigs.values() if len(chs) > 1] == [pair]
        assert [bool(sum(k0[i] for i in ch)) for ch in pair] == [False, True]
        assert _degree_two_filter(gathers[0], basis, w)(cols)

    def test_stack_depth_independent_of_pairs(self):
        # a 2-chain plus three points: 138 pairs, one system, found within
        # 80 frames of the caller, where one frame per pair would not fit
        lat = enumerate_ideals(sum_of_chains(2, 1, 1, 1))
        assert len(lat.incomparable_pairs) == 138
        limit = sys.getrecursionlimit()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        sys.setrecursionlimit(depth + 80)
        try:
            systems = search_compatible_asls(lat)
        finally:
            sys.setrecursionlimit(limit)
        assert systems == [straightening_relations(lat, RealizationKind.ORDER)]

    def test_root_chain_lists_are_multichains(self):
        # the root's one walk lists every degree as multichains lists it
        for p in corpus(4):
            lat = enumerate_ideals(p)
            pos = lat.position
            for d in range(2, 6):
                want = [[tuple(pos[m] for m in ch) for ch in multichains(lat, e)]
                        for e in range(2, d + 1)]
                assert _collision_root(lat, d)[0] == want, (p.labels, d)

    def test_degrees_listed_in_one_walk(self, monkeypatch):
        # the empty poset at degree 1500: one chain per degree, 1,125,749
        # entries; one bound check for the root, one multichains call, and
        # with it one check, for the top degree
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)

            return counted

        check = counting("check", straightening.check_multichain_entries)
        monkeypatch.setattr(straightening, "check_multichain_entries", check)
        monkeypatch.setattr(uniqueness, "check_multichain_entries", check)
        monkeypatch.setattr(uniqueness, "multichains", counting("list", multichains))
        lat = enumerate_ideals(build_poset([], []))
        assert search_compatible_asls(lat, max_degree=1500) == [
            straightening_relations(lat, RealizationKind.ORDER)
        ]
        assert sorted(calls) == ["check", "check", "list"]

    def test_containing_table_built_once(self, monkeypatch):
        # one lattice serves a search, an is_realizable call and an axiom
        # check, each at degree 3: its ⊆-table is built the first time and
        # read from then on
        built = []
        build = IdealLattice.__dict__["containing"].func

        def counted(lat):
            built.append(lat)
            return build(lat)

        table = functools.cached_property(counted)
        table.__set_name__(IdealLattice, "containing")
        monkeypatch.setattr(IdealLattice, "containing", table)
        lat = enumerate_ideals(sum_of_chains(2, 1))
        pm = straightening_relations(lat, RealizationKind.ORDER)
        assert search_compatible_asls(lat) == [pm]
        assert is_realizable(lat, pm) is not None
        straightening.verify_asl_axioms(lat, RealizationKind.ORDER, max_degree=3)
        assert built == [lat]

    def test_null_space_membership_matches_residual(self, lam_poset):
        # row-space membership through the integer null space agrees with the
        # exact integer echelon on random subsets of candidate rows
        rng = random.Random(271828)
        for p in [sum_of_chains(2, 1), lam_poset, antichain(3), sum_of_chains(2, 2)]:
            lat = enumerate_ideals(p)
            n, pos = len(lat), lat.position
            rows = [
                (pos[a], pos[b], pos[lo], pos[hi])
                for a, b in lat.incomparable_pairs
                for lo, hi in _candidate_rhs(lat, a, b)
            ]
            chains = [
                [sum(1 for m in ch if pos[m] == j) for j in range(n)]
                for ch in multichains(lat, 3)
            ]
            for _ in range(25):
                ech = _Echelon(n)
                basis = [[int(i == j) for j in range(n)] for i in range(n)]
                w = [0] * n
                pushed = []
                for cols in rng.sample(rows, rng.randint(1, min(len(rows), n))):
                    vec = [0] * n
                    for c, s in zip(cols, (1, 1, -1, -1)):
                        vec[c] += s
                    rank = len(ech.rows)
                    ech.push(vec)
                    nxt = _null_push(basis, w, cols)
                    assert (nxt is None) == (len(ech.rows) == rank)
                    if nxt is not None:
                        basis, w = nxt
                    pushed.append(vec)
                coefs = [rng.randint(-3, 3) for _ in pushed]
                combo = [sum(c * r[j] for c, r in zip(coefs, pushed)) for j in range(n)]
                probes = [combo] + [
                    [x - y for x, y in zip(*rng.sample(chains, 2))] for _ in range(20)
                ]
                for v in probes:
                    in_space = not any(ech.residual(v))
                    orthogonal = all(sum(x * y for x, y in zip(v, k)) == 0 for k in basis)
                    assert orthogonal == in_space
                assert not any(ech.residual(combo))

    def test_ascending_degrees_match_top_degree(self, lam_poset):
        # a merge at any degree 2..d is found exactly when the degree-d
        # chains alone merge, on random subsets of candidate rows
        rng = random.Random(161803)
        for p in [sum_of_chains(2, 1), lam_poset, antichain(3), sum_of_chains(2, 2)]:
            lat = enumerate_ideals(p)
            pos = lat.position
            rows = [
                (pos[a], pos[b], pos[lo], pos[hi])
                for a, b in lat.incomparable_pairs
                for lo, hi in _candidate_rhs(lat, a, b)
            ]
            for d in (2, 3, 4):
                top = [[pos[m] for m in ch] for ch in multichains(lat, d)]
                chains, gathers, basis, w = _collision_root(lat, d)
                # a zero hash vector makes every hash equal: only the exact
                # confirmation keeps the root, with no relation, unpruned
                assert not _collides(chains, gathers, basis, [0] * len(lat))
                root = (basis, w)
                verdicts = set()
                for _ in range(30):
                    basis, w = root
                    for cols in rng.sample(rows, rng.randint(1, len(rows))):
                        pushed = _null_push(basis, w, cols)
                        if pushed is not None:
                            basis, w = pushed
                    sigs = {tuple(sum(k[i] for i in ch) for k in basis) for ch in top}
                    merges = len(sigs) < len(top)
                    assert _collides(chains, gathers, basis, w) == merges, (p, d)
                    verdicts.add(merges)
                assert verdicts == {False, True}, (p, d)
        # on the 2x2 grid of ideals pa ⊂ pb, qa ⊂ qb these three rows merge
        # no two degree-2 chains, but they do merge degree-3 chains
        p = sum_of_chains(2, 2)
        lat = enumerate_ideals(p)
        pa, pb, qa, qb = ([x] for x in p.labels)
        rows = [(pa, qa, pa + pb + qa), (pa, qa + qb, pa + qa + qb),
                (pa + pb + qa, pa + qa + qb, pa + pb + qa + qb)]
        chains, gathers, basis, w = _collision_root(lat, 3)
        for a, b, hi in rows:
            cols = tuple(lat.position[p.mask_of(x)] for x in (a, b, [], hi))
            basis, w = _null_push(basis, w, cols)
        assert not _collides(chains[:1], gathers[:1], basis, w)
        assert _collides(chains, gathers, basis, w)

    def test_one_row_merges_nothing(self):
        # the search's root lists are unfiltered: every candidate row of
        # every pair, pushed alone under the identity basis, merges no two
        # multichains, on every lattice with n <= 4 at degrees 2..4
        for p in corpus(4):
            lat = enumerate_ideals(p)
            pos = lat.position
            for d in (2, 3, 4):
                chains, gathers, basis, w = _collision_root(lat, d)
                for a, b in lat.induction_pairs:
                    for lo, hi in _candidate_rhs(lat, a, b):
                        pushed = _null_push(basis, w, (pos[a], pos[b], pos[lo], pos[hi]))
                        assert pushed is not None, (p, d)
                        assert not _collides(chains, gathers, *pushed), (p, d, a, b, lo, hi)

    def test_same_tree_as_residual_oracle(self, monkeypatch):
        # degree 3 on every lattice with n <= 4: the same systems in the
        # same order as the oracle, from a tree of exactly the pinned number
        # of push-and-collide tests, listed in corpus order
        pinned = [0, 0, 0, 37, 6, 0, 0, 0, 1133, 288, 128, 146, 133, 57, 63, 29, 20, 28, 0,
                  152, 20, 0, 0, 0]
        lats = [enumerate_ideals(p) for p in corpus(4)]
        assert len(lats) == len(pinned)
        for lat, tests in zip(lats, pinned):
            want = oracles.search_by_residuals(lat, 3)
            monkeypatch.setattr(uniqueness, "MAX_SEARCH_TESTS", tests)
            got = search_compatible_asls(lat, max_degree=3)
            assert [s.rhs for s in got] == want, lat.poset
            if tests:  # a search with at most one pair makes no test
                monkeypatch.setattr(uniqueness, "MAX_SEARCH_TESTS", tests - 1)
                with pytest.raises(BudgetExceeded):
                    search_compatible_asls(lat, max_degree=3)

    def test_search_ideal_bound(self):
        lat = enumerate_ideals(antichain(7))  # 128 ideals, raised before any work
        bound = "lattice has 128 ideals, over the search bound of 125"
        with pytest.raises(CapacityExceeded, match=bound):
            search_compatible_asls(lat)
        with pytest.raises(CapacityExceeded, match=bound):
            is_realizable(lat, canonical_pm(lat))

    @pytest.mark.parametrize("degree", [-1, 0, 1])
    def test_degree_below_two_rejected(self, degree):
        lat = enumerate_ideals(antichain(3))
        with pytest.raises(ValueError, match="at least 2"):
            search_compatible_asls(lat, max_degree=degree)
        with pytest.raises(ValueError, match="at least 2"):
            is_realizable(lat, canonical_pm(lat), max_degree=degree)


class TestCheckUnique:
    def test_sum_of_chains_unique(self):
        lat = enumerate_ideals(sum_of_chains(3, 2))
        res = check_unique(lat)
        assert res.unique
        assert res.certificate is not None
        assert res.witness_kinds is None

    def test_v_witness(self, v_poset):
        res = check_unique(enumerate_ideals(v_poset))
        assert not res.unique
        assert res.witness_kinds == (RealizationKind.ORDER, RealizationKind.CHAIN_DUAL)

    def test_lambda_witness(self, lam_poset):
        res = check_unique(enumerate_ideals(lam_poset))
        assert not res.unique
        assert res.witness_kinds == (RealizationKind.ORDER, RealizationKind.CHAIN)

    def test_verdict_matches_structure(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            assert check_unique(lat).unique == is_direct_sum_of_chains(p)

    def test_witness_matches_full_table_oracle(self):
        # NOT_UNIQUE reports the first failed comparison of condition (ii)
        for p in corpus(6):
            lat = enumerate_ideals(p)
            res = check_unique(lat)
            expected = oracles.condition_ii_witnesses(lat)
            if is_direct_sum_of_chains(p):
                assert res.unique and expected == ()
                continue
            kinds, pair, ra, rb = expected[0]
            assert not res.unique
            assert (res.witness_kinds, res.witness_pair, res.witness_rhs) == (kinds, pair, (ra, rb))

    def test_witness_systems_distinct_and_realizable(self):
        for p in corpus(4):
            if is_direct_sum_of_chains(p):
                continue
            lat = enumerate_ideals(p)
            res = check_unique(lat)
            ka, kb = res.witness_kinds
            pm_a = straightening_relations(lat, ka)
            pm_b = straightening_relations(lat, kb)
            assert pm_a != pm_b
            assert pm_a.rhs[res.witness_pair] == res.witness_rhs[0]
            assert pm_b.rhs[res.witness_pair] == res.witness_rhs[1]
            assert is_realizable(lat, pm_a) is not None
            assert is_realizable(lat, pm_b) is not None


class TestCertificates:
    def test_precondition(self, v_poset):
        with pytest.raises(PreconditionViolated):
            uniqueness_certificate(enumerate_ideals(v_poset))

    def test_antichain2_single_base_step(self):
        p = antichain(2)
        cert = uniqueness_certificate(enumerate_ideals(p))
        assert len(cert.steps) == 1
        step = cert.steps[0]
        assert step.k == 0
        assert step.refutations == ()
        assert step.rhs == (0, p.full_mask)

    def test_chain2_plus_point_steps(self):
        # {a<b, c}: the pair ({a,b},{a,c}) has k=1 and is refuted through
        # the complement side only (its union is already everything)
        p = build_poset(["a", "b", "c"], [("a", "b")])
        cert = uniqueness_certificate(enumerate_ideals(p))
        by_pair = {
            tuple(sorted(tuple(p.labels_of(m)) for m in s.pair)): s for s in cert.steps
        }
        step = by_pair[(("a", "b"), ("a", "c"))]
        assert step.k == 1
        assert [r.side for r in step.refutations] == ["meet"]
        assert is_direct_sum_of_chains(p)

    def test_three_points_isolated_adjoin(self):
        # {a}, {b} with alternative P: no covered element exists, so the
        # smallest isolated element is adjoined to the second component
        p = build_poset(["a", "b", "c"], [])
        lat = enumerate_ideals(p)
        cert = uniqueness_certificate(lat)
        a, b = p.mask_of(["a"]), p.mask_of(["b"])
        step = next(s for s in cert.steps if s.pair == (a, b))
        assert step.k == 1
        joinref = [
            r for r in step.refutations if r.side == "join" and r.alternative == p.full_mask
        ]
        assert len(joinref) == 1
        ref = joinref[0]
        assert ref.p is None
        assert ref.q == p.index_of("c")
        assert ref.alpha1 == p.mask_of(["b", "c"])
        assert ref.prior_pair == (a, p.mask_of(["b", "c"]))

    def test_steps_sorted_by_parameter(self):
        for lengths in [(2, 1), (1, 1, 1), (2, 2), (3, 1)]:
            p = sum_of_chains(*lengths)
            cert = uniqueness_certificate(enumerate_ideals(p))
            ks = [s.k for s in cert.steps]
            assert ks == sorted(ks)
            for s in cert.steps:
                assert s.k == induction_parameter(p, *s.pair)

    def test_validates(self):
        for lengths in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 2)]:
            p = sum_of_chains(*lengths)
            cert = uniqueness_certificate(enumerate_ideals(p))
            ok, reason = validate_certificate(p, cert)
            assert ok, (lengths, reason)

    def test_wrong_poset_rejected(self):
        p = sum_of_chains(2, 1)
        q = sum_of_chains(1, 1, 1)
        cert = uniqueness_certificate(enumerate_ideals(p))
        ok, reason = validate_certificate(q, cert)
        assert not ok

    def test_hand_mutations_rejected(self):
        p = sum_of_chains(2, 1)
        cert = uniqueness_certificate(enumerate_ideals(p))
        doc = certificate_doc(cert)

        tampered = copy.deepcopy(doc)
        tampered["steps"][1]["rhs"][1] = list(tampered["steps"][1]["pair"][0])
        ok, _ = validate_certificate(p, certificate_from_json(tampered, p))
        assert not ok

        tampered = copy.deepcopy(doc)
        tampered["steps"][0]["k"] += 1
        ok, _ = validate_certificate(p, certificate_from_json(tampered, p))
        assert not ok

        tampered = copy.deepcopy(doc)
        step = next(s for s in tampered["steps"] if s["refutations"])
        step["refutations"][0]["swapped"] = not step["refutations"][0]["swapped"]
        ok, _ = validate_certificate(p, certificate_from_json(tampered, p))
        assert not ok

        tampered = copy.deepcopy(doc)
        step = next(s for s in tampered["steps"] if s["refutations"])
        del step["refutations"][0]
        ok, _ = validate_certificate(p, certificate_from_json(tampered, p))
        assert not ok

    def test_json_roundtrip(self):
        p = sum_of_chains(2, 2)
        cert = uniqueness_certificate(enumerate_ideals(p))
        doc = certificate_doc(cert)
        again = certificate_from_json(doc, p)
        assert again == cert
        assert validate_certificate(p, again)[0]

    @pytest.mark.parametrize(
        "field, old, new",
        [
            ("alternative", ["a", "b", "c"], "abc"),  # iterates like the labels
            ("alternative", ["a", "b", "c"], ["a", "b", 3]),
            ("swapped", False, "no"),  # truthy
            ("swapped", False, 0),
            ("k", 1, "1"),
            ("k", 1, 1.9),
            ("k", 1, True),
            ("k", 0, None),
            ("p", None, ["a"]),
            ("p", None, 0),
            ("q", "c", ["c"]),
            ("elements", None, "abc"),
            ("covers", None, ["ab"]),
        ],
    )
    def test_field_types_strict(self, field, old, new):
        # no coercion: a string iterates like a label list, bool() and
        # int() accept strings, numbers and floats
        p = build_poset(["a", "b", "c"], [] if field != "covers" else [("a", "b")])
        doc = certificate_doc(uniqueness_certificate(enumerate_ideals(p)))
        if field in ("elements", "covers"):
            doc[field] = new
        else:
            sites = [s for s in doc["steps"] if field == "k"] or [
                r for s in doc["steps"] for r in s["refutations"]
            ]
            site = next(x for x in sites if x[field] == old)
            site[field] = new
        with pytest.raises(InvalidCertificate):
            certificate_from_json(doc, p)

    @pytest.mark.parametrize("extra", [True, False], ids=["three", "one"])
    @pytest.mark.parametrize(
        "field, where, entry",
        [
            ("pair", "step", ["a0"]),
            ("rhs", "step", ["a0"]),
            ("prior_pair", "refutation", 42),
            ("collision", "refutation", [["a0"]]),
        ],
        ids=["pair", "rhs", "prior_pair", "collision"],
    )
    def test_pair_arities_strict(self, field, where, entry, extra):
        # each of these fields holds exactly two entries; a third one (or a
        # missing second one) must not be ignored by the parser
        p = antichain(3)
        doc = certificate_doc(uniqueness_certificate(enumerate_ideals(p)))
        sites = doc["steps"] if where == "step" else [
            r for s in doc["steps"] for r in s["refutations"]
        ]
        if extra:
            sites[0][field].append(entry)
        else:
            del sites[0][field][1]
        with pytest.raises(InvalidCertificate, match="exactly two"):
            certificate_from_json(doc, p)

    def test_malformed_json(self):
        p = sum_of_chains(2, 1)
        with pytest.raises(InvalidCertificate):
            certificate_from_json({"format": "bogus"}, p)
        with pytest.raises(InvalidCertificate):
            certificate_from_json({"format": "uniqueness-certificate/1", "elements": ["zz"]}, p)


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _outside_union(side, j, alt, wit):
    """q inside the union, so not strictly inside the alternative."""
    return alt, (wit[0], _bits(j)[0])


def _adjoin_non_minimal(side, j, alt, wit):
    """No covered element, and q not side-minimal."""
    q = [x for x in _bits(alt & ~j) if not side.minimal_mask >> x & 1]
    return (alt, (None, q[0])) if q else None


def _p_not_covered(side, j, alt, wit):
    """p maximal in the union, and q not a cover of it."""
    q = wit[1]
    p = [x for x in _bits(side.maxels(j)) if not side.cover_mask[x] >> q & 1]
    return (alt, (p[0], q)) if p else None


def _p_outside_union(side, j, alt, wit):
    """p outside the union, and q a cover of it strictly inside the alternative."""
    pairs = [(x, y) for x in _bits(alt & ~j) for y in _bits(side.cover_mask[x] & alt & ~j)]
    return (alt, pairs[0]) if pairs else None


class TestReplayLogicalChecks:
    """The logical checks of replay, each made to reject on its own.

    Build and replay share ``_Side.alternatives``, the alternatives of a
    union with their deterministic witnesses.  Faking it the same way for
    both makes every comparison with the deterministic derivation pass, so
    a wrong derivation is caught only by the logical check that follows.
    The checks that no such fake reaches say at the check which earlier
    checks imply them."""

    @staticmethod
    def fake(monkeypatch, side_name, rewrite):
        """``rewrite(side, union, alt, witness)`` gives an entry's new
        ``(alt, witness)`` on one side, or None to keep it."""
        real = uniqueness._Side.alternatives

        def alternatives(self, m):
            alts = real(self, m)
            if self.name != side_name:
                return alts
            return [rewrite(self, m, alt, wit) or (alt, wit) for alt, wit in alts]

        monkeypatch.setattr(uniqueness._Side, "alternatives", alternatives)

    @pytest.mark.parametrize("side", ["join", "meet"])
    @pytest.mark.parametrize(
        "rewrite, message",
        [
            (lambda side, j, alt, wit: (j, wit),
             "alternative is not a closed strict superset of the union"),
            (_outside_union, "adjoined element is not strictly inside the alternative"),
            (_adjoin_non_minimal, "adjoined element without covered element must be minimal"),
            (_p_not_covered, "q does not cover p"),
            (_p_outside_union, "p is not maximal in the union"),
        ],
        ids=["union-as-alternative", "q-in-union", "q-not-minimal", "q-not-cover",
             "p-outside-union"],
    )
    def test_faked_derivation_rejected(self, monkeypatch, side, rewrite, message):
        p = sum_of_chains(3, 1)
        self.fake(monkeypatch, side, rewrite)
        cert = uniqueness_certificate(enumerate_ideals(p))
        ok, reason = validate_certificate(p, cert)
        assert not ok
        assert re.fullmatch(rf"step \d+ \({side} side\): {re.escape(message)}", reason), reason

    @pytest.mark.parametrize("side", ["join", "meet"])
    def test_missing_witness_rejected(self, monkeypatch, side):
        # the builder refuses a union with no witness, so only replay is faked
        p = sum_of_chains(3, 1)
        cert = uniqueness_certificate(enumerate_ideals(p))
        self.fake(monkeypatch, side, lambda side, j, alt, wit: (alt, None))
        ok, reason = validate_certificate(p, cert)
        assert not ok
        assert re.fullmatch(rf"step \d+ \({side} side\): no admissible witness elements exist",
                            reason), reason

    def test_not_sum_of_chains_rejected(self, v_poset):
        # no builder issues this certificate; replay refuses it before any step
        cert = UniquenessCertificate(poset=v_poset, steps=())
        ok, reason = validate_certificate(v_poset, cert)
        assert (ok, reason) == (False, "poset is not a direct sum of chains")


def partitions(n: int, top: int | None = None):
    """Partitions of n as nonincreasing tuples, in reverse lexicographic order."""
    top = n if top is None else top
    if n == 0:
        yield ()
        return
    for first in range(min(n, top), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# the 44 shapes of sums of chains with at most 7 points
SHAPES = [parts for n in range(1, 8) for parts in partitions(n)]


@pytest.fixture(scope="module")
def shape_certificates():
    return [
        (parts, p, uniqueness_certificate(enumerate_ideals(p)))
        for parts in SHAPES
        for p in [sum_of_chains(*parts)]
    ]


class TestCertificateShapes:
    def test_certificates_pinned(self, shape_certificates):
        # SHA-256 over the compact JSON of every shape's certificate, one
        # line each: certificates stay byte-identical across rewrites of
        # uniqueness_certificate
        digest = hashlib.sha256()
        for _, _, cert in shape_certificates:
            digest.update("".join(certificate_to_json(cert)).encode())
            digest.update(b"\n")
        assert len(shape_certificates) == 44
        assert digest.hexdigest() == (
            "aaf09b818c695551fee69e4f99ca1f3aa6f165a190006688ee5ec8499ae3ef89"
        )

    def test_chunks_match_reference_encoder(self, shape_certificates):
        # the header, one chunk per step and the closing brackets join to
        # the compact dump of the reference document
        for parts, _, cert in shape_certificates:
            chunks = list(certificate_to_json(cert))
            assert len(chunks) == len(cert.steps) + 2, parts
            want = json.dumps(oracles.certificate_doc_reference(cert), separators=(",", ":"))
            assert "".join(chunks) == want, parts

    def test_labels_escaped_like_json_dumps(self):
        # a quote, a backslash, non-ASCII letters, a tab and JSON punctuation
        chains = [['"', "\\"], ["é"], ["☃", "\t", "a,b]"]]
        p = build_poset(
            [x for c in chains for x in c], [cover for c in chains for cover in zip(c, c[1:])]
        )
        assert is_direct_sum_of_chains(p)
        cert = uniqueness_certificate(enumerate_ideals(p))
        text = "".join(certificate_to_json(cert))
        assert text == json.dumps(oracles.certificate_doc_reference(cert), separators=(",", ":"))
        assert validate_certificate(p, certificate_from_json(json.loads(text), p)) == (True, "ok")

    def test_size_matches_built_certificates(self, shape_certificates):
        for parts, p, cert in shape_certificates:
            built = (len(cert.steps), sum(len(s.refutations) for s in cert.steps))
            assert certificate_size(p) == built, parts

    def test_size_of_antichains(self):
        for n in range(1, 13):
            assert certificate_size(antichain(n)) == (
                (4**n - 2 * 3**n + 2**n) // 2,
                5**n - 3 * 4**n + 3 * 3**n - 2**n,
            )
        assert certificate_size(antichain(8)) == (26_335, 213_444)
        assert certificate_size(antichain(9)) == (111_645, 1_225_230)

    def test_size_needs_sum_of_chains(self, v_poset):
        with pytest.raises(PreconditionViolated):
            certificate_size(v_poset)

    def test_budget(self):
        assert certificate_size(antichain(8))[1] <= MAX_CERTIFICATE_REFUTATIONS
        with pytest.raises(CapacityExceeded, match="1,225,230 refutations.*500,000"):
            uniqueness_certificate(enumerate_ideals(antichain(9)))

    def test_replay_matches_reference_on_mutant_stream(self):
        # criterion 5's seed and draw order over its certificates with n <= 5:
        # the same verdict and reason as the per-refutation validator
        rng = random.Random(65537)
        replayed = 0
        for n in range(1, 6):
            for cp in generate_posets(n):
                p = cp.poset
                if not is_direct_sum_of_chains(p):
                    continue
                cert = uniqueness_certificate(enumerate_ideals(p))
                assert validate_certificate(p, cert) == (True, "ok")
                assert oracles.validate_certificate_reference(p, cert) == (True, "ok")
                doc = certificate_doc(cert)
                for _ in range(100):
                    try:
                        bad = certificate_from_json(mutate_once(doc, rng), p)
                    except InvalidCertificate:
                        continue
                    got = validate_certificate(p, bad)
                    assert got == oracles.validate_certificate_reference(p, bad)
                    replayed += 1
        assert replayed == 1228  # the other 572 mutants fail to parse

    @pytest.mark.parametrize("lengths", [(2, 1), (1, 1, 1), (3, 1)])
    def test_replay_matches_reference_on_every_field_change(self, lengths):
        # every refutation field set to every other value of its kind, in
        # memory (no parser in between): the same verdict and reason as the
        # per-refutation validator
        p = sum_of_chains(*lengths)
        lat = enumerate_ideals(p)
        cert = uniqueness_certificate(lat)
        closed = sorted(set(lat.ideals) | {p.full_mask & ~m for m in lat.ideals})
        reasons = set()
        for si, step in enumerate(cert.steps):
            for ri, ref in enumerate(step.refutations):
                changes = [{"side": "meet" if ref.side == "join" else "join"},
                           {"swapped": not ref.swapped}]
                changes += [{"p": x} for x in [None, *range(p.n)] if x != ref.p]
                changes += [{"q": x} for x in range(p.n) if x != ref.q]
                for m in closed:
                    changes += [{"alternative": m}, {"alpha1": m},
                                {"prior_pair": (m, ref.prior_pair[1])},
                                {"prior_pair": (ref.prior_pair[0], m)}]
                    for c in range(2):
                        for i in range(3):
                            chain = list(ref.collision[c])
                            chain[i] = m
                            collision = list(ref.collision)
                            collision[c] = tuple(chain)
                            changes.append({"collision": tuple(collision)})
                for change in changes:
                    bad_ref = ref._replace(**change)
                    if bad_ref == ref:
                        continue
                    refs = list(step.refutations)
                    refs[ri] = bad_ref
                    steps = list(cert.steps)
                    steps[si] = step._replace(refutations=tuple(refs))
                    bad = UniquenessCertificate(poset=p, steps=tuple(steps))
                    got = validate_certificate(p, bad)
                    assert got == oracles.validate_certificate_reference(p, bad), change
                    assert not got[0]
                    reasons.add(got[1].split(": ")[-1])
        # the deterministic witness fixes every other field, so a single
        # change is caught by one of these
        assert reasons == {
            "refutation list does not match the enumerated alternatives",
            "witness elements differ from the deterministic choice",
            "alpha1 is not the extended component plus q",
            "stored prior pair mismatch",
            "collision monomials differ from the replayed ones",
        }


def mutate_once(doc: dict, rng: random.Random) -> dict:
    """Return a copy of a certificate document with one field changed to a
    different value of the same shape.  Only the containers on the path to
    that field are copied (the rest, label arrays included, is shared with
    ``doc``, which stays unchanged), after the site is drawn; copying draws
    nothing from ``rng``."""
    labels = list(doc["elements"])

    def other_subset(current):
        while True:
            cand = sorted(rng.sample(labels, rng.randint(0, len(labels))))
            if cand != sorted(current):
                return cand

    sites = [("elements", i) for i in range(len(labels))]
    sites.append(("covers",))
    for si, step in enumerate(doc["steps"]):
        sites.append(("k", si))
        sites.append(("pair", si, rng.randint(0, 1)))
        sites.append(("rhs", si, rng.randint(0, 1)))
        for ri, _ in enumerate(step["refutations"]):
            sites.append(("side", si, ri))
            sites.append(("alternative", si, ri))
            sites.append(("swapped", si, ri))
            sites.append(("p", si, ri))
            sites.append(("q", si, ri))
            sites.append(("alpha1", si, ri))
            sites.append(("prior_pair", si, ri, rng.randint(0, 1)))
            sites.append(("collision", si, ri, rng.randint(0, 1), rng.randint(0, 2)))
    site = sites[rng.randrange(len(sites))]
    kind = site[0]
    doc = dict(doc)
    if kind == "elements":
        doc["elements"] = list(doc["elements"])
        doc["elements"][site[1]] = doc["elements"][site[1]] + "_mut"
        return doc
    if kind == "covers":
        doc["covers"] = list(doc["covers"])
        if doc["covers"] and rng.random() < 0.5:
            doc["covers"].pop(rng.randrange(len(doc["covers"])))
        else:
            while True:
                pair = [rng.choice(labels), rng.choice(labels)]
                if pair not in doc["covers"]:
                    doc["covers"].append(pair)
                    break
        return doc
    si = site[1]
    doc["steps"] = list(doc["steps"])
    step = doc["steps"][si] = dict(doc["steps"][si])
    if kind == "k":
        step["k"] += rng.choice([-1, 1, 2])
    elif kind in ("pair", "rhs"):
        step[kind] = list(step[kind])
        step[kind][site[2]] = other_subset(step[kind][site[2]])
    else:
        step["refutations"] = list(step["refutations"])
        ref = step["refutations"][site[2]] = dict(step["refutations"][site[2]])
        if kind == "side":
            ref["side"] = "meet" if ref["side"] == "join" else "join"
        elif kind == "swapped":
            ref["swapped"] = not ref["swapped"]
        elif kind in ("alternative", "alpha1"):
            ref[kind] = other_subset(ref[kind])
        elif kind in ("p", "q"):
            cands = [x for x in labels + ([None] if kind == "p" else []) if x != ref[kind]]
            ref[kind] = rng.choice(cands)
        elif kind == "prior_pair":
            ref["prior_pair"] = list(ref["prior_pair"])
            ref["prior_pair"][site[3]] = other_subset(ref["prior_pair"][site[3]])
        else:
            ref["collision"] = list(ref["collision"])
            chain = ref["collision"][site[3]] = list(ref["collision"][site[3]])
            chain[site[4]] = other_subset(chain[site[4]])
    return doc


def changed_paths(a, b, path=()):
    """Paths of the leaves (or resized lists) where two documents differ."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [q for k in a for q in changed_paths(a[k], b[k], path + (k,))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [q for i, (x, y) in enumerate(zip(a, b)) for q in changed_paths(x, y, path + (i,))]
    return [] if a == b else [path]


class TestMutationRejection:
    def test_mutation_sequence_is_fixed(self):
        # the fields the acceptance suite's seed mutates, as drawn when the
        # copy was copy.deepcopy: a cheaper copy must not change them
        p = sum_of_chains(2, 2)
        doc = certificate_doc(uniqueness_certificate(enumerate_ideals(p)))
        pristine = json.dumps(doc)
        rng = random.Random(65537)
        seq = [changed_paths(doc, mutate_once(doc, rng)) for _ in range(12)]
        assert json.dumps(doc) == pristine
        assert seq == [
            [("steps", 6, "refutations", 1, "alternative")],
            [("steps", 3, "refutations", 0, "alpha1")],
            [("steps", 7, "refutations", 1, "swapped")],
            [("elements", 0)],
            [("steps", 7, "refutations", 0, "side")],
            [("steps", 1, "refutations", 0, "prior_pair", 1)],
            [("steps", 1, "refutations", 0, "side")],
            [("steps", 6, "refutations", 1, "alternative")],
            [("steps", 2, "refutations", 0, "swapped")],
            [("steps", 7, "refutations", 1, "side")],
            [("steps", 5, "refutations", 2, "alternative")],
            [("steps", 5, "refutations", 1, "collision", 0, 2)],
        ]

    def test_random_mutations_rejected(self):
        rng = random.Random(20240817)
        for lengths in [(2, 1), (1, 1, 1), (2, 2)]:
            p = sum_of_chains(*lengths)
            cert = uniqueness_certificate(enumerate_ideals(p))
            doc = certificate_doc(cert)
            for _ in range(40):
                mutated = mutate_once(doc, rng)
                try:
                    bad = certificate_from_json(mutated, p)
                except InvalidCertificate:
                    continue  # rejected at parse time
                ok, _ = validate_certificate(p, bad)
                assert not ok
