"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is exact
(integer/rational arithmetic); the only tolerances are the wall-clock
budgets of criteria 1 and 2.
"""

import random
import time
from functools import lru_cache

import oracles
from aslattice import (
    RealizationKind,
    certificate_from_json,
    check_condition_ii,
    chain_polytope_vertices,
    dual,
    enumerate_ideals,
    generate_posets,
    is_direct_sum_of_chains,
    order_polytope_vertices,
    point_in_chain_polytope,
    point_in_order_polytope,
    realize,
    search_compatible_asls,
    straightening_relations,
    uniqueness_certificate,
    validate_certificate,
    verify_asl_axioms,
)
from aslattice.errors import InvalidCertificate
from aslattice.straightening import monomial_product
from conftest import build_poset, certificate_doc
from test_uniqueness import mutate_once

EXPECTED_CLASS_COUNTS = [1, 2, 5, 16, 63, 318]
EXPECTED_PARTITIONS = [1, 2, 3, 5, 7, 11]


@lru_cache(maxsize=None)
def classes(n):
    return [cp.poset for cp in generate_posets(n)]


def test_criterion_1_theorem_equivalence_exhaustive():
    start = time.perf_counter()
    counts = []
    counterexamples = []
    for n in range(1, 7):
        ps = classes(n)
        counts.append(len(ps))
        for p in ps:
            lat = enumerate_ideals(p)
            if check_condition_ii(lat).equal != is_direct_sum_of_chains(p):
                counterexamples.append(p)
    elapsed = time.perf_counter() - start
    assert counts == EXPECTED_CLASS_COUNTS
    for n in range(1, 6):  # independent naive generator validates the counts
        assert len(oracles.iso_classes(n)) == counts[n - 1]
    assert counterexamples == []
    assert elapsed < 120
    print(
        f"\ncriterion 1 (theorem equivalence, {sum(counts)} classes n<=6, "
        f"0 counterexamples, {elapsed:.1f}s): PASS"
    )


def test_criterion_2_uniqueness_search_exhaustive():
    start = time.perf_counter()
    searched = 0
    for n in range(1, 5):
        for p in classes(n):
            lat = enumerate_ideals(p)
            if len(lat) > 12:
                continue
            systems = search_compatible_asls(lat)  # raises if not exhausted
            searched += 1
            if is_direct_sum_of_chains(p):
                assert len(systems) == 1, p
            else:
                assert len(systems) >= 2, p
    v = build_poset(["p", "p'", "q"], [("p", "q"), ("p'", "q")])
    lam = build_poset(["q", "p", "p'"], [("q", "p"), ("q", "p'")])
    assert len(search_compatible_asls(enumerate_ideals(v))) == 2
    assert len(search_compatible_asls(enumerate_ideals(lam))) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"\ncriterion 2 (exhaustive search, {searched} posets n<=4 with <=12 ideals, "
        f"V and Lambda give exactly 2, {elapsed:.1f}s): PASS"
    )


def test_criterion_3_toric_identities_exact():
    checked = 0
    for n in range(1, 7):
        for p in classes(n):
            lat = enumerate_ideals(p)
            for kind in RealizationKind:
                for (a, b), (lo, hi) in straightening_relations(lat, kind).entries():
                    left = monomial_product([realize(p, kind, a), realize(p, kind, b)])
                    right = monomial_product([realize(p, kind, lo), realize(p, kind, hi)])
                    assert left == right, (p, kind, a, b)
                    checked += 1
    print(f"\ncriterion 3 (toric identities, {checked} relations exact): PASS")


def test_criterion_4_axioms_and_multichain_count():
    for n in range(1, 5):
        for p in classes(n):
            lat = enumerate_ideals(p)
            for kind in RealizationKind:
                verify_asl_axioms(lat, kind, max_degree=3)
    v = build_poset(["p", "p'", "q"], [("p", "q"), ("p'", "q")])
    lat = enumerate_ideals(v)
    oracle_count = oracles.multichain_count(v, oracles.ideal_sets(v), 2)
    assert oracle_count == 14
    for kind in RealizationKind:
        rep = verify_asl_axioms(lat, kind, max_degree=3)
        assert rep.standard_monomial_counts[2] == 14
    print("\ncriterion 4 (axioms at degree 3 on all n<=4; V-poset degree-2 count 14): PASS")


def test_criterion_5_certificate_soundness_and_mutations():
    rng = random.Random(65537)
    certs = 0
    mutants = 0
    for n in range(1, 7):
        for p in classes(n):
            if not is_direct_sum_of_chains(p):
                continue
            lat = enumerate_ideals(p)
            cert = uniqueness_certificate(lat)
            ok, reason = validate_certificate(p, cert)
            assert ok, (p, reason)
            certs += 1
            doc = certificate_doc(cert)
            for _ in range(100):
                mutated = mutate_once(doc, rng)
                try:
                    bad = certificate_from_json(mutated, p)
                except InvalidCertificate:
                    mutants += 1
                    continue
                ok, _ = validate_certificate(p, bad)
                assert not ok, p
                mutants += 1
    assert certs == sum(EXPECTED_PARTITIONS)
    print(
        f"\ncriterion 5 (certificates: {certs} accepted, {mutants} mutations rejected): PASS"
    )


def test_criterion_6_vertex_counts_and_membership():
    for n in range(1, 7):
        for p in classes(n):
            lat = enumerate_ideals(p)
            o_verts = order_polytope_vertices(lat)
            c_verts = chain_polytope_vertices(lat)
            assert len(o_verts) == len(c_verts) == len(lat), p
            for v in o_verts:
                assert point_in_order_polytope(p, v), p
            for v in c_verts:
                assert point_in_chain_polytope(p, v), p
    print("\ncriterion 6 (vertex counts and self-membership, all n<=6): PASS")


def test_criterion_7_duality_transport():
    for n in range(1, 6):
        for p in classes(n):
            lat = enumerate_ideals(p)
            q = dual(p)
            latq = enumerate_ideals(q)
            chain_on_dual = straightening_relations(latq, RealizationKind.CHAIN)
            full = p.full_mask

            def to_q(mask):
                return q.mask_of(p.labels_of(full & ~mask))

            def to_p(mask):
                return full & ~p.mask_of(q.labels_of(mask))

            pm = straightening_relations(lat, RealizationKind.CHAIN_DUAL)
            for (a, b), (lo, hi) in pm.entries():
                qlo, qhi = chain_on_dual.rhs_of(to_q(a), to_q(b))
                assert (to_p(qhi), to_p(qlo)) == (lo, hi), (p, a, b)
    print("\ncriterion 7 (complement transport of dual relations, all n<=5): PASS")


def test_criterion_8_enumeration_oracle():
    for n in range(1, 6):
        assert len(classes(n)) == len(oracles.iso_classes(n))
        soc = sum(1 for p in classes(n) if is_direct_sum_of_chains(p))
        assert soc == EXPECTED_PARTITIONS[n - 1]
        assert soc == oracles.partition_count(n)
    print("\ncriterion 8 (generator vs naive oracle n<=5; partition tallies): PASS")
