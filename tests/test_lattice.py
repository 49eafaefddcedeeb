import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from aslattice import (
    CapacityExceeded,
    NotAntichain,
    build_poset,
    circ,
    dual,
    enumerate_ideals,
    ideal_from_antichain,
    is_ideal,
    max_elements,
    min_elements,
    star,
)
from aslattice import ideals
from aslattice.genposets import canonical_form
from aslattice.ideals import induction_parameter, is_antichain, lattice_dot, lattice_to_json
from conftest import antichain, chain, corpus


def as_sets(p, masks):
    return [frozenset(p.labels_of(m)) for m in masks]


class TestEnumeration:
    def test_chain_prefixes(self):
        for n in range(5):
            assert len(enumerate_ideals(chain(n) if n else build_poset([], []))) == n + 1

    def test_antichain_powerset(self):
        for n in range(1, 7):
            assert len(enumerate_ideals(antichain(n))) == 2**n

    def test_v_poset(self, v_poset):
        lat = enumerate_ideals(v_poset)
        assert as_sets(v_poset, lat.ideals) == [
            frozenset(),
            frozenset({"p"}),
            frozenset({"p'"}),
            frozenset({"p", "p'"}),
            frozenset({"p", "p'", "q"}),
        ]

    def test_against_powerset_oracle(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            assert set(as_sets(p, lat.ideals)) == set(oracles.ideal_sets(p))

    def test_count_equals_antichains(self):
        for p in corpus(5):
            assert len(enumerate_ideals(p)) == len(oracles.antichain_sets(p))

    def test_all_down_closed(self):
        for p in corpus(5):
            for m in enumerate_ideals(p).ideals:
                assert is_ideal(p, m)

    def test_capacity(self, monkeypatch):
        monkeypatch.setattr(ideals, "MAX_IDEALS", 100)
        with pytest.raises(CapacityExceeded):
            enumerate_ideals(antichain(10))

    def test_capacity_error_names_its_bound(self, monkeypatch):
        monkeypatch.setattr(ideals, "MAX_IDEALS", 1000)
        with pytest.raises(CapacityExceeded, match=r"capacity bound of 1,000 ideals$"):
            enumerate_ideals(antichain(10))

    def test_deterministic_order(self):
        for p in corpus(4):
            ids = enumerate_ideals(p).ideals
            assert list(ids) == sorted(ids, key=lambda m: (m.bit_count(), m))


def check_tables(p):
    """Both tables against the per-ideal definitions, keyed in ideal order."""
    lat = enumerate_ideals(p)
    assert list(lat.max_table) == list(lat.ideals)
    assert list(lat.complement_min_table) == list(lat.ideals)
    for a in lat.ideals:
        assert lat.max_table[a] == max_elements(p, a)
        assert lat.complement_min_table[a] == min_elements(p, p.full_mask & ~a)


@st.composite
def shuffled_posets(draw, max_n=7):
    """Random posets given with their labels sorted, while the order runs
    through the labels in a random permutation, so that the indices (a
    linear extension) do not follow the labels."""
    n = draw(st.integers(1, max_n))
    labels = draw(st.permutations([f"x{i}" for i in range(n)]))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
    )
    return build_poset(sorted(labels), [(labels[i], labels[j]) for i, j in pairs if i < j])


class TestTables:
    def test_tables_match_per_call(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            assert list(lat.max_table) == list(lat.ideals)
            for a in lat.ideals:
                assert lat.max_table[a] == max_elements(p, a)
                assert lat.complement_min_table[a] == min_elements(p, p.full_mask & ~a)

    def test_tables_every_class_up_to_seven(self):
        for p in corpus(7):
            check_tables(p)

    @settings(max_examples=200, deadline=None)
    @given(shuffled_posets())
    def test_tables_labels_not_in_index_order(self, p):
        check_tables(p)

    def test_lattice_covers_brute_force(self):
        # b covers a exactly when b is a plus one element; listed by position
        for p in corpus(6):
            lat = enumerate_ideals(p)
            pos = lat.position
            pairs = [
                (a, b)
                for a in lat.ideals
                for b in lat.ideals
                if a & ~b == 0 and b.bit_count() == a.bit_count() + 1
            ]
            expected = sorted(pairs, key=lambda ab: (pos[ab[0]], pos[ab[1]]))
            assert list(lat.lattice_covers) == expected

    def test_induction_pairs_order(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            pos = lat.position
            expected = sorted(
                lat.incomparable_pairs,
                key=lambda ab: (induction_parameter(p, *ab), pos[ab[0]], pos[ab[1]]),
            )
            assert list(lat.induction_pairs) == expected

    def test_induction_index(self):
        # each induction pair's position, one dict per lattice
        for p in corpus(5):
            lat = enumerate_ideals(p)
            index = lat.induction_index
            assert index == {pair: i for i, pair in enumerate(lat.induction_pairs)}
            assert lat.induction_index is index


class TestBasicOps:
    def test_max_elements(self, v_poset):
        p = v_poset
        assert max_elements(p, p.full_mask) == p.mask_of(["q"])
        assert max_elements(p, 0) == 0
        ap = antichain(3)
        for m in enumerate_ideals(ap).ideals:
            assert max_elements(ap, m) == m

    def test_ideal_from_antichain(self, v_poset):
        p = v_poset
        assert ideal_from_antichain(p, p.mask_of(["q"])) == p.full_mask
        assert ideal_from_antichain(p, 0) == 0
        assert ideal_from_antichain(p, p.mask_of(["p", "p'"])) == p.mask_of(["p", "p'"])

    def test_not_antichain(self, v_poset):
        with pytest.raises(NotAntichain):
            ideal_from_antichain(v_poset, v_poset.mask_of(["p", "q"]))

    def test_antichain_ideal_bijection(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            for m in lat.ideals:
                a = max_elements(p, m)
                assert is_antichain(p, a)
                assert ideal_from_antichain(p, a) == m

    def test_complement_and_min(self, v_poset):
        p = v_poset
        f = p.full_mask & ~p.mask_of(["p"])
        assert min_elements(p, f) == p.mask_of(["p'"])

    def test_min_of_generated_filter(self, lam_poset):
        p = lam_poset
        f = p.mask_of(["p", "p'"])
        assert min_elements(p, f) == f


class TestStarCirc:
    def test_star_lambda(self, lam_poset):
        p = lam_poset
        a, b = p.mask_of(["q", "p"]), p.mask_of(["q", "p'"])
        assert star(p, a, b) == 0

    def test_star_v_disjoint(self, v_poset):
        p = v_poset
        assert star(p, p.mask_of(["p"]), p.mask_of(["p'"])) == 0

    def test_circ_v(self, v_poset):
        p = v_poset
        assert circ(p, p.mask_of(["p"]), p.mask_of(["p'"])) == p.full_mask

    def test_circ_lambda(self, lam_poset):
        p = lam_poset
        a, b = p.mask_of(["q", "p"]), p.mask_of(["q", "p'"])
        assert circ(p, a, b) == p.full_mask

    def test_comparable_pairs(self):
        # nested ideals: star returns the smaller, circ the larger
        for p in corpus(4):
            lat = enumerate_ideals(p)
            for a in lat.ideals:
                for b in lat.ideals:
                    if a & ~b == 0:
                        assert star(p, a, b) == a
                        assert circ(p, a, b) == b

    def test_against_set_oracle(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            for a in lat.ideals:
                for b in lat.ideals:
                    sa, sb = frozenset(p.labels_of(a)), frozenset(p.labels_of(b))
                    assert frozenset(p.labels_of(star(p, a, b))) == oracles.star_set(p, sa, sb)
                    assert frozenset(p.labels_of(circ(p, a, b))) == oracles.circ_set(p, sa, sb)

    def test_commutative_and_bounded(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            for a, b in lat.incomparable_pairs:
                s = star(p, a, b)
                c = circ(p, a, b)
                assert s == star(p, b, a)
                assert c == circ(p, b, a)
                assert s & ~(a & b) == 0  # s ⊆ a∩b
                assert (a | b) & ~c == 0  # c ⊇ a∪b

    def test_star_circ_duality(self):
        # circ in P is star in the dual, transported through complements
        for p in corpus(5):
            lat = enumerate_ideals(p)
            q = dual(p)
            full = p.full_mask

            def to_q(m):
                return q.mask_of(p.labels_of(full & ~m))

            def to_p(m):
                return full & ~p.mask_of(q.labels_of(m))

            for a, b in lat.incomparable_pairs:
                assert circ(p, a, b) == to_p(star(q, to_q(a), to_q(b)))


class TestPairsAndStructure:
    def test_chain_has_no_pairs(self):
        assert enumerate_ideals(chain(4)).incomparable_pairs == ()

    def test_v_single_pair(self, v_poset):
        lat = enumerate_ideals(v_poset)
        assert as_sets(v_poset, [m for pr in lat.incomparable_pairs for m in pr]) == [
            frozenset({"p"}),
            frozenset({"p'"}),
        ]

    def test_antichain2_single_pair(self):
        p = antichain(2)
        lat = enumerate_ideals(p)
        assert len(lat.incomparable_pairs) == 1

    def test_pairs_match_two_sided_definition(self):
        # one test per pair is enough; the definition tests both sides
        for p in corpus(6):
            lat = enumerate_ideals(p)
            ids = lat.ideals
            expected = [
                (a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if a & ~b and b & ~a
            ]
            assert list(lat.incomparable_pairs) == expected
            assert list(lat.induction_pairs) == sorted(
                lat.incomparable_pairs, key=lambda ab: induction_parameter(p, *ab)
            )

    def test_birkhoff_roundtrip(self):
        # join-irreducibles of the ideal lattice recover the poset
        for p in corpus(6):
            lat = enumerate_ideals(p)
            ji = [a for a in lat.ideals if lat.max_table[a].bit_count() == 1]
            assert len(ji) == p.n
            labels = [f"j{i}" for i in range(len(ji))]
            covers = [
                (labels[i], labels[j])
                for i, x in enumerate(ji)
                for j, y in enumerate(ji)
                if i != j and x & ~y == 0
            ]
            rebuilt = build_poset(labels, covers)
            assert (
                canonical_form(rebuilt).canonical_key == canonical_form(p).canonical_key
            )

    def test_lattice_closed_under_ops(self):
        for p in corpus(4):
            lat = enumerate_ideals(p)
            pos = lat.position
            for a in lat.ideals:
                for b in lat.ideals:
                    assert a & b in pos
                    assert a | b in pos

    def test_exports(self, v_poset):
        lat = enumerate_ideals(v_poset)
        doc = lattice_to_json(lat)
        assert doc["ideals"][0] == []
        assert doc["ideals"][-1] == ["p", "p'", "q"]
        dot = lattice_dot(lat)
        assert dot.startswith("digraph ideal_lattice {")
        assert dot.count("->") == len(lat.lattice_covers)
