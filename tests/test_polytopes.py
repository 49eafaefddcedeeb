import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aslattice import (
    DimensionMismatch,
    chain_polytope_vertices,
    enumerate_ideals,
    maximal_chains,
    order_polytope_vertices,
    point_in_chain_polytope,
    point_in_order_polytope,
)
from aslattice.polytopes import format_point
from conftest import antichain, chain, corpus, ladder


def F(*xs):
    return tuple(Fraction(x) for x in xs)


class TestVertices:
    def test_order_chain2(self):
        p = chain(2)
        lat = enumerate_ideals(p)
        assert order_polytope_vertices(lat) == [F(0, 0), F(1, 0), F(1, 1)]

    def test_order_antichain2_square(self):
        lat = enumerate_ideals(antichain(2))
        assert set(order_polytope_vertices(lat)) == {F(0, 0), F(1, 0), F(0, 1), F(1, 1)}

    def test_order_v(self, v_poset):
        lat = enumerate_ideals(v_poset)
        assert len(order_polytope_vertices(lat)) == 5

    def test_chain_polytope_chain2(self):
        lat = enumerate_ideals(chain(2))
        assert set(chain_polytope_vertices(lat)) == {F(0, 0), F(1, 0), F(0, 1)}

    def test_counts_match_lattice(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            assert len(order_polytope_vertices(lat)) == len(lat)
            assert len(chain_polytope_vertices(lat)) == len(lat)
            assert len(set(chain_polytope_vertices(lat))) == len(lat)


class TestMembership:
    def test_order_chain2(self):
        p = chain(2)
        assert point_in_order_polytope(p, F(1, 0))
        assert not point_in_order_polytope(p, F(0, 1))

    def test_origin_everywhere(self):
        for p in corpus(4):
            origin = tuple(Fraction(0) for _ in range(p.n))
            assert point_in_order_polytope(p, origin)
            assert point_in_chain_polytope(p, origin)

    def test_box_constraint(self):
        p = chain(2)
        assert not point_in_order_polytope(p, (Fraction(3, 2), Fraction(0)))

    def test_chain_polytope_v(self, v_poset):
        p = v_poset
        half = Fraction(1, 2)
        assert point_in_chain_polytope(p, (half, half, Fraction(0)))
        assert not point_in_chain_polytope(p, (half, Fraction(0), Fraction(3, 4)))

    def test_negative_coordinate(self, v_poset):
        assert not point_in_chain_polytope(v_poset, (Fraction(-1, 2), Fraction(0), Fraction(0)))

    def test_boundary_is_inside(self, v_poset):
        # both chain sums exactly 1 must pass with exact arithmetic
        p = v_poset
        assert point_in_chain_polytope(p, (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)))
        assert not point_in_chain_polytope(p, (Fraction(1, 3), Fraction(1, 3), Fraction(243, 364)))

    def test_dimension_mismatch(self, v_poset):
        with pytest.raises(DimensionMismatch):
            point_in_order_polytope(v_poset, F(0, 0))
        with pytest.raises(DimensionMismatch):
            point_in_chain_polytope(v_poset, F(0, 0, 0, 0))

    def test_vertices_satisfy_membership(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            for v in order_polytope_vertices(lat):
                assert point_in_order_polytope(p, v)
            for v in chain_polytope_vertices(lat):
                assert point_in_chain_polytope(p, v)

    def test_chain_membership_matches_chain_enumeration(self):
        # the heaviest-chain pass against a sum over every listed chain,
        # with points drawn near the facets sum == 1
        rng = random.Random(1986)
        for p in list(corpus(5)) + [ladder(3)]:
            chains = maximal_chains(p)
            for _ in range(30):
                x = [Fraction(rng.randint(0, 4), rng.randint(2, 6)) for _ in range(p.n)]
                if rng.random() < 0.2:
                    x[rng.randrange(p.n)] = Fraction(-1, 7)
                want = min(x) >= 0 and all(sum(x[i] for i in ch) <= 1 for ch in chains)
                assert point_in_chain_polytope(p, x) == want, (p, x)

    def test_ladder_membership_without_listing_chains(self):
        # 2**32 maximal chains, each of 32 points
        p = ladder(32)
        x = [Fraction(1, 32)] * p.n
        assert point_in_chain_polytope(p, x)
        x[p.index_of("b17")] = Fraction(2, 32)
        assert not point_in_chain_polytope(p, x)

    def test_midpoint_convexity(self):
        for p in corpus(4):
            lat = enumerate_ideals(p)
            verts = order_polytope_vertices(lat)
            for i in range(len(verts)):
                for j in range(i + 1, len(verts)):
                    mid = tuple((a + b) / 2 for a, b in zip(verts[i], verts[j]))
                    assert point_in_order_polytope(p, mid)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-1, max_value=2, max_denominator=12),
            min_size=3,
            max_size=3,
        )
    )
    def test_antichain_polytopes_coincide_with_cube(self, coords):
        # for an antichain both polytopes are the unit cube, inside and out
        p = antichain(3)
        x = tuple(coords)
        in_cube = all(0 <= c <= 1 for c in x)
        assert point_in_order_polytope(p, x) == in_cube
        assert point_in_chain_polytope(p, x) == in_cube


class TestParsing:
    def test_format_roundtrip(self):
        pt = (Fraction(1), Fraction(0), Fraction(1, 2))
        assert tuple(Fraction(c) for c in format_point(pt)) == pt
