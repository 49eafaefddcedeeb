"""Vertex enumeration and exact membership tests for the two 0/1 polytopes
attached to a poset.

All arithmetic is exact rational (``fractions.Fraction``); boundary cases
such as a chain sum equal to 1 are decided without rounding.
"""

from __future__ import annotations

from fractions import Fraction

from aslattice.errors import DimensionMismatch
from aslattice.ideals import IdealLattice
from aslattice.posets import Poset

Point = tuple[Fraction, ...]


def _indicator(n: int, mask: int) -> Point:
    return tuple(Fraction(1) if mask >> i & 1 else Fraction(0) for i in range(n))


def order_polytope_vertices(lat: IdealLattice) -> list[Point]:
    """One 0/1 vertex per ideal (the empty ideal gives the origin), in the
    lattice's deterministic ideal order."""
    n = lat.poset.n
    return [_indicator(n, a) for a in lat.ideals]


def chain_polytope_vertices(lat: IdealLattice) -> list[Point]:
    """One 0/1 vertex per antichain, emitted as the maximal-element
    antichain of each ideal so the order matches the ideal order."""
    n = lat.poset.n
    return [_indicator(n, lat.max_table[a]) for a in lat.ideals]


def _check_dim(p: Poset, x) -> Point:
    if len(x) != p.n:
        raise DimensionMismatch(f"point has {len(x)} coordinates, poset has {p.n} elements")
    return tuple(Fraction(c) for c in x)


def point_in_order_polytope(p: Poset, x) -> bool:
    """0 <= x_i <= 1 everywhere and x_i >= x_j whenever p_i <= p_j."""
    x = _check_dim(p, x)
    if any(c < 0 or c > 1 for c in x):
        return False
    for i in range(p.n):
        row = p.up[i]
        for j in range(p.n):
            if row >> j & 1 and x[i] < x[j]:
                return False
    return True


def point_in_chain_polytope(p: Poset, x) -> bool:
    """Nonnegative coordinates with sum at most 1 along every maximal chain
    (Stanley, "Two poset polytopes", 1986).  With x >= 0 that is the sum
    along a heaviest chain, found by a pass over the covers in index order
    (a linear extension) rather than by listing the chains."""
    x = _check_dim(p, x)
    if any(c < 0 for c in x):
        return False
    heaviest: list[Fraction] = []  # heaviest chain ending at each element
    for j in range(p.n):
        heaviest.append(x[j] + max((heaviest[i] for i in p.lower_cover[j]), default=0))
    return max(heaviest, default=0) <= 1


def format_point(x: Point) -> list[str]:
    return [str(c) for c in x]
