"""The distributive lattice of poset ideals and its operations.

Ideals (down-closed subsets) are integer bitmasks over the poset's element
indices.  The lattice fixes a deterministic ordering of its ideals —
ascending cardinality, then ascending mask value — and every exported table
follows that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from aslattice import _kernels
from aslattice.errors import CapacityExceeded, NotAntichain
from aslattice.posets import Poset, dot_digraph, iter_bits, label_set

MAX_IDEALS = 1 << 20
MAX_RELATION_PAIRS = 1_000_000


@dataclass(frozen=True)
class IdealLattice:
    """All ideals of a poset, closed under union and intersection."""

    poset: Poset
    ideals: tuple[int, ...]

    @cached_property
    def position(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.ideals)}

    def __len__(self) -> int:
        return len(self.ideals)

    @cached_property
    def incomparable_pairs(self) -> tuple[tuple[int, int], ...]:
        """Unordered pairs of ⊆-incomparable ideals, ordered by position.
        Raises CapacityExceeded, before any pair is listed, when the L ideals
        have more than MAX_RELATION_PAIRS pairs L(L-1)/2."""
        ids = self.ideals
        pairs = len(ids) * (len(ids) - 1) // 2
        if pairs > MAX_RELATION_PAIRS:
            raise CapacityExceeded(
                f"relation table over {len(ids):,} ideals has {pairs:,} pairs, "
                f"over the bound of {MAX_RELATION_PAIRS:,}"
            )
        # a later ideal b is no smaller than a and differs from it, so it
        # never lies inside a: b & ~a is never 0 and only a & ~b is tested
        return tuple((a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if a & ~b)

    @cached_property
    def lattice_covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse diagram of the lattice: (lower, upper) mask pairs in position order.

        The lattice is graded by cardinality, so the covers of ``a`` add one
        minimal element of its complement; for one ``a`` the uppers grow with
        the added bit, so the pairs come out in position order unsorted.
        """
        return tuple(
            (a, a | 1 << i) for a in self.ideals for i in iter_bits(self.complement_min_table[a])
        )

    @cached_property
    def max_table(self) -> dict[int, int]:
        """``max_elements(a)`` for every ideal ``a``, in ideal order: ``a``
        minus its strict down-set, the elements strictly below one of its
        own.  Strict down-sets are built in ideal order: the highest-index
        element h of ``a`` is maximal in it, so ``a - h`` is an earlier
        ideal, and the strict down-set of ``a`` is that of ``a - h`` plus
        the strict predecessors of h."""
        pred = [row & ~(1 << i) for i, row in enumerate(self.poset.down)]
        below = {0: 0}  # the empty ideal comes first
        for a in self.ideals[1:]:
            h = a.bit_length() - 1
            below[a] = below[a & ~(1 << h)] | pred[h]
        return {a: a & ~s for a, s in below.items()}

    @cached_property
    def containing(self) -> dict[int, tuple[int, ...]]:
        """The ideals containing each ideal ``a``, in ideal order, ``a``
        itself first (no earlier ideal is as large): the ⊆-table of
        multichain counting and listing and of the search's upper sides."""
        ids = self.ideals
        return {a: tuple(b for b in ids[i:] if a & ~b == 0) for i, a in enumerate(ids)}

    @cached_property
    def complement_min_table(self) -> dict[int, int]:
        """``min_elements`` of the complement filter of every ideal ``a``,
        in ideal order; dual to ``max_table``.  Strict up-sets of the
        filters are built in reverse ideal order: the lowest-index element
        l of the filter is minimal in it, so ``a + l`` is a later ideal, and
        the strict up-set of the filter is that of the filter of ``a + l``
        plus the strict successors of l."""
        p = self.poset
        full = p.full_mask
        succ = [row & ~(1 << i) for i, row in enumerate(p.up)]
        above = {full: 0}  # the whole ground set is the last ideal
        for a in reversed(self.ideals[:-1]):
            low = (a + 1) & ~a  # the lowest-index element outside a
            above[a] = above[a | low] | succ[low.bit_length() - 1]
        return {a: full & ~a & ~above[a] for a in self.ideals}

    @cached_property
    def induction_pairs(self) -> tuple[tuple[int, int], ...]:
        """Incomparable pairs by nondecreasing induction parameter, ties in
        position order: the order of certificate steps and of search.  n is
        the same for every pair, so the parameter n - |a △ b| is sorted on
        as -|a △ b|."""
        return tuple(sorted(self.incomparable_pairs, key=lambda ab: -(ab[0] ^ ab[1]).bit_count()))


def is_ideal(p: Poset, mask: int) -> bool:
    for i in iter_bits(mask):
        if p.down[i] & ~mask:
            return False
    return True


def enumerate_ideals(p: Poset) -> IdealLattice:
    """Enumerate all poset ideals; raises CapacityExceeded past MAX_IDEALS."""
    try:
        masks = _kernels.enumerate_ideal_masks(list(p.down), MAX_IDEALS)
    except ValueError as exc:
        raise CapacityExceeded(str(exc)) from None
    return IdealLattice(poset=p, ideals=tuple(masks))


def induction_parameter(p: Poset, a: int, b: int) -> int:
    """Distance of an ideal pair from spanning the whole ground set:
    n - (|a ∪ b| - |a ∩ b|) = n - |a △ b|.  Zero exactly when the union is
    everything and the intersection empty."""
    return p.n - (a ^ b).bit_count()


def max_elements(p: Poset, ideal: int) -> int:
    """Maximal elements of an ideal: the antichain generating it."""
    out = 0
    for i in iter_bits(ideal):
        if p.up[i] & ideal == 1 << i:
            out |= 1 << i
    return out


def min_elements(p: Poset, filt: int) -> int:
    """Minimal elements of a filter."""
    out = 0
    for i in iter_bits(filt):
        if p.down[i] & filt == 1 << i:
            out |= 1 << i
    return out


def down_closure(p: Poset, mask: int) -> int:
    out = 0
    for i in iter_bits(mask):
        out |= p.down[i]
    return out


def up_closure(p: Poset, mask: int) -> int:
    out = 0
    for i in iter_bits(mask):
        out |= p.up[i]
    return out


def is_antichain(p: Poset, mask: int) -> bool:
    for i in iter_bits(mask):
        if (p.up[i] | p.down[i]) & mask != 1 << i:
            return False
    return True


def ideal_from_antichain(p: Poset, antichain: int) -> int:
    """Down-closure of an antichain; inverse of :func:`max_elements`."""
    if not is_antichain(p, antichain):
        raise NotAntichain(f"elements {p.labels_of(antichain)} are not pairwise incomparable")
    return down_closure(p, antichain)


def star(p: Poset, a: int, b: int) -> int:
    """The ideal generated by max(a∩b) ∩ (max a ∪ max b).

    This is the right-hand side substitute for the intersection in the
    chain-polytope relation system.
    """
    gen = max_elements(p, a & b) & (max_elements(p, a) | max_elements(p, b))
    return down_closure(p, gen)


def circ(p: Poset, a: int, b: int) -> int:
    """Complement of the filter generated by min(ā∩b̄) ∩ (min ā ∪ min b̄).

    The union substitute in the dual-chain relation system; dual to
    :func:`star` under complementation.
    """
    fa = p.full_mask & ~a
    fb = p.full_mask & ~b
    gen = min_elements(p, fa & fb) & (min_elements(p, fa) | min_elements(p, fb))
    return p.full_mask & ~up_closure(p, gen)


def lattice_to_json(lat: IdealLattice) -> dict:
    return {"ideals": [lat.poset.labels_of(a) for a in lat.ideals]}


def lattice_dot(lat: IdealLattice) -> str:
    """DOT source for the Hasse diagram of the ideal lattice."""
    name = {a: label_set(lat.poset.labels_of(a)) for a in lat.ideals}
    covers = ((name[a], name[b]) for a, b in lat.lattice_covers)
    return dot_digraph("ideal_lattice", name.values(), covers)
