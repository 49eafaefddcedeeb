"""Monomial realizations of the ideal lattice and their relation systems.

Three canonical injections of the lattice into a polynomial ring are
supported, each sending an ideal to a squarefree monomial times the grading
variable t:

* ``ORDER``      — the ideal's own indicator monomial,
* ``CHAIN``      — the indicator of its maximal-element antichain,
* ``CHAIN_DUAL`` — the indicator of the minimal elements of its complement.

Each kind determines, for every incomparable pair of ideals, a rewriting
rule (a relation) whose two sides have identical exponent vectors.  A
relation system assigns such a rule to every incomparable pair; systems are
compared by their rule tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations_with_replacement
from math import comb

from aslattice.errors import AxiomViolation, CapacityExceeded, MissingRelation, NonTermination
from aslattice.ideals import IdealLattice, circ, max_elements, min_elements, star
from aslattice.posets import Poset

Monomial = tuple[int, ...]

MAX_MULTICHAINS = 1_000_000
MAX_MULTICHAIN_ENTRIES = 4_000_000


class RealizationKind(str, Enum):
    ORDER = "order"
    CHAIN = "chain"
    CHAIN_DUAL = "chain-dual"


def realize(p: Poset, kind: RealizationKind, ideal: int) -> Monomial:
    """The generator monomial attached to an ideal under the given kind."""
    if kind is RealizationKind.ORDER:
        support = ideal
    elif kind is RealizationKind.CHAIN:
        support = max_elements(p, ideal)
    else:
        support = min_elements(p, p.full_mask & ~ideal)
    return tuple(support >> i & 1 for i in range(p.n)) + (1,)


def monomial_product(ms) -> Monomial:
    it = iter(ms)
    out = list(next(it))
    for m in it:
        for i, e in enumerate(m):
            out[i] += e
    return tuple(out)


def realization_table(lat: IdealLattice, kind: RealizationKind) -> dict[int, Monomial]:
    """``realize`` of every ideal, in ideal order, with the supports of the
    chain kinds read from the lattice's ``max_table`` and
    ``complement_min_table``."""
    if kind is RealizationKind.ORDER:
        supports = {a: a for a in lat.ideals}
    elif kind is RealizationKind.CHAIN:
        supports = lat.max_table
    else:
        supports = lat.complement_min_table
    n = lat.poset.n
    return {a: tuple(s >> i & 1 for i in range(n)) + (1,) for a, s in supports.items()}


@dataclass(frozen=True, eq=False)
class PairMap:
    """A straightening right-hand side for every incomparable ideal pair.

    Every entry ``(a, b) -> (lo, hi)`` satisfies lo ⊆ a∩b and hi ⊇ a∪b, so
    the replacement is a comparable pair sitting at least as far apart as
    the original.  Two systems are identified exactly when their tables
    coincide.
    """

    lattice: IdealLattice
    rhs: dict[tuple[int, int], tuple[int, int]] = field(repr=False)

    def __post_init__(self):
        pairs = self.lattice.incomparable_pairs
        if set(self.rhs) != set(pairs):
            raise MissingRelation("relation table does not cover the incomparable pairs exactly")
        pos = self.lattice.position
        for (a, b), (lo, hi) in self.rhs.items():
            if lo not in pos or hi not in pos:
                raise MissingRelation("relation right-hand side is not an ideal of the lattice")
            if lo & ~(a & b) or (a | b) & ~hi:
                raise MissingRelation(
                    "relation right-hand side violates the compatibility shape"
                )

    def key(self, a: int, b: int) -> tuple[int, int]:
        pos = self.lattice.position
        return (a, b) if pos[a] < pos[b] else (b, a)

    def rhs_of(self, a: int, b: int) -> tuple[int, int]:
        try:
            return self.rhs[self.key(a, b)]
        except KeyError:
            raise MissingRelation(
                f"no relation for pair {self.lattice.poset.labels_of(a)}, "
                f"{self.lattice.poset.labels_of(b)}"
            ) from None

    def entries(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Entries in the lattice's deterministic pair order."""
        return [(pair, self.rhs[pair]) for pair in self.lattice.incomparable_pairs]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairMap):
            return NotImplemented
        return self.rhs == other.rhs

    def __hash__(self):
        return hash(tuple(sorted(self.rhs.items())))

    def table_json(self) -> list[dict]:
        labs = self.lattice.poset.labels_of
        return [
            {"pair": [labs(a), labs(b)], "rhs": [labs(lo), labs(hi)]}
            for (a, b), (lo, hi) in self.entries()
        ]


def _relation_rhs(p: Poset, kind: RealizationKind, a: int, b: int) -> tuple[int, int]:
    """Right-hand side of the pair (a, b) in the system of the given kind."""
    if kind is RealizationKind.ORDER:
        return a & b, a | b
    if kind is RealizationKind.CHAIN:
        return star(p, a, b), a | b
    return a & b, circ(p, a, b)


def straightening_relations(lat: IdealLattice, kind: RealizationKind) -> PairMap:
    """The relation system realized by the given kind.  Raises
    CapacityExceeded past MAX_RELATION_PAIRS (see
    ``IdealLattice.incomparable_pairs``)."""
    p = lat.poset
    rhs = {(a, b): _relation_rhs(p, kind, a, b) for a, b in lat.incomparable_pairs}
    return PairMap(lattice=lat, rhs=rhs)


def relations_equal(lat: IdealLattice, kind_a: RealizationKind, kind_b: RealizationKind):
    """Compare two canonical systems; on inequality return the first
    differing pair with both right-hand sides.

    CHAIN deviates from ORDER on (a, b) only on the lower side, exactly
    when some maximal element of a∩b is maximal in neither a nor b (else
    star(a, b) = a∩b); CHAIN_DUAL deviates only on the upper side, by the
    complement-dual test.  Two distinct kinds therefore differ on a pair
    iff one of the deviations they involve occurs there, so the scan stops
    at the first such pair and builds right-hand sides for it alone.  The
    lattice's ``max_table`` is read only when CHAIN is compared, and its
    ``complement_min_table`` only when CHAIN_DUAL is.
    """
    kinds = {kind_a, kind_b}
    if len(kinds) == 1:
        return True, None
    mx = lat.max_table if RealizationKind.CHAIN in kinds else None
    mn = lat.complement_min_table if RealizationKind.CHAIN_DUAL in kinds else None
    for a, b in lat.incomparable_pairs:
        if (mx and mx[a & b] & ~(mx[a] | mx[b])) or (mn and mn[a | b] & ~(mn[a] | mn[b])):
            p = lat.poset
            return False, ((a, b), _relation_rhs(p, kind_a, a, b), _relation_rhs(p, kind_b, a, b))
    return True, None



def cover_witness(p: Poset):
    """A condition-(ii) witness ``(kinds, pair, rhs_a, rhs_b)`` built from
    two covers of one element, before any lattice exists, or None.

    Take the first element x with two upper covers, and its first two, y
    and z.  The ideals ↓y and ↓z are incomparable, and x is maximal in
    ↓y ∩ ↓z but in neither ↓y nor ↓z, so by the deviation test above ORDER
    and CHAIN differ on that pair.  If no element has two upper covers,
    two lower covers y and z of the first such x give P∖↑y and P∖↑z, on
    which ORDER and CHAIN_DUAL differ dually.  The pair is in lattice
    position order.  Both right-hand sides are computed by definition and
    the witness is returned only when they differ, so no verdict rests on
    the argument; None also when every element has at most one upper and
    one lower cover, which makes the poset a direct sum of chains.  The
    witness is not in general the first in pair order, which
    ``condition_ii_witnesses`` yields.
    """
    two = next((c for c in p.upper_cover if len(c) > 1), None)
    if two is not None:
        kind, pair = RealizationKind.CHAIN, [p.down[y] for y in two[:2]]
    else:
        two = next((c for c in p.lower_cover if len(c) > 1), None)
        if two is None:
            return None
        kind, pair = RealizationKind.CHAIN_DUAL, [p.full_mask & ~p.up[y] for y in two[:2]]
    a, b = sorted(pair, key=lambda m: (m.bit_count(), m))
    rhs_a = _relation_rhs(p, RealizationKind.ORDER, a, b)
    rhs_b = _relation_rhs(p, kind, a, b)
    return ((RealizationKind.ORDER, kind), (a, b), rhs_a, rhs_b) if rhs_a != rhs_b else None


_CONDITION_ORDER = (
    (RealizationKind.ORDER, RealizationKind.CHAIN),
    (RealizationKind.ORDER, RealizationKind.CHAIN_DUAL),
    (RealizationKind.CHAIN, RealizationKind.CHAIN_DUAL),
)


@dataclass(frozen=True)
class ConditionReport:
    equal: bool
    witnesses: tuple  # (kind pair, ideal pair, rhs_a, rhs_b) per failed comparison


def condition_ii_witnesses(lat: IdealLattice):
    """Lazily, per failed comparison of the canonical systems in condition
    order: (kind pair, first differing ideal pair, rhs_a, rhs_b).  Each
    comparison is one ``relations_equal`` scan, made only when the next
    witness is asked for."""
    for ka, kb in _CONDITION_ORDER:
        same, w = relations_equal(lat, ka, kb)
        if not same:
            yield ((ka, kb),) + w


def check_condition_ii(lat: IdealLattice) -> ConditionReport:
    """Do all three canonical relation systems coincide?"""
    witnesses = tuple(condition_ii_witnesses(lat))
    return ConditionReport(equal=not witnesses, witnesses=witnesses)


def rewrite_to_standard(lat: IdealLattice, factors, pm: PairMap):
    """Normalize a product of generators to a standard monomial.

    Factors are kept sorted by lattice position; each step replaces the
    lexicographically first incomparable pair by its assigned right-hand
    side.  Termination: a replacement removes two ideals and inserts one of
    strictly larger cardinality than both (the upper side contains their
    union), so the descending-sorted cardinality multiset strictly increases
    lexicographically; it ranges over a finite set, bounding the number of
    steps by the number of cardinality multisets.
    """
    pos = lat.position
    work = sorted(factors, key=pos.__getitem__)
    if not work:
        raise MissingRelation("empty product has no standard form")
    max_steps = comb(lat.poset.n + len(work), len(work)) + 1
    steps = 0
    while True:
        hit = None
        for i in range(len(work)):
            a = work[i]
            for j in range(i + 1, len(work)):
                b = work[j]
                if a & ~b and b & ~a:
                    hit = (i, j)
                    break
            if hit:
                break
        if hit is None:
            return tuple(work)
        i, j = hit
        lo, hi = pm.rhs_of(work[i], work[j])
        del work[j]
        del work[i]
        work.append(lo)
        work.append(hi)
        work.sort(key=pos.__getitem__)
        steps += 1
        if steps > max_steps:
            raise NonTermination("rewriting exceeded its step budget")


def check_multichain_entries(lat: IdealLattice, lengths: range):
    """Refuse, before any chain is listed, a caller that lists the
    multichains of every length in ``lengths``: CapacityExceeded when the
    longest has more than MAX_MULTICHAINS chains (padding with the top
    ideal maps each length one-to-one into the next, so no shorter one has
    more), else when their entries, chains times length summed over the
    lengths, pass MAX_MULTICHAIN_ENTRIES.  The counts take one pass over
    the lattice's ⊆-table per unit of length, so lengths whose entries pass
    the bound with one chain each (every lattice has one, the top ideal
    repeated) are refused first, with no pass."""
    longest = lengths[-1]
    least = (lengths[0] + longest) * len(lengths) // 2
    if least > MAX_MULTICHAIN_ENTRIES:
        raise CapacityExceeded(
            f"multichains of lengths {lengths[0]}..{longest} hold at least {least:,} "
            f"entries, one chain of each length, over the bound of {MAX_MULTICHAIN_ENTRIES:,}"
        )
    starting = dict.fromkeys(lat.ideals, 1)  # chains of the current length starting at each ideal
    counts = [1, len(starting)]  # chains of each length
    for _ in range(longest - 1):
        starting = {a: sum(starting[b] for b in up) for a, up in lat.containing.items()}
        counts.append(sum(starting.values()))
    if counts[longest] > MAX_MULTICHAINS:
        raise CapacityExceeded(
            f"{counts[longest]:,} multichains of length {longest} over {len(lat):,} ideals, "
            f"over the bound of {MAX_MULTICHAINS:,}"
        )
    entries = sum(e * counts[e] for e in lengths)
    if entries > MAX_MULTICHAIN_ENTRIES:
        raise CapacityExceeded(
            f"multichains of lengths {lengths[0]}..{longest} over {len(lat):,} ideals "
            f"hold {entries:,} entries, over the bound of {MAX_MULTICHAIN_ENTRIES:,}"
        )


def multichains(lat: IdealLattice, length: int) -> list[tuple[int, ...]]:
    """All weakly increasing ⊆-chains of the given length, as mask tuples
    ascending by lattice position, in lexicographic order of positions, in
    one walk over the lattice's ⊆-table.  Refused, before any chain is
    listed, as ``check_multichain_entries`` refuses this one length.  The
    chains of a length e below are the prefixes of these whose entries
    from position e on are the top ideal, in the same order."""
    check_multichain_entries(lat, range(length, length + 1))
    containing = lat.containing
    level = [()]
    for _ in range(length):
        level = [ch + (b,) for ch in level for b in (containing[ch[-1]] if ch else lat.ideals)]
    return level


def check_degree(max_degree: int):
    """Reject degree bounds below 2: such a check looks at no product of
    generators, so its verdict says nothing about the relations."""
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")


@dataclass(frozen=True)
class AxiomReport:
    kind: RealizationKind
    max_degree: int
    standard_monomial_counts: dict[int, int]
    products_checked: dict[int, int]


def verify_asl_axioms(lat: IdealLattice, kind: RealizationKind, max_degree: int) -> AxiomReport:
    """Bounded-degree check of the two straightening-law axioms.

    For every degree d <= max_degree this verifies that (a) distinct
    standard monomials (d-multichains) have distinct ambient monomials,
    (b) every d-fold product of generators rewrites to a standard monomial
    with the same ambient monomial, and (c) the straightened leading factor
    of an incomparable product lies below both original factors.  Raises
    AxiomViolation with the offending data, otherwise returns the counts.
    """
    check_degree(max_degree)
    check_multichain_entries(lat, range(1, max_degree + 1))
    table = realization_table(lat, kind)
    pm = straightening_relations(lat, kind)
    labs = lat.poset.labels_of
    prod_counts: dict[int, int] = {}

    levels = [multichains(lat, max_degree)]  # then lengths d-1..1, as prefixes padded by the top
    for e in range(max_degree - 1, 0, -1):
        levels.insert(0, [ch[:e] for ch in levels[0] if ch[e] == lat.ideals[-1]])
    std_counts = {d: len(chains) for d, chains in enumerate(levels, 1)}
    for chains in levels:
        seen: dict[Monomial, tuple[int, ...]] = {}
        for ch in chains:
            m = monomial_product(table[a] for a in ch)
            other = seen.get(m)
            if other is not None:
                raise AxiomViolation(
                    f"{kind.value}: standard monomials {[labs(a) for a in other]} and "
                    f"{[labs(a) for a in ch]} share the ambient monomial"
                )
            seen[m] = ch

    for d in range(2, max_degree + 1):
        count = 0
        for combo in combinations_with_replacement(lat.ideals, d):
            std = rewrite_to_standard(lat, combo, pm)
            if monomial_product(table[a] for a in combo) != monomial_product(
                table[a] for a in std
            ):
                raise AxiomViolation(
                    f"{kind.value}: product {[labs(a) for a in combo]} rewrites to "
                    f"{[labs(a) for a in std]} with a different ambient monomial"
                )
            count += 1
        prod_counts[d] = count

    for a, b in lat.incomparable_pairs:
        first = rewrite_to_standard(lat, (a, b), pm)[0]
        if first & ~a or first & ~b:
            raise AxiomViolation(
                f"{kind.value}: straightening of {labs(a)}, {labs(b)} leads with "
                f"{labs(first)}, which is not below both factors"
            )

    return AxiomReport(
        kind=kind,
        max_degree=max_degree,
        standard_monomial_counts=std_counts,
        products_checked=prod_counts,
    )
