"""Deciding uniqueness of a compatible relation system on an ideal lattice.

Two complementary mechanisms live here:

* an exhaustive search over all compatible relation systems, filtered by a
  bounded-degree realizability test (an exact integer null-space push, the
  one test of single systems too, whose basis also gives the exponents of
  a realization), and

* for posets whose components are all chains, a replayable certificate that
  the canonical system is the only one: for every incomparable ideal pair
  it refutes every non-canonical right-hand side by exhibiting a collision
  of two distinct standard monomials, derived from the hypothetical
  relation plus an already-certified relation of a closer-to-spanning pair.

Certificate conventions.  Each refutation works on one "side": side
``join`` refutes upper alternatives (ideals strictly above the pair's
union) directly in the ideal lattice; side ``meet`` refutes lower
alternatives (ideals strictly below the intersection) transported to the
lattice of complements — all of its recorded sets are therefore filters of
the poset, i.e. ideals of the dual order, and the element ``q`` is adjoined
downward.  Within a refutation, (base, ext) name the pair with roles
possibly swapped so the covered element ``p`` lies in ext; ``alpha1`` is
ext with ``q`` adjoined; ``collision`` holds the two multichains whose
products coincide under the hypothetical system.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations, compress, starmap
from math import gcd
from operator import add, eq, itemgetter
from typing import NamedTuple

from aslattice.errors import (
    AslatticeError,
    BudgetExceeded,
    CapacityExceeded,
    InvalidCertificate,
    PreconditionViolated,
)
from aslattice.ideals import IdealLattice, enumerate_ideals, induction_parameter
from aslattice.posets import Poset, connected_components, is_direct_sum_of_chains, poset_to_json
from aslattice.straightening import (
    Monomial,
    PairMap,
    RealizationKind,
    check_degree,
    check_multichain_entries,
    condition_ii_witnesses,
    monomial_product,
    multichains,
    straightening_relations,
)

DEFAULT_MAX_DEGREE = 3
MAX_SEARCH_TESTS = 500_000
MAX_SEARCH_IDEALS = 125


@dataclass(frozen=True)
class MonomialRealization:
    """Exponent vectors (x-variables then t) realizing a relation system."""

    lattice: IdealLattice
    num_vars: int
    exponents: dict[int, Monomial]

    def satisfies(self, pm: PairMap) -> bool:
        e = self.exponents
        return all(
            monomial_product((e[a], e[b])) == monomial_product((e[lo], e[hi]))
            for (a, b), (lo, hi) in pm.rhs.items()
        )


def is_realizable(
    lat: IdealLattice, pm: PairMap, max_degree: int = DEFAULT_MAX_DEGREE
) -> MonomialRealization | None:
    """Monomial realization of a relation system, or None.

    None exactly when the system's relations merge two multichains of
    degree at most ``max_degree``, decided by the exact test that search
    uses (see ``_collision_root``); CapacityExceeded, before any relation
    is read, past MAX_SEARCH_IDEALS ideals or the multichain bounds.  Each
    pair row is pushed once into the integer null space (``_null_push``);
    the same basis gives the verdict and the exponents, each vector
    shifted to a nonnegative one.
    Any returned realization genuinely satisfies the constraints and the
    bounded checks; a None is conclusive only for the bounded degree
    tested.
    """
    chains, gathers, basis, w = _collision_root(lat, max_degree)
    pos = lat.position
    for (a, b), (lo, hi) in pm.entries():
        pushed = _null_push(basis, w, (pos[a], pos[b], pos[lo], pos[hi]))
        if pushed is not None:
            basis, w = pushed
    if _collides(chains, gathers, basis, w):
        return None
    kernel = [_nonnegative(k) for k in basis]
    vecs = [tuple(k[i] for k in kernel) + (1,) for i in range(len(lat))]
    exps = dict(zip(lat.ideals, vecs))
    real = MonomialRealization(lattice=lat, num_vars=len(kernel), exponents=exps)
    # Soundness gate: re-verify the constraints and the bounded basis
    # property directly on the produced vectors, over the chain lists of
    # the root (degree 1 is the ideals themselves).
    if not real.satisfies(pm):
        raise AssertionError("kernel basis violates the relation constraints")
    produced = {}
    for degree_chains in [[(i,) for i in range(len(lat))], *chains]:
        for ch in degree_chains:
            s = monomial_product(vecs[i] for i in ch)
            if s in produced:
                raise AssertionError("kernel signature check missed a collision")
            produced[s] = ch
    return real


def _candidate_rhs(lat: IdealLattice, a: int, b: int) -> list[tuple[int, int]]:
    """All compatible right-hand sides for a pair, canonical one first."""
    los = [m for m in reversed(lat.ideals) if m & ~(a & b) == 0]
    return [(lo, hi) for hi in lat.containing[a | b] for lo in los]


def _collision_root(lat: IdealLattice, max_degree: int):
    """Root state ``(chains, gathers, basis, w)`` of the exact test of
    whether relations merge two standard monomials, shared by search and
    is_realizable.

    Two multichains merge when their difference lies in the span of the
    pair rows (+1 at a and b, -1 at lo and hi).  Pair rows sum to zero, so
    only chains of one degree can merge, and padding both with the top
    ideal lifts a merge at degree e < d = ``max_degree`` to degree d.  So
    some degree e in 2..d has a merge exactly when degree d has one, and
    ``_collides`` tries the degrees in ascending order.  ``chains[e - 2]``
    lists the degree-e chains as position tuples, and ``gathers[e - 2]``
    concatenates their entries of a vector.  Before any is listed,
    ``check_multichain_entries`` refuses a degree d past MAX_MULTICHAINS
    chains or degrees 2..d past MAX_MULTICHAIN_ENTRIES entries.  Then
    ``multichains`` lists degree d, and degree e is the prefixes of its
    chains whose entries from position e on are the top ideal.

    Membership in the span is orthogonality to its integer null space,
    which starts as the identity ``basis``.  The hash vector ``w`` in it
    starts as the Park-Miller sequence and decides speed only, as
    ``_collides`` confirms every duplicate hash.  Lattices of more than
    MAX_SEARCH_IDEALS ideals raise CapacityExceeded.
    """
    check_degree(max_degree)
    ncols = len(lat)
    if ncols > MAX_SEARCH_IDEALS:
        raise CapacityExceeded(
            f"lattice has {ncols} ideals, over the search bound of {MAX_SEARCH_IDEALS}"
        )
    check_multichain_entries(lat, range(2, max_degree + 1))
    pos = lat.position
    chains = [[tuple(pos[m] for m in ch) for ch in multichains(lat, max_degree)]]
    for e in range(max_degree - 1, 1, -1):  # position ncols - 1 is the top ideal's
        chains.insert(0, [ch[:e] for ch in chains[0] if ch[e] == ncols - 1])
    gathers = [itemgetter(*(i for ch in cs for i in ch)) for cs in chains]
    identity = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    return chains, gathers, identity, [pow(16807, j + 1, (1 << 31) - 1) for j in range(ncols)]


def _null_push(basis, w, cols):
    """Integer null space after one more pair row (+1 at cols[0:2], -1 at
    cols[2:4]), or None when the row is orthogonal to the basis, i.e.
    dependent.  The first basis vector k0 not orthogonal to the row,
    sign-normalized so d0 = k0·row > 0, is dropped; every later vector k
    and ``w`` become d0·k - (k·row)·k0 reduced by its gcd.  The dropped
    columns are the pivots of the row echelon, and every vector stays
    primitive, positive at its own free column and zero at the other free
    columns: it is the lcm-scaled back-substitution of that column."""
    a, b, lo, hi = cols
    for i, k0 in enumerate(basis):
        d0 = k0[a] + k0[b] - k0[lo] - k0[hi]
        if d0:
            break
    else:
        return None
    if d0 < 0:
        d0, k0 = -d0, [-x for x in k0]
    out = basis[:i]
    for k in basis[i + 1:] + [w]:
        t = k[a] + k[b] - k[lo] - k[hi]
        if t:
            k = [d0 * x - t * y for x, y in zip(k, k0)]
            g = gcd(*k)
            if g > 1:
                k = [x // g for x in k]
        out.append(k)
    return out[:-1], out[-1]


def _nonnegative(k: list[int]) -> list[int]:
    """A null-space vector shifted by its minimum when negative (the
    all-ones vector solves every pair row) and reduced by its gcd."""
    low = min(k)
    if low >= 0:
        return k
    k = [x - low for x in k]
    g = gcd(*k)
    return [x // g for x in k]


def _collides(chains, gathers, basis, w) -> bool:
    """Whether two multichains of one degree differ by a vector orthogonal
    to the null space, trying the degrees of ``chains`` (position tuples,
    one list per degree, ascending) in order and stopping at the first
    merge; see ``_collision_root`` for why a merge at a lower degree
    decides the top one.  Merging chains have equal hashes under ``w``, a
    vector of that space; a duplicate hash counts only once confirmed on
    every basis vector.  ``gathers`` concatenate each degree's entries of
    a vector."""
    for degree_chains, gather in zip(chains, gathers):
        vals, d = gather(w), len(degree_chains[0])
        sums = vals[0::d]
        for t in range(1, d):
            sums = map(add, sums, vals[t::d])
        hashes = list(sums)
        if len(set(hashes)) == len(hashes):
            continue
        seen: dict[int, list[tuple[int, ...]]] = {}
        for ch, h in zip(degree_chains, hashes):
            for other in seen.setdefault(h, []):
                if all(sum([k[i] for i in ch]) == sum([k[i] for i in other]) for k in basis):
                    return True
            seen[h].append(ch)
    return False


def _degree_two_filter(gather, basis, w):
    """The degree-2 test ``merges(cols)`` of one search node: whether the
    pair row ``cols``, pushed onto the node's null space ``basis``, merges
    two degree-2 multichains, the verdict of ``_collides`` at degree 2 on
    ``_null_push``'s result (``gather`` concatenates the degree-2 entries of
    a vector, as in ``_collides``).  No child basis or vector is built.

    S_k lists the chains' sums of a vector k.  A row's k0 is the first
    basis vector not orthogonal to it, d0 = k0·row and t_k = k·row.
    ``_null_push`` keeps the vectors before k0, drops k0 and maps every
    later k, and ``w``, to d0·k - t_k·k0 up to its gcd and sign, which make
    and break no equality.  So the child's hashes are d0·S_w - t_w·S_k0,
    and two chains x, y merge exactly when S_k[x] = S_k[y] for every k
    before k0 and d0·(S_k[x] - S_k[y]) = t_k·(S_k0[x] - S_k0[y]) for every
    k after it.  Every pair of chains with equal hashes is tried, as in
    ``_collides``.

    What the node's tests share is computed once: S_w and its buckets of
    equal sums at once, S_k for each k when a test first needs it.  A
    chain with S_k0 = 0 keeps the hash d0·S_w, so a test computes only the
    hashes of the others and looks them up among the buckets."""

    def chain_sums(k):
        vals = gather(k)
        return list(map(add, vals[0::2], vals[1::2]))

    sums_w = chain_sums(w)
    by_sum: dict[int, list[int]] = {}
    for x, s in enumerate(sums_w):
        by_sum.setdefault(s, []).append(x)
    twins = [xs for xs in by_sum.values() if len(xs) > 1]
    sums = [None] * len(basis)
    moved = [None] * len(basis)  # the chains with S_k nonzero: indices, S_w, S_k

    def sums_of(j):
        s = sums[j]
        if s is None:
            s = sums[j] = chain_sums(basis[j])
        return s

    def moved_of(j):
        m = moved[j]
        if m is None:
            s = sums_of(j)
            m = moved[j] = (
                list(compress(range(len(s)), s)),
                list(compress(sums_w, s)),
                list(filter(None, s)),
            )
        return m

    def merges(cols) -> bool:
        a, b, lo, hi = cols
        for i, k0 in enumerate(basis):
            d0 = k0[a] + k0[b] - k0[lo] - k0[hi]
            if d0:
                break
        else:
            return False  # a dependent row keeps the span; search's spans merge nothing
        t = w[a] + w[b] - w[lo] - w[hi]
        ys, ys_w, ys_k0 = moved_of(i)
        e, u = (d0, t) if d0 > 0 else (-d0, -t)  # the hashes up to their sign
        if e == 1:  # nearly every test: the kept hashes are S_w itself
            hashes = [sw - u * sk for sw, sk in zip(ys_w, ys_k0)]
            kept = by_sum
        else:
            hashes = [e * sw - u * sk for sw, sk in zip(ys_w, ys_k0)]
            kept = {e * sw: xs for sw, xs in by_sum.items()}
        if not twins and kept.keys().isdisjoint(hashes) and len(set(hashes)) == len(hashes):
            return False
        s0 = sums_of(i)
        before = [sums_of(j) for j in range(i)]
        after = [
            (k[a] + k[b] - k[lo] - k[hi], sums_of(j))
            for j, k in enumerate(basis[i + 1:], i + 1)
        ]

        def merged(x, y):
            return all(s[x] == s[y] for s in before) and all(
                d0 * (s[x] - s[y]) == tk * (s0[x] - s0[y]) for tk, s in after
            )

        for xs in twins:
            still = [x for x in xs if not s0[x]]
            if any(merged(x, y) for x, y in combinations(still, 2)):
                return True
        seen: dict[int, list[int]] = {}
        for y, h in zip(ys, hashes):
            for x in kept.get(h, ()):
                if not s0[x] and merged(x, y):
                    return True
            for x in seen.setdefault(h, []):
                if merged(x, y):
                    return True
            seen[h].append(y)
        return False

    return merges


def search_compatible_asls(
    lat: IdealLattice, max_degree: int = DEFAULT_MAX_DEGREE
) -> list[PairMap]:
    """All realizable compatible relation systems on the lattice.

    Forward checking with the fail-first rule over per-pair right-hand-side
    choices.  Every unassigned pair keeps a live list: its candidates whose
    row, pushed onto the current constraints, merges no two multichains of
    degree 2.  Each node branches on the unassigned pair with the fewest
    live candidates, ties going to the earlier pair in induction order.  A
    candidate whose row is dependent leaves the constraints as they are,
    and so every other live list.  Any other candidate is first tested in
    full, at the degrees 3..``max_degree``, and refused if its row merges
    two multichains there; if kept, it refilters every other unassigned
    list under the enlarged constraints, and the branch is cut as soon as
    a list runs empty.  Nodes wait on an explicit stack, so the call depth
    does not grow with the number of pairs.

    The lists are filtered at degree 2 only because a merge at degree 2
    pads with the top ideal to one at every higher degree (see
    ``_collision_root``), so the relaxed filter drops no candidate that
    the full test would keep, and nearly every merge the full test finds
    is already one at degree 2.  Sound and exhaustive for the bounded
    degree: adding rows only enlarges their span, so a candidate pruned at
    a node stays pruned below it, and a system whose rows merge nothing
    loses no candidate on its path.  A branching candidate passed degree 2
    under the node's own constraints when its list was filtered, and
    passes the higher degrees at assignment, so each leaf is a system that
    merges nothing at any degree up to ``max_degree``.  The test is exact,
    and leaves are sorted, so the systems and their order are those of the
    full filter.  Each node's filter shares its chain sums among its
    tests, and confirms a repeated hash from them without building the
    child's basis (``_degree_two_filter``).

    The root's lists are the unfiltered candidate lists, and the first
    assigned row is not tested, because one row alone merges nothing.  A
    candidate of the pair ``(a, b)`` is ``(lo, hi)`` with ``lo`` inside
    ``a & b`` and ``hi`` holding ``a | b``, so its row is
    ``e_a + e_b - e_lo - e_hi`` at four distinct ideals.  Two multichains
    merge under that row alone only if they differ by a nonzero integer
    multiple of it, and then one of them holds both ``a`` and ``b``, which
    are incomparable.  Every later row is tested with all the rows before
    it, so the first pair's row is tested too.

    Results are ordered by their candidate indices (see ``_candidate_rhs``)
    read in induction order, lexicographically: the order of a depth-first
    search over the pairs in induction order.  MAX_SEARCH_TESTS bounds the
    push-and-collide tests, those of the filters and those at assignment;
    past it BudgetExceeded is raised.  A finished search logs one DEBUG
    record on the ``aslattice`` logger: its pairs, nodes (each taken from
    the stack), tests, candidates refused at assignment and systems.
    """
    import logging  # here, not at the top: it adds about 5 ms to importing the package

    chains, gathers, identity, hash_w = _collision_root(lat, max_degree)
    pos = lat.position
    pairs = lat.induction_pairs
    cands = [_candidate_rhs(lat, a, b) for a, b in pairs]
    rows = [
        [(pos[a], pos[b], pos[lo], pos[hi]) for lo, hi in cs] for (a, b), cs in zip(pairs, cands)
    ]
    upper = (chains[1:], gathers[1:])  # degrees 3..d, empty at degree 2
    tests = nodes = refused = 0

    def count_tests(n: int):
        nonlocal tests
        tests += n
        if tests > MAX_SEARCH_TESTS:
            raise BudgetExceeded(
                f"search exceeded {MAX_SEARCH_TESTS:,} push-and-collide tests; raise the budget"
            )

    def narrow(lists: dict[int, list[int]], basis, w) -> dict[int, list[int]] | None:
        """Each pair's live list under the degree-2 test, or None once one is empty."""
        merges = _degree_two_filter(gathers[0], basis, w)
        out = {}
        for i, live in lists.items():
            count_tests(len(live))  # every candidate of a list is tested
            kept = [c for c in live if not merges(rows[i][c])]
            if not kept:
                return None
            out[i] = kept
        return out

    leaves: list[tuple[int, ...]] = []
    root = {i: list(range(len(cs))) for i, cs in enumerate(cands)}
    # (live lists, basis, w, chosen): chosen maps each assigned pair to its candidate
    stack = [(root, identity, hash_w, {})]
    while stack:
        lists, basis, w, chosen = stack.pop()
        nodes += 1
        if not lists:
            leaves.append(tuple(chosen[i] for i in range(len(pairs))))
            continue
        i = min(lists, key=lambda j: (len(lists[j]), j))
        rest = {j: live for j, live in lists.items() if j != i}
        for c in lists[i]:
            pushed = _null_push(basis, w, rows[i][c])
            if pushed is None:
                stack.append((rest, basis, w, {**chosen, i: c}))
                continue
            if upper[0] and chosen:  # a first row alone merges nothing
                count_tests(1)
                if _collides(*upper, *pushed):
                    refused += 1
                    continue
            narrowed = narrow(rest, *pushed)
            if narrowed is not None:
                stack.append((narrowed, *pushed, {**chosen, i: c}))
    leaves.sort()
    logging.getLogger("aslattice").debug(
        "search: %d pairs, %d nodes, %d tests, %d refused at assignment, %d systems",
        len(pairs), nodes, tests, refused, len(leaves),
    )
    return [
        PairMap(lattice=lat, rhs={pair: cs[c] for pair, cs, c in zip(pairs, cands, leaf)})
        for leaf in leaves
    ]


# ---------------------------------------------------------------------------
# uniqueness verdicts


@dataclass(frozen=True)
class UniquenessResult:
    unique: bool
    certificate: "UniquenessCertificate | None" = None
    witness_kinds: tuple[RealizationKind, RealizationKind] | None = None
    witness_pair: tuple[int, int] | None = None
    witness_rhs: tuple[tuple[int, int], tuple[int, int]] | None = None


def check_unique(lat: IdealLattice) -> UniquenessResult:
    """UNIQUE with a replayable certificate when the poset is a direct sum
    of chains; otherwise NOT_UNIQUE with the first differing pair of
    canonical relation systems as witness."""
    if is_direct_sum_of_chains(lat.poset):
        return UniquenessResult(unique=True, certificate=uniqueness_certificate(lat))
    witness = next(condition_ii_witnesses(lat), None)
    if witness is None:
        raise AssertionError("canonical systems coincide on a poset that is not a sum of chains")
    return not_unique(witness)


def not_unique(witness) -> UniquenessResult:
    """The NOT_UNIQUE verdict of a poset that is not a sum of chains, from
    the first condition-(ii) witness ``(kinds, pair, rhs_a, rhs_b)`` of its
    lattice (see ``condition_ii_witnesses``)."""
    kinds, pair, ra, rb = witness
    return UniquenessResult(
        unique=False,
        witness_kinds=kinds,
        witness_pair=pair,
        witness_rhs=(ra, rb),
    )


# ---------------------------------------------------------------------------
# certificates


# The certificate records are named tuples: immutable, compared by value,
# and several times cheaper to create than frozen dataclasses, which
# matters at about 10^5 refutations per certificate.


class Refutation(NamedTuple):
    side: str  # "join" or "meet"
    alternative: int
    swapped: bool
    p: int | None
    q: int
    alpha1: int
    prior_pair: tuple[int, int]
    collision: tuple[tuple[int, int, int], tuple[int, int, int]]


class CertificateStep(NamedTuple):
    pair: tuple[int, int]
    k: int
    rhs: tuple[int, int]
    refutations: tuple[Refutation, ...]


@dataclass(frozen=True)
class UniquenessCertificate:
    """A certificate's poset and steps.  A parsed certificate holds its
    steps as a tuple, or, parsed from an iterator, as an iterator that
    parses each when it is read; a built one builds them when they are
    read."""

    poset: Poset
    steps: Iterable[CertificateStep]


class _Side:
    """Primal or complement view used when building and replaying
    refutations; the complement view works with filters under the reversed
    order, so the same upper-alternative argument covers lower ones.  All
    per-set data comes from the lattice's tables: a filter's side-maximal
    elements are its minimal ones, the complement-minimum of its ideal.
    Each set of group checks reads a union's alternatives, with their
    witnesses, once, into the union's plan (``_union_plan``)."""

    def __init__(self, lat: IdealLattice, dual: bool):
        p = lat.poset
        full = p.full_mask
        # Side sets and ideals map to each other by XOR with ``flip``: the
        # complement on the meet side, the identity on the join side.
        self.flip = full if dual else 0
        if dual:
            self._maxels = {full & ~a: m for a, m in lat.complement_min_table.items()}
            # Complementing reverses both the cardinality and, within one
            # cardinality, the mask value, so this is ideal order again.
            masks = [full & ~a for a in reversed(lat.ideals)]
            covers, below = p.lower_cover, p.up
        else:
            self._maxels = lat.max_table
            masks = list(lat.ideals)
            covers, below = p.upper_cover, p.down
        self.ideals = masks
        self.position = {m: i for i, m in enumerate(masks)}
        self.name = "meet" if dual else "join"
        # side-upper covers of each element, and the side-minimal elements
        self.cover_mask = tuple(sum(1 << y for y in ys) for ys in covers)
        self.minimal_mask = sum(1 << x for x in range(p.n) if below[x] == 1 << x)

    def maxels(self, m: int) -> int:
        """Side-maximal elements of a closed set."""
        return self._maxels[m]

    def alternatives(self, m: int) -> list[tuple[int, tuple[int | None, int] | None]]:
        """``(alternative, _witness)`` for each closed set strictly
        containing ``m``, in side order: the alternatives to a pair whose
        union is ``m``."""
        return [(x, _witness(self, m, x)) for x in self.ideals if m & ~x == 0 and x != m]


def _witness(side: _Side, j: int, alt: int) -> tuple[int | None, int] | None:
    """The deterministic witness choice for one alternative to a pair with
    union ``j``: the covered element p (largest index in the side-maximal
    set of the union that has an upper cover inside the alternative) and the
    adjoined element q (its largest such cover).  When no covered element
    exists every usable q is side-minimal; the smallest-index one is
    adjoined and p is None.  None when no element is usable.

    The pair (base, ext) then puts p in ext: ext is the second component
    unless only the first holds p (``swapped``), and without p it is the
    second component."""
    outside = alt & ~j
    top = side.maxels(j)
    while top:
        x = top.bit_length() - 1
        top ^= 1 << x
        hit = side.cover_mask[x] & outside
        if hit:
            return x, hit.bit_length() - 1
    usable = outside & side.minimal_mask
    if not usable:
        return None
    return None, (usable & -usable).bit_length() - 1


MAX_CERTIFICATE_REFUTATIONS = 500_000


def certificate_size(p: Poset) -> tuple[int, int]:
    """(steps, refutations) of the certificate of a direct sum of chains,
    from the chain lengths alone, before any certificate work.

    The lattice is the product of chains [0, c_i], an ideal a the vector of
    its coordinates a_i.  A step (a, b) refutes prod(c_i - max(a_i, b_i) + 1)
    - 1 alternatives on the join side and prod(min(a_i, b_i) + 1) - 1 on the
    meet side.  A product summed over all ordered pairs, over pairs with
    a <= b or over pairs with a = b factorizes into per-chain sums, and the
    incomparable ordered pairs are all - 2·(a <= b) + (a = b); each
    unordered pair counts twice.
    """
    if not is_direct_sum_of_chains(p):
        raise PreconditionViolated("certificate exists only for direct sums of chains")
    lengths = [len(comp) for comp in connected_components(p)]

    def over_incomparable(weight) -> int:
        total = below = equal = 1
        for c in lengths:
            r = range(c + 1)
            total *= sum(weight(c, x, y) for x in r for y in r)
            below *= sum(weight(c, x, y) for x in r for y in r if x <= y)
            equal *= sum(weight(c, x, x) for x in r)
        return total - 2 * below + equal

    pairs = over_incomparable(lambda c, x, y: 1)
    join_alts = over_incomparable(lambda c, x, y: c - max(x, y) + 1)
    meet_alts = over_incomparable(lambda c, x, y: min(x, y) + 1)
    return pairs // 2, (join_alts + meet_alts - 2 * pairs) // 2


def uniqueness_certificate(lat: IdealLattice) -> UniquenessCertificate:
    """Certificate that the canonical system is the only compatible one.

    Requires every component of the poset to be a chain.  Steps run over
    the incomparable ideal pairs in nondecreasing order of the induction
    parameter; each step refutes every upper alternative on the join side
    and every lower alternative transported to the meet side.  Pairs whose
    parameter is zero admit no alternatives, so they carry no refutations.
    Raises CapacityExceeded, before building anything, when the certificate
    would hold more than MAX_CERTIFICATE_REFUTATIONS refutations.

    The steps are built each time they are read (see ``_Steps``), so a
    reader that streams them, such as replay, never holds the whole
    certificate; ``tuple(cert.steps)`` keeps them.  A step's refutations
    are the records replay's own checks expect.  ``certificate_to_json``
    writes a built certificate, and ``validate_certificate`` replays one,
    without building its steps.
    """
    p = lat.poset
    _, size = certificate_size(p)
    if size > MAX_CERTIFICATE_REFUTATIONS:
        raise CapacityExceeded(
            f"uniqueness certificate would hold {size:,} refutations, "
            f"over the budget of {MAX_CERTIFICATE_REFUTATIONS:,}"
        )
    canonical = straightening_relations(lat, RealizationKind.ORDER)  # the system proved unique
    return UniquenessCertificate(poset=p, steps=_Steps(lat, canonical))


class _Steps(Sequence):
    """The steps of a built certificate, one per induction pair, each built
    from its index when it is read: ``len`` builds nothing, iteration
    builds one step at a time and keeps none, and an index or a slice
    builds only the steps it names (a slice as a tuple).  Compares and
    hashes as ``tuple(self)``, so a built certificate equals its parsed
    copy.  A step's refutations are the records replay expects
    (``_expected_records``) from its group checks on the builder's join
    and meet views, made by the first step built; a step whose witness
    group fails them raises InvalidCertificate."""

    def __init__(self, lat: IdealLattice, canonical: PairMap):
        self._lat = lat
        self._rhs = canonical.rhs
        self._sides = (_Side(lat, dual=False), _Side(lat, dual=True))
        self._views = None  # each side and its group checks

    def __len__(self) -> int:
        return len(self._lat.induction_pairs)

    def __iter__(self) -> Iterator[CertificateStep]:
        return map(self._step, range(len(self)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._step, range(len(self))[i]))
        return self._step(range(len(self))[i])

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Steps)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def _step(self, idx: int) -> CertificateStep:
        lat = self._lat
        views = self._views
        if views is None:
            index_of_pair = _pair_index(lat)
            views = self._views = [(side, _group_checks(lat, side, index_of_pair))
                                   for side in self._sides]
        a, b = pair = lat.induction_pairs[idx]
        refs = []
        for side, groups in views:
            sa, sb = a ^ side.flip, b ^ side.flip
            records = _expected_records(*groups(idx, sa, sb), side.name, sa & sb)
            if not all(records):
                _fail(f"step {idx} ({side.name} side): a replayed refutation fails its checks")
            refs += starmap(Refutation, records)
        return CertificateStep(pair, induction_parameter(lat.poset, a, b), self._rhs[pair],
                               tuple(refs))


def _fail(msg: str):
    raise InvalidCertificate(msg)


def validate_certificate(p: Poset, cert: UniquenessCertificate, text=None) -> tuple[bool, str]:
    """Replay a certificate using only lattice operations.

    Checks structure (coverage of exactly the incomparable pairs in the
    documented order, canonical right-hand sides, exhaustive alternative
    lists) and, per refutation, both the deterministic witness choice and
    the logical content: the adjoined element is admissible, the prior pair
    is an earlier step one parameter down, and the two recorded multichains
    are distinct standard monomials derived from the hypothetical relation
    and the prior canonical one, hence a basis violation.  Replay builds
    its own lattice views and checks, so it shares no cached value with
    uniqueness_certificate, whose steps run the same checks on the
    builder's views.

    The witness choice fixes every field of a refutation, so replay
    compares each record with the one it expects (``_expected_records``),
    whose checks it runs on the expected values.  A record equal to its
    expected one whose checks pass would pass every field-by-field check,
    so it gets the same verdict; any other record is checked field by
    field, which gives the same reason as before.  Records are compared by
    value, so a field of equal value and another numeric type
    (``swapped=1``, a float ``q``) is accepted.

    With ``text``, a function that consumes a string if the certificate
    file holds it next and returns whether it did, replay first reads the
    file's steps as text: the text of each step it expects, its checks
    passed, is written without building its records (``_step_texts``,
    which ``certificate_to_json`` writes a built certificate with) and
    passed to ``text``, until one is refused.  A step taken as text is a
    valid one.  ``cert.steps`` then holds the steps from the refused one
    on, and replay reads them as records, with its index set to that step.

    Without ``text``, a built certificate of ``p`` itself (its steps a
    ``_Steps`` from a lattice of ``p``) is replayed with replay's checks
    alone (``_matched_by_checks``): each pair's right-hand side in the
    builder's canonical system must be the canonical one, and every
    witness group's checks must pass on replay's own views, so each record
    replay expects exists.  No record is built or compared, as a built
    step's records are made by the same checks (``_Steps``).  From the
    first step whose checks fail, the builder's steps are read and
    replayed as records, so every reason, the fault precedence and the
    DEBUG record are those of the record path, unless the builder refuses
    to build the step.

    A fault raised while ``cert.steps`` is read, such as a parse fault of
    steps parsed as they are read, comes first: every fault of replay
    waits until the steps have been read to their end.  A built
    certificate has no such fault, so its steps are not read for one.
    """
    try:
        _validate(p, cert, text)
    except InvalidCertificate as exc:
        return False, str(exc)
    return True, "ok"


def _replay_views(p: Poset, cert: UniquenessCertificate):
    """``(lat, sides, index_of_pair)`` of a replay: the poset's lattice,
    its join and meet views, and each induction pair's index."""
    if cert.poset != p:
        _fail("certificate was issued for a different poset")
    if not is_direct_sum_of_chains(p):
        _fail("poset is not a direct sum of chains")
    lat = enumerate_ideals(p)
    return lat, (_Side(lat, dual=False), _Side(lat, dual=True)), _pair_index(lat)


def _pair_index(lat: IdealLattice) -> dict[tuple[int, int], int]:
    """Each induction pair's index: its step's in a certificate."""
    return {pair: i for i, pair in enumerate(lat.induction_pairs)}


def _validate(p: Poset, cert: UniquenessCertificate, text=None):
    """Replay in one pass over the steps, the first ones as text when
    ``text`` is given, or by replay's checks alone when the steps are a
    built certificate's of ``p`` (see ``validate_certificate``), the rest
    as records, which may be built or parsed as they are read.  Each step's
    pair must be the replay lattice's induction pair of its index, so a
    prior pair's index is its position in that order.  The first fault in
    a step's content is kept while later steps are checked for their pairs
    only, and is raised at the end: a wrong, missing or extra pair anywhere
    takes precedence, as when all pairs were compared before any content.
    A fault of the poset or a wrong pair is raised once the steps are
    read to their end, so that a fault in reading them comes first; a
    ``_Steps`` has none, so a fault of the poset does not read it.

    A replay that reads every step logs one DEBUG record on the
    ``aslattice`` logger: its steps, and of the steps read as records or
    checked alone the refutations, the witness groups checked and the
    records checked field by field (0 on a valid certificate)."""
    import logging  # here, not at the top: it adds about 5 ms to importing the package

    built = cert.steps
    steps = iter(built)
    try:
        lat, sides, index_of_pair = _replay_views(p, cert)
    except AslatticeError:  # a poset fault or a capacity bound
        if not isinstance(built, _Steps):
            for _ in steps:
                pass
        raise
    if text is not None or not isinstance(built, _Steps) or built._lat.poset != p:
        built = None
    views = [(side, _group_checks(lat, side, index_of_pair)) for side in sides]
    tally = [0, 0, 0]  # refutations, witness groups, records checked field by field
    if built is not None:
        start = _matched_by_checks(lat, views, built._rhs, tally)
        steps = map(built._step, range(start, len(built)))
    else:
        start = 0 if text is None else _matched_as_text(lat, sides, index_of_pair, text)
    pairs = lat.induction_pairs
    order = "steps do not list the incomparable pairs in certificate order"
    fault = None
    count = start
    for idx, step in enumerate(steps, start):
        if idx == len(pairs) or step.pair != pairs[idx]:
            for _ in steps:
                pass
            _fail(order)
        count += 1
        if fault is None:
            try:
                _validate_step(lat, views, index_of_pair, idx, step, tally)
            except Exception as exc:  # any: raised below unless a later pair's fault wins
                fault = exc
    if count != len(pairs):
        _fail(order)
    logging.getLogger("aslattice").debug(
        "replay: %d steps, %d refutations, %d witness groups, %d records checked field by field",
        count, *tally,
    )
    if fault is not None:
        raise fault


def _matched_as_text(lat: IdealLattice, sides, index_of_pair, text) -> int:
    """How many steps, from the first, ``text`` takes as the text of the
    steps replay expects (``_step_texts``).  A step that fails replay's
    checks is offered no text: it and the steps after it are read as
    records, which gives every such step its reason."""
    matched = 0
    try:
        for step in _step_texts(lat, sides, index_of_pair):
            if not text(step):
                break
            matched += 1
    except InvalidCertificate:
        pass
    return matched


def _matched_by_checks(lat: IdealLattice, views, rhs: dict, tally: list) -> int:
    """How many steps, from the first, pass replay's checks alone, given
    ``views``, each side and its group checks (``_group_checks``), and
    ``rhs``, a built certificate's right-hand side of each pair: it is the
    canonical one, and on each side every plan's alternative is usable and
    every witness group passes, so each record replay expects exists.  No
    record is built or compared.  Each step that passes adds its
    refutations and witness groups to ``tally``, as record replay would."""
    for idx, pair in enumerate(lat.induction_pairs):
        a, b = pair
        if rhs[pair] != (a & b, a | b):
            return idx
        refutations = groups_checked = 0
        for side, groups in views:
            plan, shared = groups(idx, a ^ side.flip, b ^ side.flip)
            if plan.alts:
                if not (all(plan.usable) and all(shared)):
                    return idx
                refutations += len(plan.alts)
                groups_checked += plan.groups
        tally[0] += refutations
        tally[1] += groups_checked
    return len(lat.induction_pairs)


def _validate_step(lat, views, index_of_pair, idx: int, step: CertificateStep, tally: list):
    """Replay one step with ``views``, each side and its group checks
    (``_group_checks``), adding its refutations, witness groups checked and
    records checked field by field to ``tally``."""
    a, b = step.pair
    k = induction_parameter(lat.poset, a, b)
    if step.k != k:
        _fail(f"step {idx}: stored parameter {step.k} differs from {k}")
    if step.rhs != (a & b, a | b):
        _fail(f"step {idx}: right-hand side is not the canonical one")
    parts = []
    expected = 0
    for side, groups in views:
        sa, sb = a ^ side.flip, b ^ side.flip
        plan, shared = groups(idx, sa, sb)
        parts.append((side, sa, sb, plan, shared))
        expected += len(plan.alts)
    if len(step.refutations) != expected:
        _fail(f"step {idx}: expected {expected} refutations, found {len(step.refutations)}")
    tally[0] += expected
    start = 0
    for side, sa, sb, plan, shared in parts:
        stop = start + len(plan.alts)
        if stop > start:
            refs = step.refutations[start:stop]
            records = _expected_records(plan, shared, side.name, sa & sb)
            tally[1] += plan.groups
            if not all(records) or refs != tuple(records):
                _validate_fields(lat, index_of_pair, idx, step, refs, side, sa, sb, plan.alts,
                                 records, tally)
        start = stop


def _expected_records(plan: _Plan, shared: list, name: str, sm: int) -> list:
    """For each alternative of a union's ``plan``, on the side named
    ``name``, the refutation replay expects of a step whose pair meets in
    ``sm``, or None where its checks fail or it has no witness.
    ``shared`` holds what each witness group of the step shares, or None
    (``_group_checks``).  A record equal to the expected one passes every
    field-by-field check.  A built step's records are these (``_Steps``)."""
    records = []
    append = records.append
    for (alt, _), slot, usable in zip(plan.alts, plan.slots, plan.usable):
        expect = shared[slot]
        if usable and expect is not None:
            swapped, p, q, alpha1, prior_pair, left = expect
            append((name, alt, swapped, p, q, alpha1, prior_pair, (left, (sm, alpha1, alt))))
        else:
            append(None)
    return records


class _Plan(NamedTuple):
    """What every step whose pair has one union shares on one side: the
    part of the witness-group checks that depends only on the union, the
    witness and the alternative, made when a step first reaches the union
    (``_union_plan``)."""

    alts: list  # (alternative, witness) for each alternative, ``_Side.alternatives``
    witnesses: list  # per distinct witness: (p, q, 1 << q, union ∪ {q}), None where it fails
    slots: tuple  # per alternative: its witness's index in ``witnesses``
    usable: list  # per alternative: its witness passes, it is closed and holds union ∪ {q}
    groups: int  # the witness groups: the distinct witnesses other than None
    pieces: list | None  # the side's text around its groups' texts (``_step_texts``)


def _union_plan(side: _Side, sj: int, arrays: dict | None = None) -> _Plan:
    """The plan of the union ``sj`` on ``side``, with the checks that
    depend only on the union, the witness and the alternative.  A witness
    (p, q) passes where q covers p and p is side-maximal in the union
    (without p, q is side-minimal), q lies outside the union, and union ∪
    {q} is closed, so one element larger.  An alternative is usable where
    its witness passes and it is closed and holds union ∪ {q}.  Witnesses
    are kept in the order of their first alternative.

    Given ``arrays``, each closed set's label array, a plan with
    alternatives, all usable, carries the side's refutation text as
    ``pieces``: its fixed text, split at each alternative's witness-group
    text, with a None in each gap, four pieces per alternative.  The
    pieces are the strings of ``arrays`` and three constants, so a plan
    copies no text."""
    closed = side.position  # the side's closed sets
    cover_mask, minimal_mask = side.cover_mask, side.minimal_mask
    alts = side.alternatives(sj)
    slot_of: dict = {}
    slots = tuple([slot_of.setdefault(wit, len(slot_of)) for _, wit in alts])
    top = side.maxels(sj)
    witnesses = []
    for wit in slot_of:
        passed = None
        if wit is not None:
            p, q = wit
            qbit = 1 << q
            if (
                (minimal_mask & qbit if p is None else cover_mask[p] & qbit and top >> p & 1)
                and not sj & qbit
                and (sj | qbit) in closed
            ):
                passed = p, q, qbit, sj | qbit
        witnesses.append(passed)
    usable = [
        w is not None and alt in closed and not w[3] & ~alt
        for (alt, _), w in zip(alts, map(witnesses.__getitem__, slots))
    ]
    pieces = None
    if arrays is not None and alts and all(usable):
        head = '{"side":%s,"alternative":' % json.dumps(side.name)
        between = "]]}," + head  # one refutation's end and the next one's start
        pieces = []
        for alt, _ in alts:
            arr = arrays[alt]  # shared with every plan, not copied
            pieces += [between if pieces else head, arr, None, arr]
        pieces.append("]]}")
    groups = len(witnesses) - (None in slot_of)
    return _Plan(alts, witnesses, slots, usable, groups, pieces)


# A refutation's fields from "swapped" to the right collision chain's
# second entry, which its witness group shares.
_GROUP = (
    ',"swapped":%s,"p":%s,"q":%s,"alpha1":%s,"prior_pair":[%s,%s],"collision":[[%s,%s,%s],[%s,%s,'
)


def _group_checks(lat: IdealLattice, side: _Side, index_of_pair, arrays: dict | None = None):
    """The witness-group checks of one side of a replay on the lattice
    ``lat``, given each induction pair's index: a function ``groups(idx,
    sa, sb)`` that gives, for the pair (sa, sb) of step ``idx``, the plan
    of its union (``_union_plan``, given ``arrays``) and, for each of the
    plan's witnesses, what its refutations share, or None where the
    group's checks fail or there is no witness.  What they share is
    ``(swapped, p, q, alpha1, prior pair, left chain)``, or, given
    ``arrays``, each closed set's label array, their text from
    ``"swapped"`` to the right chain's second entry (``_GROUP``).

    The one definition of the checks that replay runs per witness group
    rather than per refutation, in three levels.  Once per union, when a
    step first reaches it, its plan holds the checks that depend only on
    the union, the witness and the alternative.  Once per step: sa, sb and
    their meet are closed (the meet lies in both).  Once per group, the
    checks that depend on the pair: with p in ext (``swapped`` where only
    sa holds p), alpha1 = ext ∪ {q} is closed, base ∩ alpha1 is the meet,
    base and alpha1 are incomparable and one parameter down, and their
    pair is an earlier step.  With the plan's, these give every
    field-by-field check of a record equal to the expected one: p lies in
    ext, as it lies in the union; base ∪ alpha1 is union ∪ {q}, so each
    alternative strictly holds the union and holds q and alpha1; both
    collision chains are chains of closed sets, and they differ, as q lies
    in alpha1 and not in ext."""
    closed = side.position  # the side's closed sets
    flip = side.flip
    position = lat.position
    plans: dict[int, _Plan] = {}
    as_text = arrays is not None
    if as_text:
        elems = [json.dumps(x) for x in lat.poset.labels]

    def groups(idx: int, sa: int, sb: int) -> tuple[_Plan, list]:
        sj, sm = sa | sb, sa & sb
        plan = plans.get(sj)
        if plan is None:
            plan = plans[sj] = _union_plan(side, sj, arrays)
        if not (sa in closed and sb in closed and sm in closed):
            return plan, [None] * len(plan.witnesses)
        n_prior = (sa ^ sb).bit_count() + 1  # n minus a prior pair's parameter
        if as_text:
            s0 = arrays[sm]
        shared = []
        append = shared.append
        for witness in plan.witnesses:
            if witness is not None:
                p, q, qbit, joined = witness
                swapped = p is not None and not sb >> p & 1
                base, ext = (sb, sa) if swapped else (sa, sb)
                alpha1 = ext | qbit
                if (
                    alpha1 in closed
                    and base & alpha1 == sm
                    and base & ~alpha1
                    and alpha1 & ~base
                    and (base ^ alpha1).bit_count() == n_prior
                ):
                    x, y = base ^ flip, alpha1 ^ flip  # ideals: base is a or b, alpha1 closed
                    prior_idx = index_of_pair.get((x, y) if position[x] < position[y] else (y, x))
                    if prior_idx is not None and prior_idx < idx:
                        if as_text:
                            a1 = arrays[alpha1]
                            append(_GROUP % (
                                "true" if swapped else "false",
                                "null" if p is None else elems[p],
                                elems[q],
                                a1,
                                arrays[base],
                                a1,
                                s0,
                                arrays[ext],
                                arrays[joined],
                                s0,
                                a1,
                            ))
                        else:
                            append((swapped, p, q, alpha1, (base, alpha1), (sm, ext, joined)))
                        continue
            append(None)
        return plan, shared

    return groups


def _validate_fields(lat, index_of_pair, idx, step, refs, side: _Side, sa, sb, alts, records,
                     tally):
    """Check one step's refutations on one side field by field, in the
    order of the side's alternatives ``alts`` to the pair (sa, sb), where
    they do not all equal the ``records`` replay expects: the one
    definition of the field-by-field checks' order and messages.  A
    record equal to its expected one is skipped; every other is checked
    and counted in ``tally``.

    Each record is unpacked once, and what is the same for the whole side
    is read once: the side's closed sets and covers, the union's
    side-maximal elements, and the side's ``flip``, which maps a side set
    to its ideal by one XOR.  The prior pair's parameter is computed
    inline: it is n minus the size of the pair's symmetric difference,
    which complementing both sets keeps."""
    n = lat.poset.n
    position = lat.position
    closed = side.position  # the side's closed sets
    name, cover_mask, minimal_mask = side.name, side.cover_mask, side.minimal_mask
    flip = side.flip
    prior_k = step.k - 1
    sj, sm = sa | sb, sa & sb
    top = side.maxels(sj)
    grown = sj.bit_count() + 1
    r_side = None  # the side of the refutation under test, named in fail's message

    def fail(msg: str):
        _fail(f"step {idx} ({r_side} side): {msg}")

    for ref, record, (alt, wit) in zip(refs, records, alts):
        if ref == record:  # a record is never None, where replay expects none
            continue
        tally[2] += 1
        r_side, r_alt, swapped, r_p, q, alpha1, prior_pair, collision = ref
        if r_side != name or r_alt != alt:
            fail("refutation list does not match the enumerated alternatives")
        if alt not in closed or sj & ~alt or alt == sj:
            fail("alternative is not a closed strict superset of the union")
        if wit is None:
            fail("no admissible witness elements exist")
        p_exp, q_exp = wit
        sw_exp = p_exp is not None and not sb >> p_exp & 1
        if (r_p, q, swapped) != (p_exp, q_exp, sw_exp):
            fail("witness elements differ from the deterministic choice")
        base, ext = (sb, sa) if swapped else (sa, sb)
        if not (alt & ~sj) >> q & 1:
            fail("adjoined element is not strictly inside the alternative")
        if r_p is None:
            if not minimal_mask >> q & 1:
                fail("adjoined element without covered element must be minimal")
            if swapped:  # cannot fire: the witness check requires False without p
                fail("swap is meaningless without a covered element")
        else:
            if not cover_mask[r_p] >> q & 1:
                fail("q does not cover p")
            if not top >> r_p & 1:
                fail("p is not maximal in the union")
            if not ext >> r_p & 1:  # cannot fire: ext is the one of sa, sb holding p
                fail("p does not lie in the extended component")
        if alpha1 != ext | (1 << q):
            fail("alpha1 is not the extended component plus q")
        # Below, only the stored prior pair and collision comparisons can
        # fire; each other check states a step of the argument, implied as
        # noted by the checks above and _validate's (a sum of chains,
        # incomparable step pairs in parameter order, parameters).
        if alpha1 not in closed:  # q is minimal, or covers p in ext and nothing else
            fail("alpha1 is not closed")
        if alpha1 & ~alt:  # ext lies in the union, inside alt, and q in alt
            fail("alpha1 is not contained in the alternative")
        if base & alpha1 != sm:  # q lies outside the union, as below
            fail("adjoining q must not change the intersection")
        joined = base | alpha1
        if joined.bit_count() != grown:
            fail("adjoining q must grow the union by exactly one element")
        if base & ~alpha1 == 0 or alpha1 & ~base == 0:  # base ⊄ ext, q ∉ base
            fail("prior pair is not incomparable")
        if prior_pair != (base, alpha1):
            fail("stored prior pair mismatch")
        x, y = base ^ flip, alpha1 ^ flip
        prior_idx = index_of_pair.get((x, y) if position[x] < position[y] else (y, x))
        if prior_idx is None or prior_idx >= idx:  # a step pair, one parameter down
            fail("prior pair is not certified earlier")
        if n - (base ^ alpha1).bit_count() != prior_k:  # base ^ alpha1 = sa ^ sb + q
            fail("prior pair parameter is not one less")
        # The checks above give sm ⊆ ext ⊂ alpha1 = ext ∪ {q} ⊆ alt, so both
        # monomials are inclusion chains, which side order lists in
        # inclusion order: no sorting needed.
        left = (sm, ext, joined)
        right = (sm, alpha1, alt)
        if collision != (left, right):
            fail("collision monomials differ from the replayed ones")
        for u, v, w in collision:  # (left, right): chains of closed sets
            if u & ~v or v & ~w:
                fail("collision entry is not a multichain")
            if u not in closed or v not in closed or w not in closed:
                fail("collision entry contains a non-closed set")
        # left and right are sorted, so tuple equality is multiset equality
        if left == right:  # q is in alpha1, not in ext
            fail("collision monomials are not distinct")
        # Derivation replay: both collision monomials arise from the product
        # base·ext·alpha1, one via the hypothetical relation (base,ext) ->
        # (meet, alternative), the other via the certified canonical relation
        # (base, alpha1) -> (meet, base ∪ alpha1).  Replacing two of the three
        # factors keeps the third: alpha1 in the first case, ext in the second.
        # With base ∩ alpha1 = sm and the inclusions checked above, both
        # products are the recorded chains, so this check always passes once
        # reached; it stays as the statement of the argument.
        via_hyp = (sm, alpha1, alt)
        via_prior = (base & alpha1, ext, joined)
        if via_hyp != right or via_prior != left:
            fail("collision monomials are not derivable from the two relations")


# ---------------------------------------------------------------------------
# certificate serialization

CERT_FORMAT = "uniqueness-certificate/1"


_STEP_HEAD = '{"pair":[%s,%s],"k":%d,"rhs":[%s,%s],"refutations":['


def certificate_to_json(cert: UniquenessCertificate) -> Iterator[str]:
    """The certificate as compact JSON text, yielded in chunks: the
    header, one chunk per step, then the closing brackets.  Their join is
    ``json.dumps(doc, separators=(",", ":"))`` of the certificate
    document, byte for byte; no whole document is built.

    A built certificate's steps are written as the text replay writes the
    steps it expects (``_step_texts``), from the builder's lattice and
    views, without a record per refutation: its checks run as they are
    written, and a step whose checks fail raises InvalidCertificate before
    any of its text is yielded.  Steps held as records (parsed, or
    ``tuple(cert.steps)``) are written by ``_step_text``, one
    ``json.dumps`` of each step's document."""
    p = cert.poset
    head = json.dumps({"format": CERT_FORMAT, **poset_to_json(p)}, separators=(",", ":"))
    yield head[:-1] + ',"steps":['
    steps = cert.steps
    if isinstance(steps, _Steps):
        texts = _step_texts(steps._lat, steps._sides, _pair_index(steps._lat))
    else:
        texts = map(_step_text(p), steps)
    sep = ""
    for text in texts:
        yield sep + text
        sep = ","
    yield "]}"


def _step_texts(lat: IdealLattice, sides, index_of_pair) -> Iterator[str]:
    """The compact JSON text of each step replay expects on the lattice
    ``lat``, with its join and meet views ``sides`` and each induction
    pair's index, in induction order; each step's checks run before it is
    yielded, and the first step whose checks fail raises.

    No refutation record is built.  Every closed set's label array, an
    ideal or its complement, is encoded once.  The checks are record
    replay's (``_group_checks``): those that depend only on a side's union
    once per union, in its plan, which also holds the side's text around
    its witness groups' texts (``pieces``); per step and side, each
    group's checks and its text, formatted with one ``%``.  The groups'
    texts go into the plan's pieces by each alternative's witness slot,
    and a step is one ``str.join``, with no work per refutation.  The text
    equals what ``_step_text`` writes for the records
    ``_expected_records`` gives."""
    p = lat.poset
    arrays = {m: json.dumps(p.labels_of(m), separators=(",", ":")) for s in sides for m in s.ideals}
    views = [(side.flip, side.name, _group_checks(lat, side, index_of_pair, arrays))
             for side in sides]
    for idx, (a, b) in enumerate(lat.induction_pairs):
        k = induction_parameter(p, a, b)
        text = [_STEP_HEAD % (arrays[a], arrays[b], k, arrays[a & b], arrays[a | b])]
        for flip, name, groups in views:
            plan, shared = groups(idx, a ^ flip, b ^ flip)
            if not plan.alts:
                continue
            if plan.pieces is None or not all(shared):
                _fail(f"step {idx} ({name} side): a replayed refutation fails its checks")
            if len(text) > 1:
                text.append(",")
            start = len(text)
            text += plan.pieces
            text[start + 2::4] = map(shared.__getitem__, plan.slots)
        text.append("]}")
        yield "".join(text)


def _step_text(p: Poset):
    """The function that writes one step of a certificate of ``p``, held
    as records, as compact JSON text: one ``json.dumps`` of the step's
    document, with its keys in document order.  It writes parsed
    certificates and steps kept with ``tuple(cert.steps)``; on the steps
    replay expects it gives ``_step_texts``'s bytes, which the tests check
    on every built certificate they write."""
    labels = p.labels
    labs = p.labels_of

    def step_text(step) -> str:
        (a, b), k, (lo, hi), refs = step
        doc = {
            "pair": [labs(a), labs(b)],
            "k": k,
            "rhs": [labs(lo), labs(hi)],
            "refutations": [
                {
                    "side": side,
                    "alternative": labs(alt),
                    "swapped": swapped,
                    "p": None if rp is None else labels[rp],
                    "q": labels[q],
                    "alpha1": labs(alpha1),
                    "prior_pair": [labs(base), labs(ext)],
                    "collision": [list(map(labs, left)), list(map(labs, right))],
                }
                for side, alt, swapped, rp, q, alpha1, (base, ext), (left, right) in refs
            ],
        }
        return json.dumps(doc, separators=(",", ":"))

    return step_text


def certificate_from_json(doc: dict, p: Poset) -> UniquenessCertificate:
    """Parse a certificate against a poset; structural problems raise
    InvalidCertificate.

    The header is checked first, then each step is read by one
    field-by-field reader (``_step_reader``).  Steps given as an iterator
    are parsed one at a time as the certificate's steps are read, which
    raise a step's fault when they reach it; any other steps are parsed at
    once and held as a tuple."""
    try:
        if doc.get("format") != CERT_FORMAT:
            _fail("unrecognized certificate format")
        if doc["elements"] != list(p.labels):
            _fail("certificate elements do not match the poset")
        if not all(isinstance(c, list) for c in doc["covers"]):
            _fail("certificate covers are not label pairs")
        covers = {(p.index_of(a), p.index_of(b)) for a, b in doc["covers"]}
        if covers != set(p.covers):
            _fail("certificate covers do not match the poset")
        steps = map(_step_reader(p), doc["steps"])
        if not isinstance(doc["steps"], Iterator):
            steps = tuple(steps)
        return UniquenessCertificate(poset=p, steps=steps)
    except InvalidCertificate:
        raise
    except Exception as exc:  # malformed structure, unknown labels, ...
        raise InvalidCertificate(f"malformed certificate: {exc}") from exc


def _step_reader(p: Poset):
    """The function that parses one step's document against ``p``; its
    faults raise InvalidCertificate.

    A certificate repeats few label arrays, so each list is looked up in
    a mask cache, kept across the steps one reader reads, and its labels
    are checked only when the cache first misses it.  Every refutation is
    read field by field with the helpers; a refutation's label arrays are
    looked up inline, and ``mask`` runs only where the cache misses.
    Fields are read and checked in one fixed order (a step's refutations
    before its pair, parameter and right-hand side), and the first failed
    check gives the message."""

    def checked_mask(key: tuple) -> int:
        labels = list(key)
        if not all(isinstance(x, str) for x in key):
            _fail(f"label array {labels!r} holds a non-string")
        m = p.mask_of(key)
        if p.labels_of(m) != labels:
            _fail(f"label array {labels!r} is not in canonical index order")
        return m

    masks = {}  # label tuple -> mask, checked on first use
    get = masks.get

    def mask(labels) -> int:
        if not isinstance(labels, list):
            _fail(f"label array {labels!r} is not a list")
        key = tuple(labels)
        m = get(key)
        if m is None:
            m = masks[key] = checked_mask(key)
        return m

    def element(value) -> int:
        return p.index_of(typed(value, str, "element"))

    def typed(value, kind, what):
        if type(value) is not kind:  # exact: bool is a subclass of int
            _fail(f"{what} {value!r} has type {type(value).__name__}, not {kind.__name__}")
        return value

    def two(value, what):
        if not isinstance(value, list) or len(value) != 2:
            _fail(f"{what} {value!r} is not a list of exactly two entries")
        return value

    # Below, a label array's cache hit is read inline, and ``mask`` runs
    # only where it misses, so every fault still gets ``mask``'s message.

    def masks_of(arrays) -> tuple[int, ...]:
        out = []
        for labels in arrays:
            m = get(tuple(labels)) if type(labels) is list else None
            out.append(mask(labels) if m is None else m)
        return tuple(out)

    def refutation(r) -> Refutation:
        """One refutation; the helpers raise the first fault in field
        order."""
        side = r["side"]
        if side not in ("join", "meet"):
            _fail(f"refutation side {side!r} is not 'join' or 'meet'")
        labels = r["alternative"]
        alt = get(tuple(labels)) if type(labels) is list else None
        if alt is None:
            alt = mask(labels)
        swapped = typed(r["swapped"], bool, "swapped flag")
        rp = r["p"]
        if rp is not None:
            rp = element(rp)
        q = element(r["q"])
        labels = r["alpha1"]
        alpha1 = get(tuple(labels)) if type(labels) is list else None
        if alpha1 is None:
            alpha1 = mask(labels)
        prior = masks_of(two(r["prior_pair"], "prior pair"))
        left, right = two(r["collision"], "collision")
        collision = (masks_of(left), masks_of(right))
        return Refutation(side, alt, swapped, rp, q, alpha1, prior, collision)

    def read_step(s) -> CertificateStep:
        try:
            refs = tuple([refutation(r) for r in s["refutations"]])
            return CertificateStep(
                masks_of(two(s["pair"], "step pair")),
                typed(s["k"], int, "step parameter"),
                masks_of(two(s["rhs"], "step right-hand side")),
                refs,
            )
        except InvalidCertificate:
            raise
        except Exception as exc:  # malformed structure, unknown labels, ...
            raise InvalidCertificate(f"malformed certificate: {exc}") from exc

    return read_step
