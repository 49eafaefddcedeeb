"""Independent brute-force reference implementations.

Everything here works on frozensets of labels and definitional formulas,
deliberately avoiding the library's bitmask machinery, so agreement between
the two is meaningful evidence.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from aslattice import (
    CapacityExceeded,
    InvalidCertificate,
    Poset,
    PreconditionViolated,
    RealizationKind,
    _kernels,
    build_poset,
    enumerate_ideals,
    is_direct_sum_of_chains,
    straightening_relations,
)
from aslattice.genposets import MAX_CANONICAL_N, CanonicalPoset, _strict_masks
from aslattice.ideals import induction_parameter
from aslattice.uniqueness import (
    CERT_FORMAT,
    CertificateStep,
    Refutation,
    UniquenessCertificate,
    _Side,
)


def ideal_sets(p):
    """All down-closed label sets, by filtering the full power set."""
    labs = list(p.labels)
    below = {
        b: {a for a in labs if p.leq(p.index_of(a), p.index_of(b))} for b in labs
    }
    out = []
    for r in range(len(labs) + 1):
        for combo in combinations(labs, r):
            s = frozenset(combo)
            if all(below[b] <= s for b in s):
                out.append(s)
    return out


def antichain_sets(p):
    labs = list(p.labels)
    out = []
    for r in range(len(labs) + 1):
        for combo in combinations(labs, r):
            if all(
                not p.comparable(p.index_of(a), p.index_of(b))
                for a, b in combinations(combo, 2)
            ):
                out.append(frozenset(combo))
    return out


def max_set(p, s):
    return frozenset(
        a for a in s
        if not any(b != a and p.leq(p.index_of(a), p.index_of(b)) for b in s)
    )


def min_set(p, s):
    return frozenset(
        a for a in s
        if not any(b != a and p.leq(p.index_of(b), p.index_of(a)) for b in s)
    )


def down_set(p, s):
    return frozenset(
        a for a in p.labels
        if any(p.leq(p.index_of(a), p.index_of(b)) for b in s)
    )


def up_set(p, s):
    return frozenset(
        a for a in p.labels
        if any(p.leq(p.index_of(b), p.index_of(a)) for b in s)
    )


def star_set(p, a, b):
    gen = max_set(p, a & b) & (max_set(p, a) | max_set(p, b))
    return down_set(p, gen)


def circ_set(p, a, b):
    ground = frozenset(p.labels)
    fa, fb = ground - a, ground - b
    gen = min_set(p, fa & fb) & (min_set(p, fa) | min_set(p, fb))
    return ground - up_set(p, gen)


def maximal_chain_sets(p):
    """Maximal chains as ascending label tuples, from all totally ordered
    subsets by discarding the non-maximal ones."""
    labs = list(p.labels)

    def is_chain(s):
        return all(
            p.comparable(p.index_of(a), p.index_of(b)) for a, b in combinations(s, 2)
        )

    chains = [
        frozenset(c)
        for r in range(1, len(labs) + 1)
        for c in combinations(labs, r)
        if is_chain(c)
    ]
    maximal = [c for c in chains if not any(c < d for d in chains)]

    def height(x):
        return sum(1 for y in labs if y != x and p.leq(p.index_of(y), p.index_of(x)))

    return {tuple(sorted(c, key=height)) for c in maximal}


def multichain_count(p, ideals, d):
    """Number of weakly increasing ⊆-sequences of length d, counted over
    label-set ideals by direct recursion."""
    ideals = list(ideals)

    def count(prev, remaining):
        if remaining == 0:
            return 1
        return sum(count(s, remaining - 1) for s in ideals if prev <= s)

    return sum(count(s, d - 1) for s in ideals)


# --- transitive reduction, pair by pair ---
# The reference for the cover tables that a Poset derives from its order.


def transitive_reduction(up) -> tuple[tuple[int, int], ...]:
    """Transitive reduction (cover pairs) of a closed order given as rows:
    the covers of i are its strict successors lying above none of the
    others.  Pairs come out in ascending (i, j) order."""
    strict = [row & ~(1 << i) for i, row in enumerate(up)]
    covers = []
    for i, succ in enumerate(strict):
        above = 0
        m = succ
        while m:
            low = m & -m
            above |= strict[low.bit_length() - 1]
            m ^= low
        m = succ & ~above
        while m:
            low = m & -m
            covers.append((i, low.bit_length() - 1))
            m ^= low
    return tuple(covers)


def cover_tables(up):
    """``(covers, upper_cover, lower_cover)`` of a closed order, all read
    off the reference reduction."""
    covers = transitive_reduction(up)
    upper = tuple(tuple(j for i, j in covers if i == k) for k in range(len(up)))
    lower = tuple(tuple(i for i, j in covers if j == k) for k in range(len(up)))
    return covers, upper, lower


# --- condition (ii) from full relation tables ---
# Unlike the rest of this module this reuses the library: it builds all
# three systems with straightening_relations (per-pair star/circ calls) and
# compares them in full, without the lattice's max/min tables or any early
# exit.

CONDITION_ORDER = (
    (RealizationKind.ORDER, RealizationKind.CHAIN),
    (RealizationKind.ORDER, RealizationKind.CHAIN_DUAL),
    (RealizationKind.CHAIN, RealizationKind.CHAIN_DUAL),
)


def condition_ii_witnesses(lat):
    """Per failed comparison, in condition order: (kind pair, first
    differing ideal pair, rhs_a, rhs_b)."""
    tables = {kind: straightening_relations(lat, kind).rhs for kind in RealizationKind}
    out = []
    for ka, kb in CONDITION_ORDER:
        for pair in lat.incomparable_pairs:
            ra, rb = tables[ka][pair], tables[kb][pair]
            if ra != rb:
                out.append(((ka, kb), pair, ra, rb))
                break
    return tuple(out)


# --- labeled poset generation + isomorphism, independent of the library ---


def labeled_orders(n):
    """All transitively closed strict upper-triangular relations on n
    points, as frozensets of (i, j) pairs with i < j.  Every isomorphism
    class of n-posets appears among them (indices along a linear
    extension)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        if all(
            ((i, l) in rel)
            for (i, j) in rel
            for (k, l) in rel
            if j == k
        ):
            out.append(frozenset(rel))
    return out


def order_iso(n, rel_a, rel_b):
    """Permutation-search isomorphism test between two strict relations."""
    if len(rel_a) != len(rel_b):
        return False
    for perm in permutations(range(n)):
        if frozenset((perm[i], perm[j]) for (i, j) in rel_a) == rel_b:
            return True
    return False


def iso_classes(n):
    """Isomorphism classes of n-posets via the naive generator and the
    permutation isomorphism test."""
    classes = []
    for rel in labeled_orders(n):
        if not any(order_iso(n, rel, c) for c in classes):
            classes.append(rel)
    return classes


# --- generation keying every one-point extension ---
# The generator as it stood before the deletion and twin rules, kept only as
# a reference: it reuses the library's canonical key and poset builder, and
# keys every ideal of every parent class.  Each class is rebuilt from its
# key through build_poset (topological sort and closure of every relation
# of the key), independently of the library's direct construction.


def poset_from_key_by_build(key: bytes) -> Poset:
    labels = [f"p{i}" for i in range(len(key))]
    pairs = [(labels[i], labels[j]) for j, code in enumerate(key) for i in range(j) if code >> i & 1]
    return build_poset(labels, pairs)


def exhaustive_generate(n: int):
    if not 1 <= n <= MAX_CANONICAL_N:
        raise CapacityExceeded(f"generation supports 1..{MAX_CANONICAL_N} elements")
    level: dict[bytes, Poset] = {b"\x00": build_poset(["p0"], [])}
    for size in range(2, n + 1):
        nxt: dict[bytes, Poset] = {}
        for parent in level.values():
            pred = _strict_masks(parent)[1]
            lat = enumerate_ideals(parent)
            for down_set in lat.ideals:
                key = _kernels.canonical_key(list(pred) + [down_set])
                if key not in nxt:
                    nxt[key] = poset_from_key_by_build(key)
        level = nxt
    for key in sorted(level):
        yield CanonicalPoset(poset=level[key], canonical_key=key)


def partition_count(n):
    """Number of integer partitions of n."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


# --- exponents by integer row echelon ---
# The echelon that computed the exponents of a realization before they
# came from an integer run of the null-space push, kept as a reference.


class _Echelon:
    """Integer row echelon, rows sorted by pivot.

    ``reduce`` eliminates pivot columns in ascending order, which leaves
    untouched every pivot column already cleared because each row starts
    with zeros before its own pivot.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def residual(self, vec) -> list[int]:
        """Eliminate pivot columns; zero exactly on the row space.  No
        normalization, so the map is linear in ``vec`` and residual
        equality is equivalence modulo the row space."""
        v = list(vec)
        for row, c in zip(self.rows, self.pivots):
            pv = row[c]
            coef = v[c]
            for i in range(self.ncols):
                v[i] = v[i] * pv - row[i] * coef
        return v

    def reduce(self, vec) -> list[int]:
        v = self.residual(vec)
        g = 0
        for x in v:
            g = gcd(g, x)
        if g > 1:
            v = [x // g for x in v]
        return v

    def push(self, vec):
        """Insert a row unless it lies in the row space already."""
        v = self.reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return
        if v[pivot] < 0:
            v = [-x for x in v]
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < pivot:
            idx += 1
        self.rows.insert(idx, v)
        self.pivots.insert(idx, pivot)

    def kernel_basis(self) -> list[list[int]]:
        """Integer basis of the solution space of rows·w = 0, one vector
        per non-pivot column, each shifted to be nonnegative."""
        pivot_set = set(self.pivots)
        frees = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        order = sorted(range(len(self.rows)), key=lambda r: -self.pivots[r])
        for f in frees:
            w = [Fraction(0)] * self.ncols
            w[f] = Fraction(1)
            for r in order:  # back-substitute, deepest pivot first
                row = self.rows[r]
                c = self.pivots[r]
                s = sum(Fraction(row[j]) * w[j] for j in range(c + 1, self.ncols))
                w[c] = -s / row[c]
            denom = 1
            for x in w:
                denom = denom * x.denominator // gcd(denom, x.denominator)
            iv = [int(x * denom) for x in w]
            low = min(iv)
            if low < 0:
                # the all-ones vector solves every zero-sum row system
                iv = [x - low for x in iv]
            g = 0
            for x in iv:
                g = gcd(g, x)
            if g > 1:
                iv = [x // g for x in iv]
            basis.append(iv)
        return basis


def reference_exponents(lat, pm):
    """(kernel basis, exponents) of a realization through the echelon:
    one pair row per relation, back-substituted in Fraction."""
    pos, n = lat.position, len(lat)
    ech = _Echelon(n)
    for (a, b), (lo, hi) in pm.entries():
        row = [0] * n
        for m, s in ((a, 1), (b, 1), (lo, -1), (hi, -1)):
            row[pos[m]] += s
        ech.push(row)
    kernel = ech.kernel_basis()
    return kernel, {m: tuple(k[pos[m]] for k in kernel) + (1,) for m in lat.ideals}


# --- exhaustive search by exact integer residuals ---
# A depth-first search over lat.induction_pairs in the library's candidate
# order, kept as the reference for the systems search returns and their
# order: an undoable integer echelon, every multichain of degree
# 1..max_degree carried as a residual signature, and every signature
# rewritten at every node.


class _UndoEchelon:
    def __init__(self, ncols):
        self.ncols = ncols
        self.rows, self.pivots, self.undo = [], [], []

    def push(self, vec):
        v = list(vec)
        for row, c in zip(self.rows, self.pivots):
            pv, coef = row[c], v[c]
            v = [x * pv - r * coef for x, r in zip(v, row)]
        g = 0
        for x in v:
            g = gcd(g, x)
        if g > 1:
            v = [x // g for x in v]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            self.undo.append(-1)
            return None
        if v[pivot] < 0:
            v = [-x for x in v]
        idx = sum(1 for c in self.pivots if c < pivot)
        self.rows.insert(idx, v)
        self.pivots.insert(idx, pivot)
        self.undo.append(idx)
        return v, pivot

    def pop(self):
        idx = self.undo.pop()
        if idx >= 0:
            del self.rows[idx], self.pivots[idx]


def search_by_residuals(lat, max_degree=3):
    """Realizable systems as rhs dicts, in search order."""
    from aslattice.straightening import multichains
    from aslattice.uniqueness import _candidate_rhs

    pos, n = lat.position, len(lat)
    pairs = lat.induction_pairs
    chains = []
    for d in range(1, max_degree + 1):
        for ch in multichains(lat, d):
            vec = [0] * n
            for m in ch:
                vec[pos[m]] += 1
            chains.append(tuple(vec))
    ech = _UndoEchelon(n)
    sig_stack = [chains]
    assignment, results = {}, []

    def dfs(i):
        if i == len(pairs):
            results.append(dict(assignment))
            return
        a, b = pairs[i]
        for lo, hi in _candidate_rhs(lat, a, b):
            row = [0] * n
            for m, s in ((a, 1), (b, 1), (lo, -1), (hi, -1)):
                row[pos[m]] += s
            pushed = ech.push(row)
            if pushed is None:
                sigs = sig_stack[-1]
            else:
                r, c = pushed
                sigs = [tuple(x * r[c] - y * s[c] for x, y in zip(s, r)) for s in sig_stack[-1]]
            if pushed is None or len(set(sigs)) == len(sigs):
                sig_stack.append(sigs)
                assignment[(a, b)] = (lo, hi)
                dfs(i + 1)
                del assignment[(a, b)]
                sig_stack.pop()
            ech.pop()

    dfs(0)
    return results


def brute_canonical_key(p):
    """Reference key: explicit minimum over every linear extension."""
    n = p.n
    best = None
    for perm in permutations(range(n)):
        pos = {e: t for t, e in enumerate(perm)}
        if any(
            p.leq(i, j) and i != j and pos[i] > pos[j]
            for i in range(n)
            for j in range(n)
        ):
            continue
        cols = []
        for t, e in enumerate(perm):
            code = 0
            for s in range(t):
                if perm[s] != e and p.leq(perm[s], e):
                    code |= 1 << s
            cols.append(code)
        if best is None or cols < best:
            best = cols
    return bytes(best)


# --- canonical key by trying every candidate ---
# _kernels.canonical_key as it stood before its search ran over cells of
# tied elements: a branch-and-bound over single elements in (code, v)
# order, with twins placed in index order.  Kept only as a reference; the
# kernel gives the same key on every input.

# _BITS[m]: the indices of the set bits of m, ascending, for every mask of
# at most 8 elements.
_BITS = [()]
for _i in range(8):
    _BITS += [_b + (_i,) for _b in _BITS]
_BITS = tuple(_BITS)
del _i


def canonical_key_by_extensions(lt, pred):
    """Lexicographically minimal adjacency encoding over linear extensions.

    ``lt[i]`` / ``pred[i]`` are strict successor / predecessor bitmasks.
    The key is one byte per position: the j-th byte encodes which earlier
    elements of the chosen linear extension lie below the j-th one.  The
    minimum over all linear extensions is a relabeling invariant, so two
    posets get equal keys exactly when they are isomorphic.

    The branch-and-bound search tries candidates in ``(code, v)`` order, so
    its first leaf is the greedy encoding; a prefix tied with the best is
    pruned only once that first leaf has set a best.  Its state is kept
    incrementally:

    * ``order[x]`` is ``code << 3 | x``, x's place in ``(code, v)`` order,
      where ``code`` is the mask of the positions of the placed elements
      below x.  Placing v at position ``pos`` sets that position's bit in
      the code of each strict successor of v, and taking v back clears it.
    * The candidate mask loses v and gains each strict successor of v, and
      the next twin of v, whose needs are now all placed.
    * Twins are elements with equal ``(lt, pred)``.  Each element needs its
      predecessors and its lower-index twins placed, so of each twin class
      only the lowest-index unplaced member is ever a candidate.

    This is the search tree of trying every available element and dropping
    a candidate whose ``(code, lt)`` repeats an earlier one: a candidate's
    predecessors are all placed and its code lists their positions, so two
    candidates have equal codes exactly when they have equal strict
    down-sets, a repeated ``(code, lt)`` is exactly a twin, and the earlier
    one in ``(code, v)`` order is the lowest-index twin, the one kept here.
    """
    n = len(lt)
    if n > 8:
        raise ValueError("canonical_key supports at most 8 elements")
    need = list(pred)
    release = list(lt)
    last = {}
    for v, sig in enumerate(zip(lt, pred)):
        u = last.get(sig)
        if u is not None:
            need[v] |= 1 << u
            release[u] |= 1 << v
        last[sig] = v
    succ = [_BITS[m] for m in lt]
    release = [_BITS[m] for m in release]
    order = list(range(n))
    cols = []
    best = None

    def dfs(placed, avail, equal):
        nonlocal best
        pos = len(cols)
        if pos == n:
            if best is None or cols < best:
                best = cols[:]
            return
        bit = 8 << pos  # this position's bit in a code, above the index
        for c in sorted(map(order.__getitem__, _BITS[avail])):
            code = c >> 3
            v = c & 7
            sub_equal = equal
            if equal and best is not None:
                if code > best[pos]:
                    break
                sub_equal = code == best[pos]
            for x in succ[v]:
                order[x] |= bit
            now = placed | 1 << v
            nxt = avail ^ 1 << v
            for x in release[v]:
                if not need[x] & ~now:
                    nxt |= 1 << x
            cols.append(code)
            dfs(now, nxt, sub_equal)
            cols.pop()
            for x in succ[v]:
                order[x] ^= bit

    start = 0
    for v in range(n):
        if not need[v]:
            start |= 1 << v
    dfs(0, start, True)
    return bytes(best)


# --- certificate steps, written straight from the witness choice ---
# The builder as it stood before it took its records from replay's own
# checks: every field of a refutation is written from the deterministic
# witness (_Side.alternatives), and nothing is checked.  Kept only as a
# reference that the built steps must equal.


def certificate_steps_reference(lat):
    """The certificate steps of ``lat``'s poset, a sum of chains, yielded
    one at a time."""
    p = lat.poset
    rhs = straightening_relations(lat, RealizationKind.ORDER).rhs
    sides = (_Side(lat, dual=False), _Side(lat, dual=True))
    for pair in lat.induction_pairs:
        a, b = pair
        refs = []
        for side in sides:
            sa, sb = a ^ side.flip, b ^ side.flip
            j, m = sa | sb, sa & sb
            for alt, wit in side.alternatives(j):
                if wit is None:
                    raise PreconditionViolated(
                        "no admissible adjoined element; poset is not a sum of chains"
                    )
                p_elem, q_elem = wit
                swapped = p_elem is not None and not sb >> p_elem & 1
                base, ext = (sb, sa) if swapped else (sa, sb)
                alpha1 = ext | 1 << q_elem
                refs.append(
                    Refutation(
                        side.name, alt, swapped, p_elem, q_elem, alpha1, (base, alpha1),
                        ((m, ext, base | alpha1), (m, alpha1, alt)),
                    )
                )
        yield CertificateStep(pair, induction_parameter(p, a, b), rhs[pair], tuple(refs))


# --- certificate replay, one refutation at a time ---
# The validator as it stood before replay was organized per (step, side):
# every refutation recomputes the pair's union and meet, the witness choice
# and both sorted collision chains.  Kept only as a reference for
# validate_certificate's (ok, reason); it shares the library's lattice view
# (_Side) for the per-set tables and nothing else.


def _select_extension(side, a_side, b_side, alt):
    j = a_side | b_side
    outside = alt & ~j
    top = side.maxels(j)
    while top:
        x = top.bit_length() - 1
        top ^= 1 << x
        hit = side.cover_mask[x] & outside
        if hit:
            swapped = not (b_side >> x & 1)
            return x, hit.bit_length() - 1, swapped
    usable = outside & side.minimal_mask
    if not usable:
        raise PreconditionViolated("no admissible adjoined element; poset is not a sum of chains")
    return None, (usable & -usable).bit_length() - 1, False


def _sort_chain(side, masks):
    return tuple(sorted(masks, key=side.position.__getitem__))


def _is_closed(side, m):
    return m in side.position


def _fail(msg):
    raise InvalidCertificate(msg)


def validate_certificate_reference(p, cert):
    try:
        _validate_reference(p, cert)
    except InvalidCertificate as exc:
        return False, str(exc)
    return True, "ok"


def _validate_reference(p, cert):
    if cert.poset != p:
        _fail("certificate was issued for a different poset")
    if not is_direct_sum_of_chains(p):
        _fail("poset is not a direct sum of chains")
    lat = enumerate_ideals(p)
    sides = (_Side(lat, dual=False), _Side(lat, dual=True))
    if [s.pair for s in cert.steps] != list(lat.induction_pairs):
        _fail("steps do not list the incomparable pairs in certificate order")
    index_of_pair = {s.pair: i for i, s in enumerate(cert.steps)}

    for idx, step in enumerate(cert.steps):
        a, b = step.pair
        k = induction_parameter(p, a, b)
        if step.k != k:
            _fail(f"step {idx}: stored parameter {step.k} differs from {k}")
        if step.rhs != (a & b, a | b):
            _fail(f"step {idx}: right-hand side is not the canonical one")
        expected_alts = []
        for side in sides:
            sa, sb = a ^ side.flip, b ^ side.flip
            j = sa | sb
            expected_alts.extend((side, x) for x in side.ideals if j & ~x == 0 and x != j)
        if len(step.refutations) != len(expected_alts):
            _fail(f"step {idx}: expected {len(expected_alts)} refutations, found {len(step.refutations)}")
        for ref, (side, alt) in zip(step.refutations, expected_alts):
            _validate_refutation_reference(p, lat, index_of_pair, idx, step, ref, side, alt)


def _validate_refutation_reference(p, lat, index_of_pair, idx, step, ref, side, alt):
    where = f"step {idx} ({ref.side} side)"
    if ref.side != side.name or ref.alternative != alt:
        _fail(f"{where}: refutation list does not match the enumerated alternatives")
    a, b = step.pair
    sa, sb = a ^ side.flip, b ^ side.flip
    sj, sm = sa | sb, sa & sb
    if not _is_closed(side, alt) or sj & ~alt or alt == sj:
        _fail(f"{where}: alternative is not a closed strict superset of the union")
    try:
        p_exp, q_exp, sw_exp = _select_extension(side, sa, sb, alt)
    except PreconditionViolated:
        _fail(f"{where}: no admissible witness elements exist")
    if (ref.p, ref.q, ref.swapped) != (p_exp, q_exp, sw_exp):
        _fail(f"{where}: witness elements differ from the deterministic choice")
    base, ext = (sb, sa) if ref.swapped else (sa, sb)
    outside = alt & ~sj
    if not outside >> ref.q & 1:
        _fail(f"{where}: adjoined element is not strictly inside the alternative")
    if ref.p is None:
        if not side.minimal_mask >> ref.q & 1:
            _fail(f"{where}: adjoined element without covered element must be minimal")
        if ref.swapped:
            _fail(f"{where}: swap is meaningless without a covered element")
    else:
        if not side.cover_mask[ref.p] >> ref.q & 1:
            _fail(f"{where}: q does not cover p")
        if not side.maxels(sj) >> ref.p & 1:
            _fail(f"{where}: p is not maximal in the union")
        if not ext >> ref.p & 1:
            _fail(f"{where}: p does not lie in the extended component")
    if ref.alpha1 != ext | (1 << ref.q):
        _fail(f"{where}: alpha1 is not the extended component plus q")
    if not _is_closed(side, ref.alpha1):
        _fail(f"{where}: alpha1 is not closed")
    if ref.alpha1 & ~alt:
        _fail(f"{where}: alpha1 is not contained in the alternative")
    if base & ref.alpha1 != sm:
        _fail(f"{where}: adjoining q must not change the intersection")
    if (base | ref.alpha1).bit_count() != sj.bit_count() + 1:
        _fail(f"{where}: adjoining q must grow the union by exactly one element")
    if base & ~ref.alpha1 == 0 or ref.alpha1 & ~base == 0:
        _fail(f"{where}: prior pair is not incomparable")
    if ref.prior_pair != (base, ref.alpha1):
        _fail(f"{where}: stored prior pair mismatch")
    prior_primal = tuple(
        sorted(
            (base ^ side.flip, ref.alpha1 ^ side.flip),
            key=lat.position.__getitem__,
        )
    )
    prior_idx = index_of_pair.get(prior_primal)
    if prior_idx is None or prior_idx >= idx:
        _fail(f"{where}: prior pair is not certified earlier")
    if induction_parameter(p, *prior_primal) != step.k - 1:
        _fail(f"{where}: prior pair parameter is not one less")
    left = _sort_chain(side, (sm, ext, base | ref.alpha1))
    right = _sort_chain(side, (sm, ref.alpha1, alt))
    if ref.collision != (left, right):
        _fail(f"{where}: collision monomials differ from the replayed ones")
    for chain in ref.collision:
        for x, y in zip(chain, chain[1:]):
            if x & ~y:
                _fail(f"{where}: collision entry is not a multichain")
        for m in chain:
            if not _is_closed(side, m):
                _fail(f"{where}: collision entry contains a non-closed set")
    if left == right:
        _fail(f"{where}: collision monomials are not distinct")
    via_hyp = _sort_chain(side, (ref.alpha1, sm, alt))
    via_prior = _sort_chain(side, (ext, base & ref.alpha1, base | ref.alpha1))
    if via_hyp != right or via_prior != left:
        _fail(f"{where}: collision monomials are not derivable from the two relations")


# --- the certificate document as a dict tree ---
# The encoder as it stood before certificate_to_json wrote the compact text
# straight from the records.  Kept only as a reference: json.dumps of this
# document with separators=(",", ":") is the certificate file, byte for byte.


def certificate_doc_reference(cert):
    p = cert.poset

    def labs(m):
        return p.labels_of(m)

    def elem(i):
        return None if i is None else p.labels[i]

    return {
        "format": CERT_FORMAT,
        "elements": list(p.labels),
        "covers": [[p.labels[i], p.labels[j]] for i, j in p.covers],
        "steps": [
            {
                "pair": [labs(s.pair[0]), labs(s.pair[1])],
                "k": s.k,
                "rhs": [labs(s.rhs[0]), labs(s.rhs[1])],
                "refutations": [
                    {
                        "side": r.side,
                        "alternative": labs(r.alternative),
                        "swapped": r.swapped,
                        "p": elem(r.p),
                        "q": elem(r.q),
                        "alpha1": labs(r.alpha1),
                        "prior_pair": [labs(r.prior_pair[0]), labs(r.prior_pair[1])],
                        "collision": [
                            [labs(m) for m in r.collision[0]],
                            [labs(m) for m in r.collision[1]],
                        ],
                    }
                    for r in s.refutations
                ],
            }
            for s in cert.steps
        ],
    }


# --- the certificate parser, field by field ---
# certificate_from_json as it stood before it read each refutation at its
# written shape in one step.  Kept only as a reference: the parser gives
# the same certificate or the same InvalidCertificate text on any document.


class _Memo(dict):
    """A dict that computes a missing key's value with ``compute`` on first
    lookup and keeps it: a certificate repeats few masks and elements."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def certificate_from_json_reference(doc: dict, p: Poset) -> UniquenessCertificate:
    """Parse a certificate against a poset; structural problems raise
    InvalidCertificate.

    A certificate repeats few label arrays, so a plain list is looked up
    in the mask cache directly, and its labels are checked only when the
    cache first misses it; the other helpers run only on a value of the
    wrong type.  Fields are read and checked in one fixed order (a step's
    refutations before its pair, parameter and right-hand side), and the
    first failed check gives the message."""

    def checked_mask(key: tuple) -> int:
        labels = list(key)
        if not all(isinstance(x, str) for x in key):
            _fail(f"label array {labels!r} holds a non-string")
        m = p.mask_of(key)
        if p.labels_of(m) != labels:
            _fail(f"label array {labels!r} is not in canonical index order")
        return m

    masks = _Memo(checked_mask)  # label tuple -> mask, checked on first use
    index = p.label_index

    def mask(labels) -> int:
        if not isinstance(labels, list):
            _fail(f"label array {labels!r} is not a list")
        return masks[tuple(labels)]

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

    def masks_of(arrays) -> tuple[int, ...]:
        return tuple([masks[tuple(a)] if type(a) is list else mask(a) for a in arrays])

    try:
        if doc.get("format") != CERT_FORMAT:
            _fail("unrecognized certificate format")
        if doc["elements"] != list(p.labels):
            _fail("certificate elements do not match the poset")
        if not isinstance(doc["covers"], list) or not all(isinstance(c, list) for c in doc["covers"]):
            _fail("certificate covers are not label pairs")
        covers = {(p.index_of(a), p.index_of(b)) for a, b in doc["covers"]}
        if covers != set(p.covers):
            _fail("certificate covers do not match the poset")
        if not isinstance(doc["steps"], list):
            _fail("certificate steps are not a list")
        steps = []
        for s in doc["steps"]:
            refs = []
            for r in typed(s["refutations"], list, "step refutations"):
                side = r["side"]
                if side not in ("join", "meet"):
                    _fail(f"refutation side {side!r} is not 'join' or 'meet'")
                alt = r["alternative"]
                alt = masks[tuple(alt)] if type(alt) is list else mask(alt)
                swapped = r["swapped"]
                if type(swapped) is not bool:
                    typed(swapped, bool, "swapped flag")
                rp = r["p"]
                if rp is not None:
                    rp = index[rp] if type(rp) is str and rp in index else element(rp)
                q = r["q"]
                q = index[q] if type(q) is str and q in index else element(q)
                alpha1 = r["alpha1"]
                alpha1 = masks[tuple(alpha1)] if type(alpha1) is list else mask(alpha1)
                prior = masks_of(two(r["prior_pair"], "prior pair"))
                left, right = two(r["collision"], "collision")
                collision = (masks_of(left), masks_of(right))
                refs.append(Refutation(side, alt, swapped, rp, q, alpha1, prior, collision))
            steps.append(
                CertificateStep(
                    masks_of(two(s["pair"], "step pair")),
                    typed(s["k"], int, "step parameter"),
                    masks_of(two(s["rhs"], "step right-hand side")),
                    tuple(refs),
                )
            )
        return UniquenessCertificate(poset=p, steps=tuple(steps))
    except InvalidCertificate:
        raise
    except Exception as exc:  # malformed structure, unknown labels, ...
        raise InvalidCertificate(f"malformed certificate: {exc}") from exc
