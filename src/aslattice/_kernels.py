"""Bitmask kernels.

The three functions here are the hot inner loops of the whole package:
relation closure, order-ideal enumeration, and canonical-key search.  All
of them operate on plain integer bitmasks, and each is one plain pass:
the key search tries candidates in ``(code, v)`` order, so its first leaf
is the greedy encoding and seeds the bound without a separate descent;
ideals are built by extending the ideals of a prefix of the elements one
element at a time; and the ideal ``cap`` is checked before every append,
so a refused input never holds more than ``cap`` masks.

The key search keeps its state incrementally: each element's code and
the candidate set change only when an element is placed or taken back,
and twins are found once per call, so a search node costs work per
candidate and per successor of the element it places, not a scan of
every placed and unplaced element.
"""

# The only implementation; kept as a constant for code that records it.
BACKEND = "pure"

# _BITS[m]: the indices of the set bits of m, ascending, for every mask of
# at most 8 elements; the masks with bit i are those without it, plus i.
_BITS = [()]
for _i in range(8):
    _BITS += [_b + (_i,) for _b in _BITS]
_BITS = tuple(_BITS)
del _i


def transitive_closure(up):
    """Close reflexive successor rows under transitivity (bit-row Warshall).

    ``up[i]`` is the bitmask of elements j with i <= j, including i itself.
    Returns a new list of closed rows.
    """
    n = len(up)
    rows = list(up)
    for k in range(n):
        bit = 1 << k
        row_k = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return rows


def enumerate_ideal_masks(down, cap):
    """All down-closed subsets of a poset given as predecessor rows.

    ``down[j]`` is the bitmask of elements i with i <= j, including j.
    Element indices must form a linear extension (predecessors of j sit
    below j).  The ideals of elements 0..j are then those of 0..j-1, plus
    each of those with j added when it holds j's strict predecessors, so
    one loop over the elements builds them all.  Raises ValueError, naming
    the bound, at the append that would pass ``cap`` ideals.  Output is
    sorted by (cardinality, mask value).
    """
    over = f"ideal count exceeds capacity bound of {cap:,} ideals"
    if cap < 1:
        raise ValueError(over)  # even the empty order has one ideal
    out = [0]
    for j, row in enumerate(down):
        bit = 1 << j
        below = row & ~bit
        for k in range(len(out)):
            m = out[k]
            if below & ~m == 0:
                if len(out) >= cap:
                    raise ValueError(over)
                out.append(m | bit)
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def canonical_key(lt, pred):
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
