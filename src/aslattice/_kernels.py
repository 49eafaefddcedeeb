"""Bitmask kernels.

The three functions here are the hot inner loops of the whole package:
relation closure, order-ideal enumeration, and canonical-key search.  All
of them operate on plain integer bitmasks, and each is one plain pass:
the key search tries candidates in ``(code, v)`` order, so its first leaf
is the greedy encoding and seeds the bound without a separate descent;
ideals are built by extending the ideals of a prefix of the elements one
element at a time; and the ideal ``cap`` is checked before every append,
so a refused input never holds more than ``cap`` masks.
"""

# The only implementation; kept as a constant for code that records it.
BACKEND = "pure"


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
    pruned only once that first leaf has set a best.
    """
    n = len(lt)
    if n > 8:
        raise ValueError("canonical_key supports at most 8 elements")
    full = (1 << n) - 1
    best = None
    placed, cols = [], []

    def dfs(placed_mask, equal):
        nonlocal best
        pos = len(placed)
        if pos == n:
            if best is None or cols < best:
                best = list(cols)
            return
        cands = []
        m = full & ~placed_mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if pred[v] & ~placed_mask == 0:
                code = 0
                for t, u in enumerate(placed):
                    if lt[u] >> v & 1:
                        code |= 1 << t
                cands.append((code, v))
        cands.sort()
        seen = set()
        for code, v in cands:
            # Interchangeable candidates (same earlier-element code and same
            # successor set) generate isomorphic subtrees; keep one.
            sig = (code, lt[v])
            if sig in seen:
                continue
            seen.add(sig)
            sub_equal = equal
            if equal and best is not None:
                if code > best[pos]:
                    break
                sub_equal = code == best[pos]
            placed.append(v)
            cols.append(code)
            dfs(placed_mask | (1 << v), sub_equal)
            placed.pop()
            cols.pop()

    dfs(0, True)
    return bytes(best)
