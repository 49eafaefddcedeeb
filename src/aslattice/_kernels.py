"""Bitmask kernels.

The three functions here are the hot inner loops of the whole package:
relation closure, order-ideal enumeration, and canonical-key search.  All
of them operate on plain integer bitmasks.
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
        row_k = rows[k]
    return rows


def enumerate_ideal_masks(down, cap):
    """All down-closed subsets of a poset given as predecessor rows.

    ``down[j]`` is the bitmask of elements i with i <= j, including j.
    Element indices must form a linear extension (predecessors of j sit
    below j), which lets membership be decided in index order.  Raises
    ValueError, naming the bound, when more than ``cap`` ideals exist.
    Output is sorted by (cardinality, mask value).
    """
    n = len(down)
    out = []

    def rec(j, cur):
        if j == n:
            out.append(cur)
            if len(out) > cap:
                raise ValueError(f"ideal count exceeds capacity bound of {cap:,} ideals")
            return
        rec(j + 1, cur)
        if down[j] & ~(cur | (1 << j)) == 0:
            rec(j + 1, cur | (1 << j))

    rec(0, 0)
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def canonical_key(n, lt, pred):
    """Lexicographically minimal adjacency encoding over linear extensions.

    ``lt[i]`` / ``pred[i]`` are strict successor / predecessor bitmasks.
    The key is one byte per position: the j-th byte encodes which earlier
    elements of the chosen linear extension lie below the j-th one.  The
    minimum over all linear extensions is a relabeling invariant, so two
    posets get equal keys exactly when they are isomorphic.
    """
    if n > 8:
        raise ValueError("canonical_key supports at most 8 elements")
    if n == 0:
        return b""
    full = (1 << n) - 1

    def candidates(placed, placed_mask):
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
        return cands

    # Greedy descent seeds the bound for the branch-and-bound search.
    placed, cols, placed_mask = [], [], 0
    for _ in range(n):
        code, v = candidates(placed, placed_mask)[0]
        placed.append(v)
        cols.append(code)
        placed_mask |= 1 << v
    best = cols

    placed, cols = [], []

    def dfs(placed_mask, equal):
        nonlocal best
        pos = len(placed)
        if pos == n:
            if cols < best:
                best = list(cols)
            return
        seen = set()
        for code, v in candidates(placed, placed_mask):
            # Interchangeable candidates (same earlier-element code and same
            # successor set) generate isomorphic subtrees; keep one.
            sig = (code, lt[v])
            if sig in seen:
                continue
            seen.add(sig)
            if equal:
                if code > best[pos]:
                    break
                sub_equal = code == best[pos]
            else:
                sub_equal = False
            placed.append(v)
            cols.append(code)
            dfs(placed_mask | (1 << v), sub_equal)
            placed.pop()
            cols.pop()

    dfs(0, True)
    return bytes(best)
