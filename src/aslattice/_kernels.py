"""Bitmask kernels.

The three functions here are the hot inner loops of the whole package:
relation closure, order-ideal enumeration, and canonical-key search.  All
of them operate on plain integer bitmasks.  Ideals are built by extending
the ideals of a prefix of the elements one element at a time, and the
ideal ``cap`` is checked before every append, so a refused input never
holds more than ``cap`` masks.

The key search is individualization-refinement (McKay and Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014) over
ordered partitions of the placed elements: a cell is a set of placed
elements on consecutive positions whose order is fixed only when a later
choice depends on it.  It is exact because (a) cells cover disjoint
position ranges, so each cell's lowest positions minimize a code
independently; (b) candidates tied at the least code have equal counts in
every cell, so splitting for one group raises every other group's code;
(c) the rest of a group keeps that code once one member is placed, and
every other candidate is larger, so the whole group is placed next.
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
_LOW = tuple((1 << k) - 1 for k in range(9))  # the k lowest bits


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


def canonical_key(pred):
    """Lexicographically minimal adjacency encoding over linear extensions.

    ``pred[i]`` is the strict predecessor bitmask of element i.  The key
    is one byte per position: the j-th byte encodes which earlier elements
    of the chosen linear extension lie below the j-th one.  The minimum
    over all linear extensions is a relabeling invariant, so two posets
    get equal keys exactly when they are isomorphic.

    A search node holds the placed elements as ``cells``, ``(start, mask)``
    pairs: ``mask`` fills the positions from ``start`` in an order not
    fixed yet.  An available element z gets its least achievable code: the
    lowest ``|pred[z] & mask|`` positions of each cell.  With ``lo`` the
    least of these, each ``pred`` value of the candidates coded ``lo`` is
    one branch: split every cell into ``(mask & pred, mask & ~pred)``, in
    that order, place the group as a new cell, and extend the key by one
    ``lo`` per member.  A node whose key with ``lo`` appended exceeds the
    best key's prefix is pruned.  This is exact: (a) cells cover disjoint
    position ranges, so each cell's lowest positions minimize a code
    independently; (b) candidates tied at ``lo`` have equal counts in every
    cell, so splitting for one group raises the code of every other group;
    (c) once one member of a group is placed, the others keep ``lo`` and
    every other candidate is larger (a newly available element carries the
    newest bit), so a minimal extension places the whole group next, in
    any order.  Elements with equal ``pred`` share a group.
    """
    n = len(pred)
    if n > 8:
        raise ValueError("canonical_key supports at most 8 elements")
    if not n:
        return b""
    key = []
    best = None

    def dfs(cells, rest, pos):
        nonlocal best
        groups = {}
        for z in _BITS[rest]:
            p = pred[z]
            if not p & rest:
                groups[p] = groups.get(p, 0) | 1 << z
        lo = 256
        for p in groups:
            code = 0
            for start, mask in cells:
                code |= _LOW[(p & mask).bit_count()] << start
            if code < lo:
                lo = code
                tied = [p]
            elif code == lo:
                tied.append(p)
        if best is not None and key + [lo] > best[: pos + 1]:
            return
        for p in tied:
            group = groups[p]
            size = group.bit_count()
            key.extend([lo] * size)
            if pos + size == n:
                if best is None or key < best:
                    best = key[:]
            else:
                split = []
                for start, mask in cells:
                    below = mask & p
                    if below and below != mask:
                        split.append((start, below))
                        split.append((start + below.bit_count(), mask ^ below))
                    else:
                        split.append((start, mask))
                split.append((pos, group))
                dfs(split, rest ^ group, pos + size)
            del key[pos:]

    dfs([], (1 << n) - 1, 0)
    return bytes(best)
