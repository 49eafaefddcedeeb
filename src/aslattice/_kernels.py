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

Generation keys each child of a parent P as P plus one new maximal
element v, and keys all children of P in a row.  Sharing lemma: at a node
whose unplaced elements still meet v's down-set, v is no candidate, lies
in no cell and in no other element's down-set, so the node expands as in
P's own search, the same for every child (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998, shares work per parent
the same way).  So ``canonical_key`` keeps the search tree of the last
parent it saw and caches the expansion of each such node in it.
"""

# The only implementation; kept as a constant for code that records it.
BACKEND = "pure"

# The most elements a canonical key covers; the tables below are sized by it.
MAX_KEY_N = 8

# _BITS[m]: the indices of the set bits of m, ascending, for every mask of
# at most MAX_KEY_N elements; the masks with bit i are those without it,
# plus i.
_BITS = [()]
for _i in range(MAX_KEY_N):
    _BITS += [_b + (_i,) for _b in _BITS]
_BITS = tuple(_BITS)
del _i
_LOW = tuple((1 << k) - 1 for k in range(MAX_KEY_N + 1))  # the k lowest bits


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
    out.sort()
    out.sort(key=int.bit_count)  # stable: by mask value within a size
    return out


# _REP[k]: k bytes of 1
_REP = tuple(sum(1 << 8 * i for i in range(k)) for k in range(MAX_KEY_N + 1))
_NOT_STRICT = "canonical_key needs the rows of a strict order on range(n)"


class _Node:
    """A node of the kept tree: the placed elements as ``cells``, the
    unplaced ones other than the hidden element as ``rest``, and the key so
    far as an int of ``pos`` bytes.  ``lo`` stays None until the node is
    expanded; then ``branches`` holds one child per tied group."""

    __slots__ = ("cells", "rest", "pos", "key", "branches", "lo")

    def __init__(self, cells, rest, pos, key):
        self.cells = cells
        self.rest = rest
        self.pos = pos
        self.key = key
        self.lo = None


def _split(cells, p, pos, group):
    """The cells once ``group``, whose members have ``pred`` p, is placed
    at ``pos``: each cell split into its part below p and the rest."""
    out = []
    for start, mask in cells:
        below = mask & p
        if below and below != mask:
            out.append((start, below))
            out.append((start + below.bit_count(), mask ^ below))
        else:
            out.append((start, mask))
    out.append((pos, group))
    return out


# (hidden element, the other rows, root) of the last parent keyed
_kept = None


def canonical_key(pred):
    """Lexicographically minimal adjacency encoding over linear extensions.

    ``pred[i]`` is the strict predecessor bitmask of element i; rows that
    are not a strict order on ``range(n)`` raise ValueError, as does
    n > MAX_KEY_N.  The key is one byte per position: the j-th byte encodes
    which earlier elements of the chosen linear extension lie below the
    j-th one.  The minimum over all linear extensions is a relabeling
    invariant, so two posets get equal keys exactly when they are
    isomorphic.

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

    Kept tree: v is the last maximal element and the parent is ``pred``
    without row v.  At a node whose unplaced elements still meet
    ``pred[v]``, v is no candidate, and no cell and no other row holds v,
    so the node's groups, ``lo``, tied groups and splits are those of the
    parent's search, whatever ``pred[v]`` is.  The function keeps the tree
    of the last parent it saw, identified by v and the other rows compared
    by value, and caches each such node's expansion the first time a call
    reaches it.  A call walks the cached nodes while v is unavailable,
    prunes each against its own best key, and expands the nodes below for
    itself: the tree changes how often a node is expanded, never a key.  A
    call with another parent replaces the tree.  A node's branches are
    written before its ``lo``, so a reader never sees half a node.
    """
    global _kept
    n = len(pred)
    if n > MAX_KEY_N:
        raise ValueError(f"canonical_key supports at most {MAX_KEY_N} elements")
    if not n:
        return b""
    v = n - 1
    pv = pred[v]
    kept = _kept
    if kept is not None and kept[0] == v and kept[1] == pred[:v] and not pv >> v:
        # the kept rows were checked, and v is in none of them
        for j in _BITS[pv]:
            if pred[j] & ~pv:
                raise ValueError(_NOT_STRICT)
        root = kept[2]
    else:
        full = _LOW[n]
        below = 0
        for i, row in enumerate(pred):
            if row & ~full or row >> i & 1:
                raise ValueError(_NOT_STRICT)
            for j in _BITS[row]:
                if pred[j] & ~row:
                    raise ValueError(_NOT_STRICT)
            below |= row
        # irreflexive and transitive, so acyclic: some element is maximal
        v = (full & ~below).bit_length() - 1
        rows = list(pred)
        pv = rows.pop(v)
        if kept is not None and kept[0] == v and kept[1] == rows:
            root = kept[2]
        else:
            root = _Node([], full ^ 1 << v, 0, 0)
            _kept = (v, rows, root)
    vbit = 1 << v
    best = 1 << 8 * n  # above every key of n bytes

    def search(cells, rest, pos, key, node):
        # ``node`` is the kept node here, whose ``rest`` leaves v out, or
        # None once v is available
        nonlocal best
        lo = None if node is None else node.lo
        if lo is None:
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
            if node is not None:
                branches = []
                for p in tied:
                    group = groups[p]
                    size = group.bit_count()
                    branches.append(_Node(_split(cells, p, pos, group), rest ^ group,
                                          pos + size, key << 8 * size | lo * _REP[size]))
                node.branches = branches
                node.lo = lo
        if key << 8 | lo > best >> 8 * (n - pos - 1):
            return
        if node is not None:
            for child in node.branches:
                if pv & child.rest:
                    search(child.cells, child.rest, child.pos, child.key, child)
                else:
                    search(child.cells, child.rest | vbit, child.pos, child.key, None)
            return
        for p in tied:
            group = groups[p]
            size = group.bit_count()
            grown = key << 8 * size | lo * _REP[size]
            if pos + size == n:
                if grown < best:
                    best = grown
            else:
                search(_split(cells, p, pos, group), rest ^ group, pos + size, grown, None)

    if pv & root.rest:
        search([], root.rest, 0, 0, root)
    else:
        search([], root.rest | vbit, 0, 0, None)
    return best.to_bytes(n, "big")
