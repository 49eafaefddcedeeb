"""Finite posets: construction, duality, chains, components, and I/O.

Elements carry opaque string labels; everything internal works on integer
indices under a fixed linear extension (index i < j whenever p_i < p_j),
so subsets of the ground set are plain machine-word bitmasks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from aslattice import _kernels
from aslattice.errors import (
    CapacityExceeded,
    CycleDetected,
    DuplicateLabel,
    MalformedPoset,
    UnknownLabel,
)

MAX_ELEMENTS = 64


@dataclass(frozen=True)
class Poset:
    """Immutable finite poset.

    ``up[i]`` is the bitmask of indices j with p_i <= p_j (reflexive); the
    labels and this order are the whole poset.  Every other table (``down``,
    the cover lists, ``covers``) is derived from ``up`` on first read.
    Instances are produced by :func:`build_poset`, which validates
    acyclicity and fixes the linear-extension indexing (generation reads
    already closed and indexed orders off canonical keys directly); all
    operations may assume a valid order.
    """

    labels: tuple[str, ...]
    up: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[j] = bitmask of indices i with p_i <= p_j (reflexive)."""
        rows = [0] * len(self.labels)
        for i, row in enumerate(self.up):
            m = row
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                rows[j] |= 1 << i
        return tuple(rows)

    @cached_property
    def upper_cover(self) -> tuple[tuple[int, ...], ...]:
        return _cover_lists(self.up)

    @cached_property
    def lower_cover(self) -> tuple[tuple[int, ...], ...]:
        return _cover_lists(self.down)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The transitive reduction as (i, j) pairs, ascending."""
        return tuple((i, j) for i, js in enumerate(self.upper_cover) for j in js)

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def comparable(self, i: int, j: int) -> bool:
        return self.leq(i, j) or self.leq(j, i)

    def index_of(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise UnknownLabel(f"unknown element {label!r}") from None

    def mask_of(self, labels) -> int:
        m = 0
        for lab in labels:
            m |= 1 << self.index_of(lab)
        return m

    def labels_of(self, mask: int) -> list[str]:
        return [self.labels[i] for i in iter_bits(mask)]

    def __repr__(self) -> str:
        rel = ", ".join(f"{self.labels[i]}<{self.labels[j]}" for i, j in self.covers)
        return f"Poset({list(self.labels)!r}; {rel})"


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _cover_lists(rows) -> tuple[tuple[int, ...], ...]:
    """For each element, its strict row less the strict rows of its
    members, as ascending indices: the upper covers when ``rows`` is
    ``up``, the lower covers when it is ``down``."""
    strict = [row & ~(1 << i) for i, row in enumerate(rows)]
    out = []
    for row in strict:
        beyond = 0
        m = row
        while m:
            low = m & -m
            beyond |= strict[low.bit_length() - 1]
            m ^= low
        out.append(tuple(iter_bits(row & ~beyond)))
    return tuple(out)


def build_poset(labels, covers) -> Poset:
    """Construct a poset from element names and covering pairs.

    The relation is the reflexive-transitive closure of ``covers``; elements
    are reindexed by a stable topological sort of the input order, so the
    result is deterministic.  Raises DuplicateLabel, UnknownLabel, or
    CycleDetected.
    """
    labels = list(labels)
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel(f"duplicate element {lab!r}")
        seen.add(lab)
    if len(labels) > MAX_ELEMENTS:
        raise CapacityExceeded(f"at most {MAX_ELEMENTS} elements supported")
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    succ: list[set[int]] = [set() for _ in range(n)]
    below = [0] * n  # distinct lower covers not yet placed
    for a, b in covers:
        if a not in index:
            raise UnknownLabel(f"unknown element {a!r} in cover")
        if b not in index:
            raise UnknownLabel(f"unknown element {b!r} in cover")
        i, j = index[a], index[b]
        if i == j:
            raise CycleDetected(f"cover {a!r} < {b!r} relates an element to itself")
        if j not in succ[i]:
            succ[i].add(j)
            below[j] += 1

    # Kahn topological sort, always taking the smallest available input
    # index: the start list is ascending, so already a heap, and a heap pops
    # its least entry whatever order the entries were pushed in.
    order: list[int] = []
    heap = [i for i in range(n) if not below[i]]
    while heap:
        i = heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            below[j] -= 1
            if not below[j]:
                heapq.heappush(heap, j)
    if len(order) != n:
        raise CycleDetected("cover relation contains a cycle")

    new_pos = {old: new for new, old in enumerate(order)}
    rows = [1 << k for k in range(n)]
    for k, i in enumerate(order):
        for j in succ[i]:
            rows[k] |= 1 << new_pos[j]
    closed = _kernels.transitive_closure(rows)
    new_labels = tuple(labels[i] for i in order)
    return Poset(labels=new_labels, up=tuple(closed))


def dual(p: Poset) -> Poset:
    """The poset with all relations reversed, reindexed deterministically."""
    rev = [(p.labels[j], p.labels[i]) for i, j in p.covers]
    return build_poset(p.labels, rev)


def connected_components(p: Poset) -> tuple[tuple[int, ...], ...]:
    """Partition of indices by connectivity of the comparability graph,
    ordered by smallest member."""
    parent = list(range(p.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in p.covers:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(p.n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))


def is_direct_sum_of_chains(p: Poset) -> bool:
    """True when every connected component is totally ordered, read off
    the cover lists: exactly when no element has two upper covers or two
    lower covers.  Two covers of one element are incomparable; without
    them the Hasse diagram is a union of disjoint paths, each a chain."""
    return all(len(c) < 2 for c in p.upper_cover) and all(len(c) < 2 for c in p.lower_cover)


def maximal_chains(p: Poset) -> list[tuple[int, ...]]:
    """All inclusion-maximal chains as ascending index tuples, in
    lexicographic order: a depth-first walk along the upper covers from the
    minimal elements, smallest index first."""
    out: list[tuple[int, ...]] = []
    stack = [(i,) for i in reversed(range(p.n)) if not p.lower_cover[i]]
    while stack:
        chain = stack.pop()
        ups = p.upper_cover[chain[-1]]
        if ups:
            stack += [chain + (j,) for j in reversed(ups)]
        else:
            out.append(chain)
    return out


def count_maximal_chains(p: Poset) -> int:
    """Number of maximal chains, without listing them: a maximal chain is
    a path of covers from a minimal to a maximal element, and indices are
    a linear extension, so paths are counted in index order."""
    paths: list[int] = []
    for j in range(p.n):
        paths.append(sum(paths[i] for i in p.lower_cover[j]) if p.lower_cover[j] else 1)
    return sum(paths[j] for j in range(p.n) if not p.upper_cover[j])


def poset_from_json(doc) -> Poset:
    """Build from the ``{"elements": [...], "covers": [[a,b],...]}`` schema.

    Elements must be a list of strings that encode as UTF-8 (JSON admits
    lone surrogates such as ``"\\ud800"``, which no output can print) and
    covers a list of two-string pairs; anything else raises MalformedPoset
    before the order is built.
    """
    if not isinstance(doc, dict) or "elements" not in doc:
        raise UnknownLabel("poset document must contain an 'elements' list")
    elements = doc["elements"]
    if not isinstance(elements, (list, tuple)) or not all(isinstance(x, str) for x in elements):
        raise MalformedPoset("'elements' must be a list of string labels")
    for x in elements:
        try:
            x.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedPoset(f"element label {x!r} is not valid Unicode text") from None
    covers = doc.get("covers", [])
    if not isinstance(covers, (list, tuple)) or not all(
        isinstance(c, (list, tuple)) and len(c) == 2 and all(isinstance(x, str) for x in c)
        for c in covers
    ):
        raise MalformedPoset("'covers' must be a list of [lower, upper] label pairs")
    return build_poset(elements, [tuple(c) for c in covers])


def poset_to_json(p: Poset) -> dict:
    """The ``{"elements": [...], "covers": [[a,b],...]}`` document of a
    poset; certificate headers and corpus counterexamples embed it."""
    return {
        "elements": list(p.labels),
        "covers": [[p.labels[i], p.labels[j]] for i, j in p.covers],
    }


def label_set(labels) -> str:
    """A set of element labels as text: ``{a,b}``, ``{}`` when empty."""
    return "{" + ",".join(labels) + "}"


def dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_digraph(name: str, nodes, edges) -> str:
    """DOT source of a diagram drawn bottom to top: the quoted nodes, then
    one quoted ``lower -> upper`` edge per pair."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    lines += [f"  {dot_quote(v)};" for v in nodes]
    lines += [f"  {dot_quote(a)} -> {dot_quote(b)};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_dot(p: Poset) -> str:
    """DOT source for the Hasse diagram, ranked bottom-to-top."""
    labels = p.labels
    return dot_digraph("hasse", labels, ((labels[i], labels[j]) for i, j in p.covers))
