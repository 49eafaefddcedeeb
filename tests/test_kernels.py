"""The bitmask kernels against independent oracles."""

import random
import sys

import pytest

import oracles
from aslattice import _kernels, build_poset, generate_posets

ANTICHAIN_DOWN = [1 << i for i in range(8)]  # 256 ideals


def random_strict_order(rng, n):
    """Random transitively closed strict upper-triangular relation."""
    lt = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                lt[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if lt[i] >> k & 1:
                lt[i] |= lt[k]
    return lt


def masks_from_lt(lt):
    n = len(lt)
    up = [lt[i] | (1 << i) for i in range(n)]
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1:
                down[j] |= 1 << i
    pred = [down[i] & ~(1 << i) for i in range(n)]
    return up, down, pred


def naive_closure(rows):
    """Reflexive-transitive closure by a search from every element."""
    n = len(rows)
    out = []
    for i in range(n):
        reach, todo = 1 << i, [i]
        while todo:
            x = todo.pop()
            for j in range(n):
                if rows[x] >> j & 1 and not reach >> j & 1:
                    reach |= 1 << j
                    todo.append(j)
        out.append(reach)
    return out


def naive_ideal_masks(down):
    """Every subset closed under predecessors, by (cardinality, mask)."""
    n = len(down)
    ideals = [m for m in range(1 << n) if all(down[j] & ~m == 0 for j in range(n) if m >> j & 1)]
    return sorted(ideals, key=lambda m: (m.bit_count(), m))


def poset_from_lt(lt):
    n = len(lt)
    labels = [str(i) for i in range(n)]
    return build_poset(labels, [(labels[i], labels[j]) for i in range(n) for j in range(n)
                                if lt[i] >> j & 1])


def test_transitive_closure():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 12)
        rows = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    rows[i] |= 1 << j
        assert _kernels.transitive_closure(rows) == naive_closure(rows)


def test_enumerate_ideal_masks():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 10)
        lt = random_strict_order(rng, n)
        _, down, _ = masks_from_lt(lt)
        assert _kernels.enumerate_ideal_masks(down, 1 << 12) == naive_ideal_masks(down)


def test_canonical_key():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 7)
        lt = random_strict_order(rng, n)
        _, _, pred = masks_from_lt(lt)
        want = oracles.brute_canonical_key(poset_from_lt(lt))
        assert _kernels.canonical_key(pred) == want
    assert _kernels.canonical_key([]) == b""
    with pytest.raises(ValueError):
        _kernels.canonical_key([0] * 9)


def test_enumerate_capacity_boundary():
    with pytest.raises(ValueError):
        _kernels.enumerate_ideal_masks(ANTICHAIN_DOWN, 100)
    rng = random.Random(19)
    downs = [ANTICHAIN_DOWN, []]
    for _ in range(40):
        _, down, _ = masks_from_lt(random_strict_order(rng, rng.randint(1, 9)))
        downs.append(down)
    for down in downs:
        want = naive_ideal_masks(down)
        count = len(want)
        assert _kernels.enumerate_ideal_masks(down, count) == want
        with pytest.raises(ValueError, match=f"capacity bound of {count - 1:,} ideals"):
            _kernels.enumerate_ideal_masks(down, count - 1)


def test_canonical_key_label_invariance():
    for lt, key in _relabelled_cases():
        _, _, pred = masks_from_lt(lt)
        assert _kernels.canonical_key(pred) == key


@pytest.mark.parametrize(
    "n, relations",
    [
        (5, []),
        (6, []),
        (6, [(i, j) for i in range(3) for j in range(3, 6)]),  # K3,3
        (5, [(0, j) for j in range(1, 5)]),  # K1,4: one point under four
        (5, [(i, 4) for i in range(4)]),  # four points under one
        (6, [(0, 1), (2, 3), (4, 5)]),  # three 2-chains
    ],
    ids=["antichain5", "antichain6", "K33", "K14", "K41", "three-2-chains"],
)
def test_canonical_key_twin_classes(n, relations):
    # twin classes (equal strict up- and down-sets) of three or more
    # elements, and the three 2-chains, whose chains are interchangeable but
    # hold no twins; each relabelled along random linear extensions and at
    # random, which puts a class that leaves out some element at indices
    # that are not consecutive
    lt = [0] * n
    for i, j in relations:
        lt[i] |= 1 << j
    want = oracles.brute_canonical_key(poset_from_lt(lt))
    rng = random.Random(23)
    sizes, spread = set(), False
    for t in range(40):
        perm = _random_linear_extension(rng, n, lt) if t % 2 else rng.sample(range(n), n)
        lt2 = _relabel(lt, perm)
        _, _, pred = masks_from_lt(lt2)
        assert _kernels.canonical_key(pred) == want
        classes = {}
        for v, sig in enumerate(zip(lt2, pred)):
            classes.setdefault(sig, []).append(v)
        sizes.update(len(c) for c in classes.values())
        spread |= any(c[-1] - c[0] >= len(c) >= 3 for c in classes.values())
    assert spread == any(3 <= size < n for size in sizes)


@pytest.fixture(scope="module")
def generation_inputs():
    """Every input that generating the eight-point classes keys, in order."""
    seen = []
    kernel = _kernels.canonical_key

    def recording(pred):
        seen.append(list(pred))
        return kernel(pred)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "canonical_key", recording)
        assert sum(1 for _ in generate_posets(8)) == 16999
    return seen


def _lt_of(pred):
    return [sum(1 << j for j, row in enumerate(pred) if row >> i & 1) for i in range(len(pred))]


def test_canonical_key_matches_extension_search_on_generation(generation_inputs):
    assert len(generation_inputs) == 22396
    for pred in generation_inputs:
        assert _kernels.canonical_key(pred) == oracles.canonical_key_by_extensions(_lt_of(pred), pred)


def test_canonical_key_kept_tree_cannot_change_a_key(generation_inputs):
    # the kept tree is the last parent's; keying the same inputs backwards,
    # and interleaved with relabellings whose last element is not maximal
    # (so another element is hidden), must give the same keys
    want = [oracles.canonical_key_by_extensions(_lt_of(pred), pred) for pred in generation_inputs]
    for pred, key in zip(reversed(generation_inputs), reversed(want)):
        assert _kernels.canonical_key(pred) == key
    rng = random.Random(41)
    hidden_elsewhere = 0
    for pred, key in zip(generation_inputs, want):
        assert _kernels.canonical_key(pred) == key
        lt = _lt_of(pred)
        n = len(pred)
        below = [x for x in range(n) if lt[x]]
        if below:
            last = rng.choice(below)
            perm = [x for x in range(n) if x != last]
            rng.shuffle(perm)
            lt2 = _relabel(lt, perm + [last])
            _, _, pred2 = masks_from_lt(lt2)
            assert lt2[-1]  # the last element is not maximal
            assert _kernels.canonical_key(pred2) == key
            assert _kernels.canonical_key(tuple(pred2)) == key
            hidden_elsewhere += 1
    assert hidden_elsewhere > 20000
    # two inputs whose other rows agree but hide different elements: 0 < 2
    # with v = 2, and 0, 2 < 1 with v = 1; the other rows are [0, 0] in both
    a, b = [0, 0, 0b001], [0, 0b101, 0]
    for pred in (a, b, a, tuple(a), b, tuple(b), tuple(a)):
        assert _kernels.canonical_key(pred) == oracles.canonical_key_by_extensions(_lt_of(pred), list(pred))
    assert _kernels.canonical_key(a) == bytes([0, 0, 1])
    assert _kernels.canonical_key(b) == bytes([0, 0, 3])


def test_canonical_key_work_on_generation(monkeypatch):
    # over generate_posets(8): every node the kept trees expand once, each
    # node below them expanded per key, and the visits to kept nodes; the
    # old search expanded 138,167 nodes, one per visit or per-key expansion
    monkeypatch.setattr(_kernels, "_kept", None)
    counts = {"shared": 0, "visits": 0, "per key": 0, "keys": 0}
    kernel = _kernels.canonical_key

    def counting(pred):
        counts["keys"] += 1
        return kernel(pred)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "search" and frame.f_globals is vars(_kernels):
            node = frame.f_locals["node"]
            if node is None:
                counts["per key"] += 1
            else:
                counts["visits"] += 1
                counts["shared"] += node.lo is None

    monkeypatch.setattr(_kernels, "canonical_key", counting)
    sys.setprofile(profile)
    try:
        assert sum(1 for _ in generate_posets(8)) == 16999
    finally:
        sys.setprofile(None)
    assert counts == {"shared": 12180, "visits": 85497, "per key": 52670, "keys": 22396}
    assert counts["visits"] + counts["per key"] == 138167


@pytest.mark.parametrize(
    "pred",
    [[1], [2, 1], [4], [0, 1, 2], [-1], [0, 0b11]],
    ids=["self-loop", "cycle", "out-of-range", "not-transitive", "negative", "self-loop-last"],
)
def test_canonical_key_refuses_non_orders(pred):
    with pytest.raises(ValueError, match="strict order"):
        _kernels.canonical_key(pred)
    with pytest.raises(ValueError, match="strict order"):
        _kernels.canonical_key(tuple(pred))


def test_canonical_key_refuses_a_bad_last_row_under_a_kept_parent():
    # [0, 1] (0 < 1) is kept; each child below shares it and is checked
    assert _kernels.canonical_key([0, 1, 0b11]) == bytes([0, 1, 3])
    for last in (0b10, 0b100, 0b1000, -1):
        with pytest.raises(ValueError, match="strict order"):
            _kernels.canonical_key([0, 1, last])
    assert _kernels.canonical_key([0, 1, 0]) == bytes([0, 0, 1])


def test_canonical_key_matches_extension_search_on_random_orders():
    rng = random.Random(29)
    for _ in range(20000):
        n = rng.randint(1, 8)
        lt = _relabel(random_strict_order(rng, n), rng.sample(range(n), n))
        _, _, pred = masks_from_lt(lt)
        assert _kernels.canonical_key(pred) == oracles.canonical_key_by_extensions(lt, pred)


def test_canonical_key_six_point_classes_relabelled():
    rng = random.Random(31)
    classes = list(generate_posets(6))
    assert len(classes) == 318
    for cp in classes:
        up = cp.poset.up
        lt = _relabel([row & ~(1 << i) for i, row in enumerate(up)], rng.sample(range(6), 6))
        _, _, pred = masks_from_lt(lt)
        key = _kernels.canonical_key(pred)
        assert key == cp.canonical_key == oracles.brute_canonical_key(poset_from_lt(lt))


@pytest.mark.parametrize(
    "n, relations",
    [
        # a < x, a < z, b < y: x, z and y tie at the code of one element of
        # the cell {a, b}, in groups of two and one
        (5, [(0, 2), (0, 3), (1, 4)]),
        # the same with groups of three and two over the cell {a, b}
        (7, [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6)]),
        # c < y ties with a < x; placing y splits the cell {a, b, c} into
        # {c}, {a, b}, and x then splits {a, b}
        (5, [(2, 3), (0, 4)]),
        # c < y comes first and leaves the cell {a, b}, which the group
        # {x, x'} over both of them keeps whole and w over a, c, y splits
        (7, [(2, 3), (0, 4), (1, 4), (0, 5), (1, 5), (0, 6), (2, 6), (3, 6)]),
    ],
    ids=["tied-2-1", "tied-3-2", "split-earlier", "split-later"],
)
def test_canonical_key_tied_groups(n, relations):
    lt = [0] * n
    for i, j in relations:
        lt[i] |= 1 << j
    want = oracles.brute_canonical_key(poset_from_lt(lt))
    rng = random.Random(37)
    for _ in range(30):
        lt2 = _relabel(lt, rng.sample(range(n), n))
        _, _, pred = masks_from_lt(lt2)
        assert _kernels.canonical_key(pred) == want
        assert oracles.canonical_key_by_extensions(lt2, pred) == want


def _relabelled_cases():
    """Random orders relabelled along a random linear extension, each with
    the key of the original labelling: keys must not depend on which
    linear extension the input uses."""
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 7)
        lt = random_strict_order(rng, n)
        _, _, pred = masks_from_lt(lt)
        key = _kernels.canonical_key(pred)
        yield _relabel(lt, _random_linear_extension(rng, n, lt)), key


def _relabel(lt, perm):
    """The order with old element ``perm[new]`` renamed ``new``."""
    n = len(lt)
    inv = [0] * n
    for new, old in enumerate(perm):
        inv[old] = new
    lt2 = [0] * n
    for i in range(n):
        for j in range(n):
            if lt[i] >> j & 1:
                lt2[inv[i]] |= 1 << inv[j]
    return lt2


def _random_linear_extension(rng, n, lt):
    pred_count = [0] * n
    for i in range(n):
        for j in range(n):
            if lt[i] >> j & 1:
                pred_count[j] += 1
    avail = [i for i in range(n) if pred_count[i] == 0]
    out = []
    while avail:
        x = rng.choice(avail)
        avail.remove(x)
        out.append(x)
        for j in range(n):
            if lt[x] >> j & 1:
                pred_count[j] -= 1
                if pred_count[j] == 0:
                    avail.append(j)
    return out
