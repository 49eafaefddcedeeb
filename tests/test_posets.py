import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from aslattice import (
    CycleDetected,
    DuplicateLabel,
    UnknownLabel,
    build_poset,
    connected_components,
    count_maximal_chains,
    dual,
    is_direct_sum_of_chains,
    maximal_chains,
    poset_from_json,
    poset_to_json,
)
from aslattice.genposets import canonical_form
from aslattice.posets import hasse_dot
from conftest import antichain, chain, corpus, ladder, sum_of_chains


def random_poset_strategy(max_n=5):
    """Random small posets from arbitrary acyclic cover attempts."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        labels = [f"x{i}" for i in range(n)]
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda ij: ij[0] < ij[1]
                ),
                max_size=2 * n,
            )
        )
        # i < j guarantees acyclicity
        return build_poset(labels, [(labels[i], labels[j]) for i, j in pairs])

    return build()


class TestBuild:
    def test_singleton(self):
        p = build_poset(["a"], [])
        assert p.n == 1
        assert p.up == (1,)
        assert p.covers == ()

    def test_v_closure(self, v_poset):
        p = v_poset
        ip, ipp, iq = (p.index_of(x) for x in ("p", "p'", "q"))
        assert p.leq(ip, iq) and p.leq(ipp, iq)
        assert not p.comparable(ip, ipp)
        assert set(p.covers) == {(ip, iq), (ipp, iq)}

    def test_generators_need_not_be_covers(self):
        p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        labels = [(p.labels[i], p.labels[j]) for i, j in p.covers]
        assert labels == [("a", "b"), ("b", "c")]

    def test_covers_are_pairs_with_nothing_between(self):
        for p in corpus(6):
            n = p.n
            want = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and p.leq(i, j)
                and not any(k not in (i, j) and p.leq(i, k) and p.leq(k, j) for k in range(n))
            ]
            assert list(p.covers) == want  # ascending (i, j)

    def test_cycle(self):
        with pytest.raises(CycleDetected):
            build_poset(["a", "b"], [("a", "b"), ("b", "a")])
        with pytest.raises(CycleDetected):
            build_poset(["a"], [("a", "a")])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            build_poset(["a", "a"], [])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            build_poset(["a"], [("a", "z")])

    def test_ground_set_cap(self):
        from aslattice import CapacityExceeded

        with pytest.raises(CapacityExceeded):
            build_poset([f"x{i}" for i in range(65)], [])

    def test_indexing_is_linear_extension(self):
        p = build_poset(["z", "y", "x"], [("z", "y"), ("x", "z")])
        for i in range(p.n):
            for j in range(p.n):
                if p.leq(i, j) and i != j:
                    assert i < j

    @settings(max_examples=60, deadline=None)
    @given(random_poset_strategy())
    def test_closure_reduction_roundtrip(self, p):
        rebuilt = build_poset(p.labels, [(p.labels[i], p.labels[j]) for i, j in p.covers])
        assert rebuilt.up == p.up
        assert rebuilt.covers == p.covers


class TestDual:
    def test_chain_reversal(self):
        p = chain(3)
        d = dual(p)
        assert d.leq(d.index_of("c2"), d.index_of("c0"))
        assert not d.leq(d.index_of("c0"), d.index_of("c2"))

    def test_v_becomes_lambda(self, v_poset, lam_poset):
        d = dual(v_poset)
        assert canonical_form(d).canonical_key == canonical_form(lam_poset).canonical_key

    def test_antichain_self_dual(self):
        p = antichain(3)
        assert canonical_form(dual(p)).canonical_key == canonical_form(p).canonical_key

    def test_involution_up_to_iso(self):
        for p in corpus(5):
            assert (
                canonical_form(dual(dual(p))).canonical_key
                == canonical_form(p).canonical_key
            )


class TestComponents:
    def test_antichain(self):
        assert connected_components(antichain(3)) == ((0,), (1,), (2,))

    def test_v(self, v_poset):
        assert connected_components(v_poset) == ((0, 1, 2),)

    def test_disjoint_chains(self):
        p = sum_of_chains(2, 1)
        sizes = sorted(len(c) for c in connected_components(p))
        assert sizes == [1, 2]


class TestSumOfChains:
    @pytest.mark.parametrize(
        "maker,expect",
        [
            (lambda: chain(4), True),
            (lambda: sum_of_chains(2, 3), True),
            (lambda: antichain(5), True),
            (lambda: build_poset(["p", "p'", "q"], [("p", "q"), ("p'", "q")]), False),
        ],
    )
    def test_examples(self, maker, expect):
        assert is_direct_sum_of_chains(maker()) is expect

    def test_matches_forbidden_bound_characterization(self):
        # no two incomparable elements with a common strict upper or lower bound
        for p in corpus(5):
            forbidden = False
            for i in range(p.n):
                for j in range(i + 1, p.n):
                    if p.comparable(i, j):
                        continue
                    common_up = (p.up[i] & p.up[j]) & ~((1 << i) | (1 << j))
                    common_dn = (p.down[i] & p.down[j]) & ~((1 << i) | (1 << j))
                    if common_up or common_dn:
                        forbidden = True
            assert is_direct_sum_of_chains(p) == (not forbidden)

    def test_dual_invariant(self):
        for p in corpus(5):
            assert is_direct_sum_of_chains(p) == is_direct_sum_of_chains(dual(p))

    def test_matches_component_definition(self):
        for p in corpus(7):
            assert is_direct_sum_of_chains(p) is components_are_chains(p)

    @settings(max_examples=200, deadline=None)
    @given(random_poset_strategy(max_n=7))
    def test_matches_component_definition_random(self, p):
        assert is_direct_sum_of_chains(p) is components_are_chains(p)


def components_are_chains(p):
    """Every connected component totally ordered, pair by pair."""
    return all(
        p.comparable(a, b) for comp in connected_components(p) for a in comp for b in comp
    )


class TestMaximalChains:
    def test_chain(self):
        assert maximal_chains(chain(3)) == [(0, 1, 2)]

    def test_v(self, v_poset):
        p = v_poset
        got = maximal_chains(p)
        assert len(got) == 2
        as_labels = {tuple(p.labels[i] for i in ch) for ch in got}
        assert as_labels == {("p", "q"), ("p'", "q")}

    def test_antichain_singletons(self):
        assert maximal_chains(antichain(2)) == [(0,), (1,)]

    def test_sum_of_k_chains_has_k(self):
        for lengths in [(1, 1, 1), (2, 3), (4,), (2, 1, 1)]:
            assert len(maximal_chains(sum_of_chains(*lengths))) == len(lengths)

    def test_against_oracle(self):
        for p in corpus(5):
            got = {tuple(p.labels[i] for i in ch) for ch in maximal_chains(p)}
            assert got == oracles.maximal_chain_sets(p)

    def test_count_matches_enumeration(self):
        for p in list(corpus(5)) + [ladder(k) for k in range(1, 6)]:
            assert count_maximal_chains(p) == len(maximal_chains(p)), p

    def test_ladder_count_is_exponential(self):
        assert count_maximal_chains(ladder(5)) == 2**5
        assert count_maximal_chains(ladder(30)) == 2**30  # never listed


class TestIO:
    def test_json_roundtrip(self, v_poset):
        doc = poset_to_json(v_poset)
        again = poset_from_json(json.loads(json.dumps(doc)))
        assert again.labels == v_poset.labels
        assert again.up == v_poset.up

    def test_dot_output(self, v_poset):
        assert hasse_dot(v_poset) == (
            "digraph hasse {\n  rankdir=BT;\n  node [shape=plaintext];\n"
            '  "p";\n  "p\'";\n  "q";\n  "p" -> "q";\n  "p\'" -> "q";\n}\n'
        )

    def test_bad_document(self):
        with pytest.raises(UnknownLabel):
            poset_from_json({"covers": []})
