import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from aslattice import (
    CapacityExceeded,
    MissingRelation,
    RealizationKind,
    build_poset,
    check_condition_ii,
    enumerate_ideals,
    is_direct_sum_of_chains,
    realize,
    relations_equal,
    rewrite_to_standard,
    search_compatible_asls,
    straightening_relations,
    verify_asl_axioms,
)
from aslattice import straightening
from aslattice.straightening import (
    PairMap,
    cover_witness,
    monomial_product,
    multichains,
    realization_table,
)
from conftest import antichain, chain, corpus, sum_of_chains

ORDER = RealizationKind.ORDER
CHAIN = RealizationKind.CHAIN
CHAIN_DUAL = RealizationKind.CHAIN_DUAL


class TestRealize:
    def test_order_kind(self, v_poset):
        p = v_poset
        m = realize(p, ORDER, p.mask_of(["p", "p'"]))
        assert m == tuple(p.mask_of(["p", "p'"]) >> i & 1 for i in range(p.n)) + (1,)

    def test_chain_kind_uses_maximal_elements(self, v_poset):
        p = v_poset
        m = realize(p, CHAIN, p.full_mask)
        assert m == tuple(p.mask_of(["q"]) >> i & 1 for i in range(p.n)) + (1,)

    def test_chain_dual_on_full_ideal(self, v_poset):
        # complement is empty, so only t remains
        assert realize(v_poset, CHAIN_DUAL, v_poset.full_mask) == (0, 0, 0, 1)

    def test_injective_all_kinds(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            for kind in RealizationKind:
                table = realization_table(lat, kind)
                assert len(set(table.values())) == len(lat)
                assert all(m[-1] == 1 for m in table.values())


class TestRelationTables:
    def test_v_order(self, v_poset):
        p = v_poset
        lat = enumerate_ideals(p)
        pm = straightening_relations(lat, ORDER)
        assert pm.rhs_of(p.mask_of(["p"]), p.mask_of(["p'"])) == (0, p.mask_of(["p", "p'"]))

    def test_v_chain_dual(self, v_poset):
        p = v_poset
        lat = enumerate_ideals(p)
        pm = straightening_relations(lat, CHAIN_DUAL)
        assert pm.rhs_of(p.mask_of(["p"]), p.mask_of(["p'"])) == (0, p.full_mask)

    def test_lambda_chain(self, lam_poset):
        p = lam_poset
        lat = enumerate_ideals(p)
        pm = straightening_relations(lat, CHAIN)
        a, b = p.mask_of(["q", "p"]), p.mask_of(["q", "p'"])
        assert pm.rhs_of(a, b) == (0, p.full_mask)

    def test_toric_identity_everywhere(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            for kind in RealizationKind:
                pm = straightening_relations(lat, kind)
                for (a, b), (lo, hi) in pm.entries():
                    left = monomial_product([realize(p, kind, a), realize(p, kind, b)])
                    right = monomial_product([realize(p, kind, lo), realize(p, kind, hi)])
                    assert left == right

    def test_compatibility_shape(self):
        for p in corpus(5):
            lat = enumerate_ideals(p)
            for kind in RealizationKind:
                for (a, b), (lo, hi) in straightening_relations(lat, kind).entries():
                    assert lo & ~(a & b) == 0
                    assert (a | b) & ~hi == 0
                    assert lo & ~hi == 0

    def test_table_json(self, v_poset):
        lat = enumerate_ideals(v_poset)
        table = straightening_relations(lat, ORDER).table_json()
        assert table == [{"pair": [["p"], ["p'"]], "rhs": [[], ["p", "p'"]]}]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(5, 7).flatmap(
            lambda n: st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda ij: ij[0] < ij[1]
                ),
                max_size=2 * n,
            ).map(lambda pairs: (n, pairs))
        )
    )
    def test_toric_identity_random_larger_posets(self, case):
        n, pairs = case
        labels = [f"x{i}" for i in range(n)]
        p = build_poset(labels, [(labels[i], labels[j]) for i, j in pairs])
        lat = enumerate_ideals(p)
        if len(lat) > 80:
            return  # keep the pair loop small
        for kind in RealizationKind:
            for (a, b), (lo, hi) in straightening_relations(lat, kind).entries():
                left = monomial_product([realize(p, kind, a), realize(p, kind, b)])
                right = monomial_product([realize(p, kind, lo), realize(p, kind, hi)])
                assert left == right
                assert lo & ~(a & b) == 0 and (a | b) & ~hi == 0


class TestRelationsEqual:
    def test_sum_of_chains_order_vs_chain(self):
        lat = enumerate_ideals(sum_of_chains(2, 1))
        same, witness = relations_equal(lat, ORDER, CHAIN)
        assert same and witness is None

    def test_v_order_vs_chain_dual(self, v_poset):
        p = v_poset
        lat = enumerate_ideals(p)
        same, witness = relations_equal(lat, ORDER, CHAIN_DUAL)
        assert not same
        pair, ra, rb = witness
        assert pair == (p.mask_of(["p"]), p.mask_of(["p'"]))
        assert ra == (0, p.mask_of(["p", "p'"]))
        assert rb == (0, p.full_mask)

    def test_lambda_order_vs_chain(self, lam_poset):
        p = lam_poset
        lat = enumerate_ideals(p)
        same, witness = relations_equal(lat, ORDER, CHAIN)
        assert not same
        _, ra, rb = witness
        assert ra[0] == p.mask_of(["q"])
        assert rb[0] == 0

    def test_condition_ii(self, v_poset):
        assert check_condition_ii(enumerate_ideals(antichain(3))).equal
        assert check_condition_ii(enumerate_ideals(chain(5))).equal
        rep = check_condition_ii(enumerate_ideals(v_poset))
        assert not rep.equal
        assert rep.witnesses[0][0] == (ORDER, CHAIN_DUAL)

    def test_table_scan_matches_full_table_oracle(self):
        # the early-exit scan over max/min tables against a comparison of
        # the full relation tables, on every class with n <= 6
        for p in corpus(6):
            lat = enumerate_ideals(p)
            expected = oracles.condition_ii_witnesses(lat)
            rep = check_condition_ii(lat)
            assert rep.equal == (not expected), p
            assert rep.witnesses == expected, p

    def test_same_kind_is_equal(self, v_poset):
        lat = enumerate_ideals(v_poset)
        for kind in RealizationKind:
            assert relations_equal(lat, kind, kind) == (True, None)



class TestCoverWitness:
    def test_lambda_two_upper_covers(self, lam_poset):
        # q has the upper covers p and p': the pair (↓p, ↓p'), ORDER against CHAIN
        p = lam_poset
        down_p, down_p2 = p.mask_of(["q", "p"]), p.mask_of(["q", "p'"])
        assert cover_witness(p) == (
            (ORDER, CHAIN), (down_p, down_p2), (p.mask_of(["q"]), p.full_mask), (0, p.full_mask)
        )

    def test_v_two_lower_covers(self, v_poset):
        # no element has two upper covers; q has the lower covers p and p':
        # the pair (P∖↑p, P∖↑p'), ORDER against CHAIN_DUAL
        p = v_poset
        assert cover_witness(p) == (
            (ORDER, CHAIN_DUAL),
            (p.mask_of(["p"]), p.mask_of(["p'"])),
            (0, p.mask_of(["p", "p'"])),
            (0, p.full_mask),
        )

    def test_none_exactly_on_sums_of_chains(self):
        for p in corpus(6):
            assert (cover_witness(p) is None) == is_direct_sum_of_chains(p), p

    def test_sides_agreeing_give_none(self, monkeypatch, lam_poset):
        # the witness is checked, not presumed: equal sides are no witness
        monkeypatch.setattr(straightening, "_relation_rhs", lambda p, kind, a, b: (a & b, a | b))
        assert cover_witness(lam_poset) is None

class TestRewrite:
    def test_singleton(self, v_poset):
        lat = enumerate_ideals(v_poset)
        pm = straightening_relations(lat, ORDER)
        m = v_poset.mask_of(["p"])
        assert rewrite_to_standard(lat, [m], pm) == (m,)

    def test_v_one_step(self, v_poset):
        p = v_poset
        lat = enumerate_ideals(p)
        pm = straightening_relations(lat, ORDER)
        got = rewrite_to_standard(lat, [p.mask_of(["p"]), p.mask_of(["p'"])], pm)
        assert got == (0, p.mask_of(["p", "p'"]))

    def test_multichain_unchanged(self, v_poset):
        p = v_poset
        lat = enumerate_ideals(p)
        pm = straightening_relations(lat, ORDER)
        ch = (0, p.full_mask)
        assert rewrite_to_standard(lat, ch, pm) == ch

    def test_missing_relation(self, v_poset):
        lat = enumerate_ideals(v_poset)
        with pytest.raises(MissingRelation):
            PairMap(lattice=lat, rhs={})
        pm = straightening_relations(lat, ORDER)
        with pytest.raises(MissingRelation):
            pm.rhs_of(0, v_poset.full_mask)  # comparable pair has no relation

    def test_incompatible_rhs_rejected(self, v_poset):
        p = v_poset
        lat = enumerate_ideals(p)
        a, b = p.mask_of(["p"]), p.mask_of(["p'"])
        with pytest.raises(MissingRelation):
            PairMap(lattice=lat, rhs={(a, b): (p.mask_of(["p"]), p.full_mask)})

    def test_result_is_multichain_with_same_monomial(self):
        from itertools import combinations_with_replacement

        for p in corpus(4):
            lat = enumerate_ideals(p)
            for kind in RealizationKind:
                pm = straightening_relations(lat, kind)
                table = realization_table(lat, kind)
                for combo in combinations_with_replacement(lat.ideals, 3):
                    std = rewrite_to_standard(lat, combo, pm)
                    for x, y in zip(std, std[1:]):
                        assert x & ~y == 0
                    assert monomial_product(table[m] for m in combo) == monomial_product(
                        table[m] for m in std
                    )

    def test_confluence_all_orders_degree3(self):
        # every choice sequence of incomparable pairs reaches the same form
        def normal_forms(lat, pm, factors):
            pos = lat.position
            work = tuple(sorted(factors, key=pos.__getitem__))
            pairs = [
                (i, j)
                for i in range(len(work))
                for j in range(i + 1, len(work))
                if work[i] & ~work[j] and work[j] & ~work[i]
            ]
            if not pairs:
                return {work}
            forms = set()
            for i, j in pairs:
                lo, hi = pm.rhs_of(work[i], work[j])
                rest = [work[t] for t in range(len(work)) if t not in (i, j)]
                forms |= normal_forms(lat, pm, rest + [lo, hi])
            return forms

        from itertools import combinations_with_replacement

        for p in corpus(4):
            lat = enumerate_ideals(p)
            for kind in RealizationKind:
                pm = straightening_relations(lat, kind)
                for combo in combinations_with_replacement(lat.ideals, 3):
                    forms = normal_forms(lat, pm, combo)
                    assert len(forms) == 1
                    assert rewrite_to_standard(lat, combo, pm) == forms.pop()


class TestAxioms:
    def test_v_poset_degree2_count_is_14(self, v_poset):
        lat = enumerate_ideals(v_poset)
        ideals_as_sets = oracles.ideal_sets(v_poset)
        assert oracles.multichain_count(v_poset, ideals_as_sets, 2) == 14
        for kind in (ORDER, CHAIN):
            rep = verify_asl_axioms(lat, kind, max_degree=2)
            assert rep.standard_monomial_counts[2] == 14

    def test_multichain_count_matches_oracle(self):
        for p in corpus(4):
            lat = enumerate_ideals(p)
            sets = oracles.ideal_sets(p)
            for d in (1, 2, 3):
                assert len(multichains(lat, d)) == oracles.multichain_count(p, sets, d)

    def test_multichain_bound(self, monkeypatch):
        # antichain(5) at length 30: 31^5 chains, refused before any is listed
        lat = enumerate_ideals(antichain(5))
        with pytest.raises(CapacityExceeded) as exc:
            multichains(lat, 30)
        assert str(exc.value) == (
            "28,629,151 multichains of length 30 over 32 ideals, over the bound of 1,000,000"
        )
        # the count is exact: the bound admits exactly as many chains as are listed
        monkeypatch.setattr(straightening, "MAX_MULTICHAINS", 4**5)
        assert len(multichains(lat, 3)) == 4**5
        monkeypatch.setattr(straightening, "MAX_MULTICHAINS", 4**5 - 1)
        with pytest.raises(CapacityExceeded):
            multichains(lat, 3)

    @pytest.mark.parametrize(
        "p, degree, entries",
        [(chain(1), 1500, 1_127_250_998), (antichain(3), 60, 172_341_950)],
        ids=["point-1500", "antichain3-60"],
    )
    def test_entries_bound_across_degrees(self, p, degree, entries):
        # each length alone passes MAX_MULTICHAINS; their entries together are
        # refused before any chain is listed, by search and the axiom check
        lat = enumerate_ideals(p)
        with pytest.raises(CapacityExceeded) as exc:
            search_compatible_asls(lat, max_degree=degree)
        assert str(exc.value) == (
            f"multichains of lengths 2..{degree} over {len(lat)} ideals hold {entries:,} "
            "entries, over the bound of 4,000,000"
        )
        with pytest.raises(CapacityExceeded, match=f"lengths 1..{degree} "):
            verify_asl_axioms(lat, ORDER, max_degree=degree)

    def test_entries_bound_with_one_chain_per_length(self, monkeypatch):
        # the one-point lattice has one chain of each length, so lengths
        # 2..d hold d(d+1)/2 - 1 entries: d = 2,827 is within the bound and
        # d = 2,828 is refused before the ⊆-table is read, as is any larger d
        lat = enumerate_ideals(build_poset([], []))
        straightening.check_multichain_entries(lat, range(2, 2828))

        def unread(lat):
            raise AssertionError("the ⊆-table was read")

        monkeypatch.setattr(type(lat), "containing", property(unread))
        for degree, least in [(2828, "4,000,205"), (10**8, "5,000,000,049,999,999")]:
            with pytest.raises(CapacityExceeded) as exc:
                search_compatible_asls(lat, max_degree=degree)
            assert str(exc.value) == (
                f"multichains of lengths 2..{degree} hold at least {least} entries, "
                "one chain of each length, over the bound of 4,000,000"
            )
            with pytest.raises(CapacityExceeded, match=f"lengths 1..{degree} hold at least"):
                verify_asl_axioms(lat, ORDER, max_degree=degree)

    def test_entries_bound_is_exact(self, monkeypatch):
        # antichain(2) at degree 3: 9 chains of length 2 and 16 of length 3
        lat = enumerate_ideals(antichain(2))
        monkeypatch.setattr(straightening, "MAX_MULTICHAIN_ENTRIES", 2 * 9 + 3 * 16)
        assert len(search_compatible_asls(lat)) == 1
        monkeypatch.setattr(straightening, "MAX_MULTICHAIN_ENTRIES", 2 * 9 + 3 * 16 - 1)
        with pytest.raises(CapacityExceeded):
            search_compatible_asls(lat)

    def test_axiom_check_lists_degrees_in_one_walk(self, monkeypatch):
        # one bound check for degrees 1..d, then one listing, of degree d
        # (which checks its own bound): the lower degrees are its prefixes
        checks, listed = [], []
        check = straightening.check_multichain_entries

        def counted(lat, lengths):
            checks.append(lengths)
            check(lat, lengths)

        def listing(lat, length):
            listed.append(length)
            return multichains(lat, length)

        monkeypatch.setattr(straightening, "check_multichain_entries", counted)
        monkeypatch.setattr(straightening, "multichains", listing)
        lat = enumerate_ideals(sum_of_chains(2, 1))
        rep = verify_asl_axioms(lat, ORDER, max_degree=4)
        assert listed == [4]
        assert checks == [range(1, 5), range(4, 5)]
        assert rep.standard_monomial_counts == {
            d: len(multichains(lat, d)) for d in range(1, 5)
        }

    def test_multichains_listed_in_position_order(self):
        # the same chains in the same order as a filter of all position tuples
        for p in corpus(4):
            lat = enumerate_ideals(p)
            ids = lat.ideals
            for d in range(4):
                want = [
                    tuple(ids[i] for i in ch)
                    for ch in itertools.combinations_with_replacement(range(len(ids)), d)
                    if all(ids[i] & ~ids[j] == 0 for i, j in zip(ch, ch[1:]))
                ]
                assert multichains(lat, d) == want

    def test_chain_poset_vacuous(self):
        lat = enumerate_ideals(chain(4))
        for kind in RealizationKind:
            rep = verify_asl_axioms(lat, kind, max_degree=3)
            assert rep.standard_monomial_counts[1] == 5

    def test_all_kinds_pass_degree3(self):
        for p in corpus(4):
            lat = enumerate_ideals(p)
            for kind in RealizationKind:
                rep = verify_asl_axioms(lat, kind, max_degree=3)
                assert rep.products_checked[2] > 0

    def test_rejects_degree_below_two(self, v_poset):
        with pytest.raises(ValueError):
            verify_asl_axioms(enumerate_ideals(v_poset), ORDER, max_degree=1)
