import hashlib
import logging
import tracemalloc

import pytest

import oracles
from aslattice import (
    CapacityExceeded,
    _kernels,
    build_poset,
    canonical_form,
    check_condition_ii,
    check_unique,
    corpus_verify,
    dual,
    enumerate_ideals,
    generate_posets,
    is_direct_sum_of_chains,
    straightening_relations,
)
from aslattice import genposets, posets
from aslattice.genposets import _decide, _poset_from_key
from aslattice.straightening import cover_witness
from conftest import CORPUS_FAULTS, TWO_ANTICHAIN_DOC, antichain, chain, corpus

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


class TestCanonicalForm:
    def test_relabeling_invariant(self):
        a = build_poset(["p", "p'", "q"], [("p", "q"), ("p'", "q")])
        b = build_poset(["p'", "p", "q"], [("p", "q"), ("p'", "q")])
        c = build_poset(["q", "x", "y"], [("x", "q"), ("y", "q")])
        keys = {canonical_form(x).canonical_key for x in (a, b, c)}
        assert len(keys) == 1

    def test_v_vs_lambda_differ(self, v_poset, lam_poset):
        assert (
            canonical_form(v_poset).canonical_key
            != canonical_form(lam_poset).canonical_key
        )

    def test_chain_any_labeling(self):
        a = chain(3)
        b = build_poset(["z", "m", "a"], [("z", "m"), ("m", "a")])
        assert canonical_form(a).canonical_key == canonical_form(b).canonical_key

    def test_idempotent_under_relabeling(self):
        for cp in generate_posets(4):
            again = canonical_form(cp.poset)
            assert again.canonical_key == cp.canonical_key

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            canonical_form(antichain(9))

    def test_key_is_minimum_over_linear_extensions(self):
        # the branch-and-bound key must equal the brute-force minimum
        for p in corpus(5):
            assert canonical_form(p).canonical_key == oracles.brute_canonical_key(p)


class TestGeneration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_known_counts(self, n):
        assert sum(1 for _ in generate_posets(n)) == KNOWN_CLASS_COUNTS[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_naive_oracle(self, n):
        # labeled brute force + permutation isomorphism, fully independent
        assert sum(1 for _ in generate_posets(n)) == len(oracles.iso_classes(n))

    def test_n3_is_the_five_named_posets(self):
        named = [
            antichain(3),
            chain(3),
            build_poset(["p", "p'", "q"], [("p", "q"), ("p'", "q")]),
            build_poset(["q", "p", "p'"], [("q", "p"), ("q", "p'")]),
            build_poset(["a", "b", "c"], [("a", "b")]),
        ]
        expected = {canonical_form(p).canonical_key for p in named}
        got = {cp.canonical_key for cp in generate_posets(3)}
        assert got == expected

    def test_keys_distinct_and_sorted(self):
        for n in (3, 4, 5):
            keys = [cp.canonical_key for cp in generate_posets(n)]
            assert len(set(keys)) == len(keys)
            assert keys == sorted(keys)

    def test_closed_under_dual(self):
        for n in (2, 3, 4, 5):
            keys = {cp.canonical_key for cp in generate_posets(n)}
            dual_keys = {
                canonical_form(dual(cp.poset)).canonical_key for cp in generate_posets(n)
            }
            assert keys == dual_keys

    def test_sums_of_chains_match_partitions(self):
        for n in range(1, 7):
            count = sum(
                1 for cp in generate_posets(n) if is_direct_sum_of_chains(cp.poset)
            )
            assert count == oracles.partition_count(n)

    def test_min_n_yields_every_level_of_one_walk(self):
        got = [(cp.canonical_key, cp.poset) for cp in generate_posets(6, min_n=1)]
        want = [(cp.canonical_key, cp.poset) for n in range(1, 7) for cp in generate_posets(n)]
        assert got == want
        assert [cp.canonical_key for cp in generate_posets(5, min_n=4)] == [
            cp.canonical_key for n in (4, 5) for cp in generate_posets(n)
        ]

    @pytest.mark.parametrize("min_n", [0, 6])
    def test_min_n_bounds(self, min_n):
        with pytest.raises(ValueError):
            list(generate_posets(5, min_n=min_n))

    def test_bounds(self):
        with pytest.raises(CapacityExceeded):
            list(generate_posets(0))
        with pytest.raises(CapacityExceeded):
            list(generate_posets(9))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_exhaustive_keying(self, n):
        # the deletion and twin rules skip keys, never classes or labels
        got = [(cp.canonical_key, cp.poset) for cp in generate_posets(n)]
        want = [(cp.canonical_key, cp.poset) for cp in oracles.exhaustive_generate(n)]
        assert got == want

    def test_poset_from_key_matches_build_poset(self):
        # a key is read off directly; build_poset sorts and closes its relations
        for n in range(1, 8):
            for cp in generate_posets(n):
                assert _poset_from_key(cp.canonical_key) == oracles.poset_from_key_by_build(
                    cp.canonical_key
                )

    def test_keys_computed_at_seven(self, monkeypatch):
        calls = 0
        key = _kernels.canonical_key

        def counting(*args):
            nonlocal calls
            calls += 1
            return key(*args)

        monkeypatch.setattr(_kernels, "canonical_key", counting)
        assert sum(1 for _ in generate_posets(7)) == 2045
        # keying every extension of every parent makes 6,377 calls
        assert calls == 2774

    def test_generation_is_lazy(self, monkeypatch):
        # each class is built once, from its key, when it is extended or
        # yielded; only the seed point goes through build_poset
        built = seeds = 0
        from_key, build = genposets._poset_from_key, posets.build_poset

        def counting_from_key(key):
            nonlocal built
            built += 1
            return from_key(key)

        def counting_build(*args, **kwargs):
            nonlocal seeds
            seeds += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(genposets, "_poset_from_key", counting_from_key)
        for module in (posets, genposets):
            monkeypatch.setattr(module, "build_poset", counting_build)
        # the parents are the classes of sizes 2..6, all built before the
        # first class of size 7 is yielded
        parents = sum(KNOWN_CLASS_COUNTS[size] for size in range(2, 7))
        assert parents == 404
        k = 0
        for k, _ in enumerate(generate_posets(7), 1):
            assert built == parents + k
        assert k == 2045
        assert built == 2449
        assert seeds == 1

    def test_eight_points(self):
        classes = sums_of_chains = 0
        digest = hashlib.sha256()
        for cp in generate_posets(8):
            classes += 1
            sums_of_chains += is_direct_sum_of_chains(cp.poset)
            digest.update(cp.canonical_key)
        assert classes == 16999  # OEIS A000112
        assert sums_of_chains == oracles.partition_count(8) == 22
        # the keys themselves, concatenated in yield order
        assert digest.hexdigest() == (
            "33153a7211ba42fc1d9a962ab48f9f5cebd8ff7b474e5d115ae51469bca9f8ac"
        )

    def test_one_debug_record_per_level(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            assert sum(1 for _ in generate_posets(5)) == 63
        records = [r for r in caplog.records if r.name == "aslattice"]
        assert [r.args[0] for r in records] == [2, 3, 4, 5]
        for r in records:
            size, considered, by_deletion, by_twins, keyed, classes = r.args
            assert considered == by_deletion + by_twins + keyed
            assert 0 < classes <= keyed
            assert classes == KNOWN_CLASS_COUNTS[size]
        # the single point has the ideals {} and {p0}, and neither is skipped
        assert records[0].args == (2, 2, 0, 0, 2, 2)
        assert records[-1].args == (5, 135, 44, 23, 68, 63)
        assert "deletion rule" in records[-1].getMessage()


class TestCorpus:
    def test_n1(self):
        rep = corpus_verify(max_n=1)
        assert rep.ok
        assert rep.tallies[0].posets == 1
        assert rep.tallies[0].unique_checked == 1

    def test_n3_tallies(self):
        rep = corpus_verify(max_n=3)
        assert rep.ok
        assert sum(t.posets for t in rep.tallies) == 8
        assert sum(t.sums_of_chains for t in rep.tallies) == 6
        assert not rep.counterexamples

    def test_n4_report_json(self):
        doc = corpus_verify(max_n=4).to_json()
        assert doc["ok"] is True
        assert [t["posets"] for t in doc["per_n"]] == [1, 2, 5, 16]
        assert [t["sums_of_chains"] for t in doc["per_n"]] == [1, 2, 3, 5]
        assert doc["counterexamples"] == []

    def test_parallel_matches_serial(self):
        serial = corpus_verify(max_n=3).to_json()
        parallel = corpus_verify(max_n=3, parallel=True).to_json()
        for doc in (serial, parallel):
            doc.pop("elapsed_s")
        assert serial == parallel

    def test_parallel_fallback_is_logged(self, monkeypatch, caplog):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        serial = corpus_verify(max_n=3).to_json()
        with caplog.at_level(logging.WARNING, logger="aslattice"):
            fallback = corpus_verify(max_n=3, parallel=True).to_json()
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1  # one per run, not one per size
        assert all(r.name == "aslattice" and "serially" in r.getMessage() for r in warnings)
        for doc in (serial, fallback):
            doc.pop("elapsed_s")
        assert serial == fallback

    def test_pool_failing_mid_run_hands_its_level_to_the_serial_loop(self, monkeypatch, caplog):
        import concurrent.futures

        class FailsOnSecondSize:
            def __init__(self, workers):
                self.sizes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                self.sizes += 1
                if self.sizes == 2:
                    raise OSError("pool broke")
                return map(fn, items)

        serial = corpus_verify(max_n=4).to_json()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FailsOnSecondSize)
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            fallback = corpus_verify(max_n=4, parallel=True).to_json()
        for doc in (serial, fallback):
            doc.pop("elapsed_s")
        assert fallback == serial
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            "corpus --parallel: no process pool (pool broke); verifying serially"
        ]
        (record,) = [r for r in caplog.records if r.getMessage().startswith("corpus max-n")]
        assert record.args[-1] == "serial after pool failure"

    def test_peak_memory_bounded(self):
        # each certificate is replayed as its steps are built: when the
        # 7-antichain's was built whole first, it alone held 14.5 MB of the
        # 18.2 MB traced peak; replayed step by step the peak is 5.4 MB
        tracemalloc.start()
        try:
            rep = corpus_verify(max_n=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok
        assert sum(t.certificates_validated for t in rep.tallies) == 44
        assert peak < 9_000_000

    def test_capped_at_eight(self):
        with pytest.raises(CapacityExceeded):
            corpus_verify(max_n=9)

    def test_verdicts_match_check_unique(self):
        # the corpus decides each class as check_unique and condition (ii) do,
        # every non-sum from a witness built from its covers
        for p in corpus(6):
            lat = enumerate_ideals(p)
            soc = is_direct_sum_of_chains(p)
            cii, res, built = _decide(p, soc)
            assert cii == check_condition_ii(lat).equal
            assert res.unique == check_unique(lat).unique
            assert built == (not soc)

    def test_built_witness_pair_is_incomparable(self):
        for p in corpus(6):
            if not is_direct_sum_of_chains(p):
                pair = cover_witness(p)[1]
                assert pair in enumerate_ideals(p).incomparable_pairs, p

    def test_built_witness_sides_are_the_relation_entries(self):
        # both right-hand sides are those of the full relation tables, and differ
        for p in corpus(6):
            if not is_direct_sum_of_chains(p):
                lat = enumerate_ideals(p)
                (ka, kb), pair, rhs_a, rhs_b = cover_witness(p)
                assert straightening_relations(lat, ka).rhs[pair] == rhs_a
                assert straightening_relations(lat, kb).rhs[pair] == rhs_b
                assert rhs_a != rhs_b

    def test_every_non_sum_through_seven_gets_a_built_witness(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            assert corpus_verify(max_n=7).ok
        (record,) = [r for r in caplog.records if r.getMessage().startswith("corpus max-n")]
        # 2,450 classes, 44 sums of chains: no non-sum falls back to the scan
        assert record.args == (7, 2450, 2406, 0, 44, "serial")

    def test_scan_fallback_gives_the_same_report(self, monkeypatch):
        want = corpus_verify(max_n=6).to_json()
        monkeypatch.setattr(genposets, "cover_witness", lambda p: None)
        got = corpus_verify(max_n=6).to_json()
        for doc in (want, got):
            doc.pop("elapsed_s")
        assert got == want

    @pytest.mark.parametrize("fault, detail", CORPUS_FAULTS)
    def test_counterexample_reported_through_the_scan(self, monkeypatch, fault, detail):
        fault(monkeypatch)
        monkeypatch.setattr(genposets, "cover_witness", lambda p: None)
        doc = corpus_verify(max_n=2).to_json()
        assert doc["counterexamples"] == [{**TWO_ANTICHAIN_DOC, "detail": detail}]

    @pytest.mark.parametrize("parallel", [False, True])
    def test_one_generation_walk(self, monkeypatch, parallel):
        calls = 0
        key = _kernels.canonical_key

        def counting(*args):
            nonlocal calls
            calls += 1
            return key(*args)

        monkeypatch.setattr(_kernels, "canonical_key", counting)
        assert len(list(generate_posets(7))) == 2045
        keyed, calls = calls, 0
        assert corpus_verify(max_n=7, parallel=parallel).ok
        # one walk keys each level once: 2,774 keys, against 3,338 when
        # every size was generated from the single point again
        assert calls == keyed == 2774

    @pytest.mark.parametrize(
        "parallel, mode", [(False, "serial"), (True, "parallel")]
    )
    def test_one_debug_record_per_run(self, caplog, parallel, mode):
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            doc = corpus_verify(max_n=5, parallel=parallel).to_json()
        records = [r for r in caplog.records if r.getMessage().startswith("corpus max-n")]
        assert len(records) == 1
        # 87 classes, 18 sums of chains, 69 non-sums, each decided by a built witness
        assert records[0].args == (5, 87, 69, 0, 18, mode)
        assert sum(t["posets"] for t in doc["per_n"]) == 87

    def test_debug_record_names_pool_failure(self, monkeypatch, caplog):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            corpus_verify(max_n=3, parallel=True)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("corpus max-n")]
        assert record.args[-1] == "serial after pool failure"
        assert "non-sums decided by a built witness" in record.getMessage()

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_max_n_below_one_rejected(self, max_n):
        # nothing would be checked, yet the report would read ok
        with pytest.raises(CapacityExceeded):
            corpus_verify(max_n=max_n)

    @pytest.mark.parametrize("fault, detail", CORPUS_FAULTS)
    def test_counterexample_reported(self, monkeypatch, fault, detail):
        fault(monkeypatch)
        rep = corpus_verify(max_n=2)
        assert not rep.ok
        doc = rep.to_json()
        assert doc["ok"] is False
        assert doc["counterexamples"] == [{**TWO_ANTICHAIN_DOC, "detail": detail}]
        assert [c.detail for c in rep.counterexamples] == [detail]
