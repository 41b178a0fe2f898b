"""Tests for the parallel campaign engine, seed derivation, the
allowed-set cache, and the dual clean+injected harness pass."""

import json
import os

import pytest

from repro.analysis.postprocess import (
    CAMPAIGN_REPORT_SCHEMA,
    campaign_report_dict,
    read_campaign_report,
    write_campaign_report,
)
from repro.litmus import (
    AllowedSetCache,
    DEFAULT_SEEDS,
    LitmusTest,
    RunConfig,
    all_library_tests,
    canonical_test_digest,
    check_suite,
    check_test,
    derive_seed,
    derive_seeds,
    run_campaign,
)
from repro.litmus.library import message_passing, store_buffering
from repro.sim.config import ConsistencyModel


def small_suite():
    return all_library_tests()[:5]


def outcome_sets(report):
    return [(v.run.outcomes,
             v.clean_run.outcomes if v.clean_run else None)
            for v in report.verdicts]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed("MP", "PC", 3) == derive_seed("MP", "PC", 3)

    def test_varies_with_test_model_and_index(self):
        base = derive_seed("MP", "PC", 0)
        assert derive_seed("SB", "PC", 0) != base
        assert derive_seed("MP", "WC", 0) != base
        assert derive_seed("MP", "PC", 1) != base

    def test_schedule_is_prefix_stable(self):
        assert derive_seeds("MP", "PC", 5) == derive_seeds("MP", "PC", 8)[:5]

    def test_default_seeds_documented_value(self):
        assert DEFAULT_SEEDS == 20
        assert RunConfig().seeds == DEFAULT_SEEDS

    def test_cli_seeds_default_matches_runner(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["litmus"])
        assert args.seeds == DEFAULT_SEEDS


class TestDualPass:
    def test_injected_config_runs_clean_pass_too(self):
        verdict = check_test(message_passing(), RunConfig(seeds=5))
        assert verdict.run.injected
        assert verdict.clean_run is not None
        assert not verdict.clean_run.injected
        assert verdict.clean_conformance is not None
        assert verdict.clean_run.imprecise_exceptions == 0
        assert verdict.wall_time > 0
        assert verdict.ok

    def test_clean_pass_flag_skips_it(self):
        verdict = check_test(message_passing(),
                             RunConfig(seeds=5, clean_pass=False))
        assert verdict.clean_run is None
        assert verdict.ok

    def test_no_faults_config_has_single_clean_pass(self):
        verdict = check_test(message_passing(),
                             RunConfig(seeds=5, inject_faults=False))
        assert not verdict.run.injected
        assert verdict.clean_run is None

    def test_clean_violation_fails_verdict(self):
        """A verdict whose clean pass shows a negative difference is
        not ok even if the injected pass conforms."""
        from repro.memmodel.checker import check_outcome_set

        verdict = check_test(message_passing(), RunConfig(seeds=5))
        bad = check_outcome_set(verdict.conformance.allowed,
                                {(("r0", 9), ("r1", 9))})
        verdict.clean_conformance = bad
        assert not verdict.ok


class TestParallelCampaign:
    def test_parallel_matches_serial(self):
        cfg = RunConfig(seeds=4)
        serial = check_suite(small_suite(), cfg)
        parallel = check_suite(small_suite(), cfg, jobs=3)
        assert outcome_sets(serial) == outcome_sets(parallel)
        assert [v.test.name for v in serial.verdicts] == \
               [v.test.name for v in parallel.verdicts]
        assert parallel.jobs == 3
        assert serial.ok and parallel.ok

    def test_chunking_preserves_suite_order(self):
        tests = small_suite()
        cfg = RunConfig(seeds=2, clean_pass=False)
        for chunk_size in (1, 2, 7):
            report = run_campaign(tests, cfg, jobs=2,
                                  chunk_size=chunk_size)
            assert [v.test.name for v in report.verdicts] == \
                   [t.name for t in tests]

    def test_serial_fallback_without_pool(self):
        report = run_campaign(small_suite(), RunConfig(seeds=2), jobs=1)
        assert report.tests == 5
        assert report.wall_time > 0

    def test_progress_logged(self, caplog):
        import logging
        with caplog.at_level(logging.INFO, logger="repro.litmus.campaign"):
            run_campaign(small_suite(), RunConfig(seeds=2), jobs=1)
        text = caplog.text
        assert "campaign start" in text
        assert "campaign progress" in text
        assert "campaign done" in text


class TestCanonicalDigest:
    def test_name_independent(self):
        a = LitmusTest("one", "x", [[("W", "x", 1)], [("R", "x", "r0")]])
        b = LitmusTest("two", "x", [[("W", "x", 1)], [("R", "x", "r0")]])
        assert canonical_test_digest(a, "PC") == \
               canonical_test_digest(b, "PC")

    def test_model_and_structure_dependent(self):
        a = LitmusTest("t", "x", [[("W", "x", 1)], [("R", "x", "r0")]])
        c = LitmusTest("t", "x", [[("W", "x", 2)], [("R", "x", "r0")]])
        assert canonical_test_digest(a, "PC") != \
               canonical_test_digest(a, "RVWMO")
        assert canonical_test_digest(a, "PC") != \
               canonical_test_digest(c, "PC")

    def test_stable_across_uid_counters(self):
        test = message_passing()
        first = canonical_test_digest(test, "PC")
        # to_events() mints fresh uids every call; the digest must not
        # depend on them.
        assert canonical_test_digest(message_passing(), "PC") == first


class TestAllowedSetCache:
    def test_memoises_within_campaign(self, tmp_path):
        cache = AllowedSetCache(tmp_path / "allowed.json")
        tests = small_suite()
        cfg = RunConfig(seeds=2, clean_pass=False)
        first = run_campaign(tests, cfg, cache=cache)
        assert first.cache_misses == len(tests)
        second = run_campaign(tests, cfg, cache=cache)
        assert second.cache_hits == len(tests)
        assert second.cache_misses == 0
        assert outcome_sets(first) == outcome_sets(second)

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "allowed.json"
        tests = small_suite()
        cfg = RunConfig(seeds=2, clean_pass=False)
        run_campaign(tests, cfg, cache=AllowedSetCache(path))
        reloaded = AllowedSetCache(path)
        assert len(reloaded) == len(
            {canonical_test_digest(t, "PC") for t in tests})
        report = run_campaign(tests, cfg, cache=reloaded)
        assert report.cache_misses == 0

    def test_cache_path_accepted_directly(self, tmp_path):
        path = tmp_path / "allowed.json"
        run_campaign(small_suite()[:2],
                     RunConfig(seeds=2, clean_pass=False), cache=path)
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.litmus.allowed-cache/v1"

    def test_corrupt_cache_file_ignored_loudly(self, tmp_path, caplog):
        import logging
        path = tmp_path / "allowed.json"
        path.write_text("{not json")
        with caplog.at_level(logging.WARNING,
                             logger="repro.litmus.campaign"):
            cache = AllowedSetCache(path)
        assert len(cache) == 0
        assert any("corrupt allowed-set cache" in r.message
                   for r in caplog.records)

    def test_schema_mismatch_warns_with_found_schema(self, tmp_path,
                                                     caplog):
        import logging
        path = tmp_path / "allowed.json"
        path.write_text(json.dumps(
            {"schema": "repro.litmus.allowed-cache/v99", "entries": {}}))
        with caplog.at_level(logging.WARNING,
                             logger="repro.litmus.campaign"):
            cache = AllowedSetCache(path)
        assert len(cache) == 0
        assert any("repro.litmus.allowed-cache/v99" in r.message
                   for r in caplog.records)

    def test_orphaned_tmp_removed_on_load(self, tmp_path, caplog):
        import logging
        path = tmp_path / "allowed.json"
        tmp = tmp_path / "allowed.json.tmp"
        tmp.write_text("{half-written")
        with caplog.at_level(logging.WARNING,
                             logger="repro.litmus.campaign"):
            AllowedSetCache(path)
        assert not tmp.exists()
        assert any("orphaned cache temp file" in r.message
                   for r in caplog.records)

    def test_concurrent_saves_merge_not_clobber(self, tmp_path):
        # Regression: two campaigns sharing one cache file, loaded
        # before either saved.  The second save used to clobber the
        # first writer's entries; save() must merge on-disk state.
        path = tmp_path / "allowed.json"
        first, second = AllowedSetCache(path), AllowedSetCache(path)
        tests = small_suite()
        cfg = RunConfig(seeds=2, clean_pass=False)
        mid = len(tests) // 2
        run_campaign(tests[:mid], cfg, cache=first)   # saves half...
        run_campaign(tests[mid:], cfg, cache=second)  # ...then the rest
        merged = AllowedSetCache(path)
        assert len(merged) == len(
            {canonical_test_digest(t, "PC") for t in tests})
        report = run_campaign(tests, cfg, cache=merged)
        assert report.cache_misses == 0  # zero entries lost

    def test_interleaved_save_order_keeps_all_entries(self, tmp_path):
        path = tmp_path / "allowed.json"
        first, second = AllowedSetCache(path), AllowedSetCache(path)
        first.put("a" * 64, {(("r0", 0),)})
        second.put("b" * 64, {(("r0", 1),)})
        second.save()
        first.save()  # reverse arrival order: both must survive
        merged = AllowedSetCache(path)
        assert merged.get("a" * 64) == {(("r0", 0),)}
        assert merged.get("b" * 64) == {(("r0", 1),)}

    def test_hit_accounting_single_source(self, tmp_path):
        # Regression: report counters were recomputed independently of
        # the cache's own hits/misses and could disagree.  They are now
        # the same numbers by construction (per-campaign deltas).
        from repro import obs
        cache = AllowedSetCache(tmp_path / "allowed.json")
        tests = small_suite()
        cfg = RunConfig(seeds=2, clean_pass=False)
        run_campaign(tests, cfg, cache=cache)
        hits_before, misses_before = cache.hits, cache.misses
        tel = obs.Telemetry()
        with obs.use(tel):
            report = run_campaign(tests, cfg, cache=cache)
        assert report.cache_hits == cache.hits - hits_before
        assert report.cache_misses == cache.misses - misses_before
        assert tel.metrics.counter("campaign.cache_hits").value == \
            report.cache_hits
        payload = campaign_report_dict(report)
        assert payload["cache"]["hits"] == report.cache_hits
        assert payload["cache"]["hit_rate"] == 1.0

    def test_cached_campaign_matches_uncached(self, tmp_path):
        tests = small_suite()
        cfg = RunConfig(seeds=3)
        uncached = run_campaign(tests, cfg,
                                cache=AllowedSetCache())  # fresh memo
        warm = AllowedSetCache(tmp_path / "c.json")
        run_campaign(tests, cfg, cache=warm)
        cached = run_campaign(tests, cfg, cache=warm)
        assert outcome_sets(uncached) == outcome_sets(cached)
        for u, c in zip(uncached.verdicts, cached.verdicts):
            assert u.conformance.allowed == c.conformance.allowed


class TestCampaignReport:
    def _report(self, **cfg_kwargs):
        cfg = RunConfig(seeds=3, **cfg_kwargs)
        return check_suite([message_passing(), store_buffering()], cfg)

    def test_schema_and_totals(self, tmp_path):
        report = self._report()
        path = tmp_path / "campaign.json"
        payload = write_campaign_report(path, report)
        back = read_campaign_report(path)
        assert back == payload
        assert back["schema"] == CAMPAIGN_REPORT_SCHEMA
        assert back["tests"] == 2
        assert back["ok"] is True
        assert back["totals"]["clean_passes"] == 2
        assert back["totals"]["imprecise_exceptions"] == \
            report.total_imprecise_exceptions

    def test_per_test_wall_time_and_both_passes(self):
        payload = campaign_report_dict(self._report())
        for result in payload["results"]:
            assert result["wall_time_s"] > 0
            assert result["injected"]["runs"] == 3
            assert result["clean"]["runs"] == 3
            assert result["clean"]["imprecise_exceptions"] == 0
            assert "precise_exceptions" in result["injected"]

    def test_clean_only_campaign(self):
        payload = campaign_report_dict(self._report(inject_faults=False))
        for result in payload["results"]:
            assert result["injected"] is None
            assert result["clean"]["runs"] == 3

    def test_skip_clean_campaign(self):
        payload = campaign_report_dict(self._report(clean_pass=False))
        for result in payload["results"]:
            assert result["clean"] is None

    def test_read_rejects_other_schemas(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="not a campaign report"):
            read_campaign_report(path)


class TestExplorerIntegration:
    def _report(self, strategy="verify"):
        cfg = RunConfig(seeds=3, explore=strategy)
        return check_suite([message_passing(), store_buffering()], cfg)

    def test_verdicts_carry_exploration_check(self):
        report = self._report()
        for v in report.verdicts:
            assert v.explore_ok is True
            assert v.explore_check["strategy"] == "verify"
            assert v.explore_check["stats"]["interleavings"] > 0
        totals = report.explorer_totals()
        assert totals["tests_explored"] == 2
        assert totals["tests_skipped"] == 0
        assert totals["mismatches"] == 0

    def test_off_by_default(self):
        cfg = RunConfig(seeds=2, clean_pass=False)
        report = check_suite([message_passing()], cfg)
        assert report.verdicts[0].explore_ok is None
        assert report.explorer_totals()["tests_skipped"] == 1

    def test_report_json_has_explorer_blocks(self, tmp_path):
        payload = campaign_report_dict(self._report())
        assert payload["schema"] == CAMPAIGN_REPORT_SCHEMA
        assert payload["explorer"]["tests_explored"] == 2
        for result in payload["results"]:
            assert result["explorer"]["ok"] is True

    def test_v2_reports_still_readable(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(
            {"schema": "repro.litmus.campaign-report/v2", "tests": 0}))
        assert read_campaign_report(path)["tests"] == 0

    def test_cli_explore_flag(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "out.json"
        assert main(["litmus", "--quick", "--seeds", "2",
                     "--skip-clean", "--explore", "dpor",
                     "--json", str(out)]) == 0
        report = read_campaign_report(out)
        assert report["explorer"]["tests_explored"] == 40
        assert report["explorer"]["mismatches"] == 0


class TestCliCampaignFlags:
    def test_quick_parallel_json(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "out.json"
        assert main(["litmus", "--quick", "--seeds", "2", "--jobs", "2",
                     "--json", str(out)]) == 0
        report = read_campaign_report(out)
        assert report["jobs"] == 2
        assert report["ok"] is True
        assert all(r["wall_time_s"] > 0 for r in report["results"])
        assert "campaign report written" in capsys.readouterr().out

    def test_skip_clean_and_cache_flags(self, tmp_path, capsys):
        from repro.cli import main
        cache = tmp_path / "cache.json"
        argv = ["litmus", "--quick", "--seeds", "2", "--skip-clean",
                "--cache", str(cache)]
        assert main(argv) == 0
        assert cache.exists()
        capsys.readouterr()
        # Second run hits the persisted cache.
        assert main(argv) == 0
        assert "hits=40" in capsys.readouterr().out

    def test_store_and_incremental_flags(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "report.json"
        argv = ["litmus", "--quick", "--seeds", "2", "--skip-clean",
                "--store", str(tmp_path / "store"), "--incremental",
                "--json", str(out)]
        assert main(argv) == 0
        first = read_campaign_report(out)
        assert first["incremental"] is True
        assert first["store"]["misses"] == 40
        capsys.readouterr()
        # No-op re-campaign: everything replays from the store.
        assert main(argv) == 0
        second = read_campaign_report(out)
        assert second["store"]["hits"] == 40
        assert second["store"]["hit_rate"] == 1.0
        assert second["enumerator"]["tests_enumerated"] == 0
        assert "replays=40" in capsys.readouterr().out
        # Verdicts replay bit-identically.
        for a, b in zip(first["results"], second["results"]):
            assert a["ok"] == b["ok"]
            assert a["injected"] == b["injected"]

    def test_warm_incremental_rerun_leaves_index_unwritten(self,
                                                           tmp_path):
        from repro.cli import main
        store = tmp_path / "store"
        argv = ["litmus", "--quick", "--seeds", "2", "--skip-clean",
                "--store", str(store), "--incremental"]
        assert main(argv) == 0
        index = store / "index.json"
        # Backdate it, so that a rewrite shows on any clock granularity.
        os.utime(index, ns=(10 ** 18, 10 ** 18))
        before, content = index.stat(), index.read_bytes()
        assert main(argv) == 0
        after = index.stat()
        assert index.read_bytes() == content
        assert after.st_mtime_ns == before.st_mtime_ns
        assert after.st_ino == before.st_ino  # saves replace the file

    def test_incremental_requires_store(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="--store"):
            main(["litmus", "--quick", "--incremental"])
