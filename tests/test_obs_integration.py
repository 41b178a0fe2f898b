"""Cross-layer telemetry integration: timing spans vs Figure 5,
subsystem counters vs their legacy stats, the campaign event bus, the
v5 report schema, and the profile/stats CLI pair."""

import gc
import json

import pytest

from repro import obs
from repro.litmus.campaign import AllowedSetCache, run_campaign
from repro.litmus.library import all_library_tests
from repro.litmus.runner import RunConfig
from repro.memmodel import get_model
from repro.workloads import run_microbenchmark


def _capture(fn, *args, **kwargs):
    """Run ``fn`` under a fresh buffered telemetry; returns
    (result, telemetry, records)."""
    sink = obs.MemorySink()
    tel = obs.Telemetry(sinks=[sink])
    with obs.use(tel):
        result = fn(*args, **kwargs)
    return result, tel, sink.records


# ----------------------------------------------------------------------
# Timing engine: per-fault phase spans == cycle accounting
# ----------------------------------------------------------------------
class TestTimingSpans:
    def test_figure5_breakdown_matches_cycle_accounting(self):
        res, tel, records = _capture(
            run_microbenchmark, faulting_page_fraction=0.1, stores=600)
        breakdown = obs.figure5_from_spans(
            records + list(tel.drain_records()))
        # Acceptance criterion: span-derived breakdown within one
        # cycle per phase of the timing engine's own accounting.
        assert breakdown["uarch"] == pytest.approx(
            res.uarch_per_fault, abs=1.0)
        assert breakdown["os_apply"] == pytest.approx(
            res.os_apply_per_fault, abs=1.0)
        assert breakdown["os_other"] == pytest.approx(
            res.os_other_per_fault, abs=1.0)

    def test_fault_span_sequence_per_exception(self):
        res, tel, records = _capture(
            run_microbenchmark, faulting_page_fraction=0.1, stores=600)
        spans = [r for r in records if r["type"] == "span"
                 and r["track"] == obs.SIM]
        names = {r["name"] for r in spans}
        assert {"fault.drain", "fault.flush", "fault.os_dispatch",
                "fault.os_resolve", "fault.os_apply"} <= names
        per_name = {}
        for r in spans:
            per_name[r["name"]] = per_name.get(r["name"], 0) + 1
        assert per_name["fault.drain"] == res.imprecise_exceptions
        assert per_name["fault.os_apply"] == res.imprecise_exceptions
        assert (tel.counter("timing.imprecise_exceptions").value
                == res.imprecise_exceptions)
        assert (tel.counter("timing.faulting_stores").value
                == res.faulting_stores)

    def test_fsb_instruments_populated(self):
        _, tel, _ = _capture(
            run_microbenchmark, faulting_page_fraction=0.1, stores=600)
        assert tel.counter("fsb.drains").value > 0
        assert tel.gauge("fsb.ring_occupancy").max > 0
        batches = tel.histogram("fsb.drain_batch")
        assert batches.count == tel.counter("fsb.activations").value

    def test_chrome_export_of_timing_run_is_valid(self):
        _, tel, records = _capture(
            run_microbenchmark, faulting_page_fraction=0.1, stores=600)
        payload = obs.chrome_trace_events(
            [r for r in records if r["type"] == "span"],
            [r for r in records if r["type"] == "event"],
            [r for r in records if r["type"] == "sample"])
        assert obs.validate_chrome_trace(payload) == []

    def test_disabled_telemetry_changes_nothing(self):
        enabled, _, _ = _capture(
            run_microbenchmark, faulting_page_fraction=0.1, stores=600)
        disabled = run_microbenchmark(faulting_page_fraction=0.1,
                                      stores=600)
        assert enabled.total_cycles == disabled.total_cycles
        assert enabled.imprecise_exceptions == \
            disabled.imprecise_exceptions


# ----------------------------------------------------------------------
# Enumerator / explorer counters mirror their stats objects
# ----------------------------------------------------------------------
class TestSearchCounters:
    def test_enumerator_counters_match_stats(self):
        from repro.litmus.library import message_passing
        from repro.memmodel.enumerator import enumerate_executions

        test = message_passing()
        threads, deps = test.to_events()
        result, tel, records = _capture(
            enumerate_executions, threads, get_model("PC"),
            extra_ppo=deps)
        stats = result.stats.as_dict()
        assert tel.counter("enum.calls").value == 1
        for key in ("rf_assignments", "candidates_examined",
                    "candidates_consistent"):
            assert tel.counter(f"enum.{key}").value == stats[key]
        span = [r for r in records if r["type"] == "span"
                and r["name"] == "enum.enumerate"]
        assert len(span) == 1
        assert span[0]["attrs"]["model"] == result.model_name
        assert tel.histogram("enum.wall_time_s").count == 1

    def test_explorer_counters_match_stats(self):
        from repro.explore import crosscheck_test
        from repro.litmus.library import store_buffering

        check, tel, records = _capture(
            crosscheck_test, store_buffering(), "PC")
        stats = check.stats
        assert tel.counter("explore.calls").value >= 1
        assert (tel.counter("explore.states_visited").value
                == stats.states_visited)
        assert (tel.counter("explore.interleavings").value
                == stats.interleavings)
        assert tel.gauge("explore.max_depth").max >= stats.max_depth
        assert any(r["type"] == "span" and r["name"] == "explore.run"
                   for r in records)


# ----------------------------------------------------------------------
# Campaign event bus + report schema v5
# ----------------------------------------------------------------------
def _suite():
    return all_library_tests()[:5]


def _events(records, name=None):
    return sorted(
        (r["name"], json.dumps(r["fields"], sort_keys=True))
        for r in records if r.get("type") == "event"
        and (name is None or r["name"] == name))


def _campaign(jobs, chunk_size=None, **cfg):
    sink = obs.MemorySink()
    tel = obs.Telemetry(sinks=[sink])
    with obs.use(tel):
        report = run_campaign(_suite(),
                              RunConfig(seeds=2, **cfg), jobs=jobs,
                              cache=AllowedSetCache(),
                              chunk_size=chunk_size)
    return report, sink.records


class TestCampaignEventBus:
    def test_parallel_event_stream_matches_serial(self):
        _, serial = _campaign(1, chunk_size=2)
        _, parallel = _campaign(3, chunk_size=2)
        assert _events(serial) == _events(parallel)

    def test_per_test_events_invariant_across_chunking(self):
        _, pinned = _campaign(1, chunk_size=2)
        _, default = _campaign(2)
        assert (_events(pinned, "campaign.test")
                == _events(default, "campaign.test"))

    def test_test_event_payloads_are_deterministic_fields_only(self):
        _, records = _campaign(1, chunk_size=2)
        events = [r for r in records if r["type"] == "event"
                  and r["name"] == "campaign.test"]
        assert len(events) == len(_suite())
        for event in events:
            fields = event["fields"]
            assert set(fields) == {"index", "test", "ok", "outcomes",
                                   "imprecise", "precise", "cached"}

    def test_worker_spans_merge_on_own_lanes(self):
        _, records = _campaign(2, chunk_size=2)
        lanes = {r["lane"] for r in records
                 if r["type"] == "span" and r["name"] == "campaign.test"}
        assert lanes == {1, 3, 5}   # one wall lane per chunk
        payload = obs.chrome_trace_events(
            [r for r in records if r["type"] == "span"])
        assert obs.validate_chrome_trace(payload) == []

    def test_report_telemetry_block(self):
        report, _ = _campaign(1, chunk_size=2)
        assert report.telemetry is not None
        assert report.telemetry["enabled"] is True
        counters = report.telemetry["metrics"]["counters"]
        assert counters["campaign.tests"] == len(_suite())
        # Worker enumerator metrics merged into the parent registry.
        assert counters["enum.calls"] == len(_suite())

    def test_no_telemetry_means_no_block(self):
        report = run_campaign(_suite(), RunConfig(seeds=2),
                              cache=AllowedSetCache())
        assert report.telemetry is None


def _covered(parent, spans):
    """Seconds of ``parent`` covered by the union of the spans nested
    in it on its lane."""
    start, end = parent["ts"], parent["ts"] + parent["dur"]
    intervals = sorted(
        (s["ts"], s["ts"] + s["dur"]) for s in spans
        if s is not parent and s["lane"] == parent["lane"]
        and start <= s["ts"] and s["ts"] + s["dur"] <= end)
    covered, reach = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class TestCampaignSpanCoverage:
    def test_nested_spans_cover_campaign_test(self):
        """Under the default §6.3 config (PC, 20 seeds, injected and
        clean passes), the engine passes and the enumeration nested in
        each ``campaign.test`` account for >= 95% of its total."""
        # A collector pause of the whole test process landing between
        # two spans would be billed to no layer; keep it out.
        gc.collect()
        gc.disable()
        try:
            _, _, records = _capture(run_campaign, all_library_tests(),
                                     RunConfig(), cache=AllowedSetCache())
        finally:
            gc.enable()
        spans = [r for r in records if r["type"] == "span"]
        tests = [s for s in spans if s["name"] == "campaign.test"]
        assert len(tests) == len(all_library_tests())
        passes = [s for s in spans if s["name"] == "litmus.run_test"]
        assert len(passes) == 2 * len(tests)
        assert {(s["attrs"]["model"], s["attrs"]["injected"],
                 s["attrs"]["seeds"]) for s in passes} == {
            ("PC", True, 20), ("PC", False, 20)}
        assert all(s["attrs"]["steps"] > 0 for s in passes)
        total = sum(s["dur"] for s in tests)
        covered = sum(_covered(s, spans) for s in tests)
        assert covered >= 0.95 * total, (
            f"nested spans cover {covered / total:.1%} of campaign.test")


class TestReportSchemaV7:
    def test_roundtrip_with_telemetry(self, tmp_path):
        from repro.analysis.postprocess import (
            CAMPAIGN_REPORT_SCHEMA, read_campaign_report,
            write_campaign_report)

        report, _ = _campaign(1, chunk_size=2)
        path = tmp_path / "report.json"
        payload = write_campaign_report(path, report)
        assert payload["schema"] == CAMPAIGN_REPORT_SCHEMA
        assert payload["schema"].endswith("/v8")
        loaded = read_campaign_report(path)
        assert loaded["telemetry"]["metrics"]["counters"][
            "campaign.tests"] == len(_suite())

    def test_older_schemas_still_readable(self, tmp_path):
        from repro.analysis.postprocess import read_campaign_report

        for version in ("v1", "v2", "v3", "v4", "v5", "v6", "v7"):
            path = tmp_path / f"{version}.json"
            path.write_text(json.dumps(
                {"schema": f"repro.litmus.campaign-report/{version}",
                 "tests": 0}))
            assert read_campaign_report(path)["tests"] == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/v1"}))
        with pytest.raises(ValueError):
            read_campaign_report(bad)


class TestTotalsThinViews:
    """The legacy totals accessors must keep their exact dict layout
    now that they project out of the metrics registry."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(_suite()[:3],
                            RunConfig(seeds=2, explore="dpor",
                                      prefilter=True),
                            cache=AllowedSetCache())

    def test_enumerator_totals_match_direct_sum(self, report):
        expected = {
            "tests_enumerated": 0, "tests_cached": 0,
            "rf_assignments": 0, "rf_partial_prunes": 0,
            "addr_co_prunes": 0, "known_outcome_skips": 0,
            "candidates_examined": 0, "candidates_consistent": 0,
            "relation_cache_hits": 0, "wall_time_s": 0.0,
        }
        for v in report.verdicts:
            if v.enum_stats is None:
                expected["tests_cached"] += 1
                continue
            expected["tests_enumerated"] += 1
            for key, value in v.enum_stats.items():
                if key in expected and key != "tests_enumerated":
                    expected[key] += value
        expected["wall_time_s"] = round(expected["wall_time_s"], 6)
        assert report.enumerator_totals() == expected

    def test_explorer_totals_match_direct_sum(self, report):
        expected = {
            "tests_explored": 0, "tests_skipped": 0, "mismatches": 0,
            "states_visited": 0, "transitions_executed": 0,
            "interleavings": 0, "sleep_set_blocks": 0,
            "races_detected": 0, "wall_time_s": 0.0,
        }
        for v in report.verdicts:
            if v.explore_check is None:
                expected["tests_skipped"] += 1
                continue
            expected["tests_explored"] += 1
            if not v.explore_check["ok"]:
                expected["mismatches"] += 1
            for key, value in v.explore_check["stats"].items():
                if key in expected:
                    expected[key] += value
        expected["wall_time_s"] = round(expected["wall_time_s"], 6)
        assert report.explorer_totals() == expected

    def test_static_totals_match_direct_sum(self, report):
        expected = {
            "tests_classified": 0, "tests_skipped": 0,
            "sc_equivalent": 0, "relaxable": 0, "unknown": 0,
            "short_circuited": 0, "wall_time_s": 0.0,
        }
        for v in report.verdicts:
            if v.static_check is None:
                expected["tests_skipped"] += 1
                continue
            expected["tests_classified"] += 1
            key = str(v.static_check.get("verdict", "")).replace(
                "-", "_")
            if key in expected:
                expected[key] += 1
            if v.static_check.get("short_circuited"):
                expected["short_circuited"] += 1
            expected["wall_time_s"] += v.static_check.get(
                "wall_time_s", 0.0)
        expected["wall_time_s"] = round(expected["wall_time_s"], 6)
        assert report.static_totals() == expected

    def test_counts_are_ints(self, report):
        for totals in (report.enumerator_totals(),
                       report.explorer_totals(),
                       report.static_totals()):
            for key, value in totals.items():
                if key != "wall_time_s":
                    assert isinstance(value, int), (key, value)

    def test_registry_namespaces(self, report):
        reg = report.metrics_registry()
        assert reg.namespace("enum")  # non-empty projections
        assert reg.namespace("explore")
        assert reg.namespace("static")


# ----------------------------------------------------------------------
# CLI: repro profile / repro stats
# ----------------------------------------------------------------------
class TestProfileCli:
    def test_profile_mbench_writes_stream_and_trace(self, tmp_path,
                                                    capsys):
        from repro.cli import main

        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        code = main(["profile", "--quiet", "--jsonl", str(jsonl),
                     "--chrome", str(chrome), "mbench",
                     "--stores", "400", "--fault-fraction", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry stream written" in out
        assert "chrome trace written" in out
        records = obs.read_jsonl(jsonl)
        assert any(r.get("name") == "fault.drain" for r in records)
        assert records[-1]["type"] == "summary"
        obs.assert_valid_chrome_trace(json.loads(chrome.read_text()))

    def test_profile_requires_a_command(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["profile", "--quiet"])
        with pytest.raises(SystemExit):
            main(["profile", "profile", "mbench"])

    def test_profile_restores_ambient_telemetry(self, tmp_path):
        from repro.cli import main

        main(["profile", "--quiet", "mbench", "--stores", "300"])
        assert obs.current() is obs.NULL

    def test_stats_on_telemetry_stream(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "t.jsonl"
        main(["profile", "--quiet", "--jsonl", str(jsonl), "mbench",
              "--stores", "400", "--fault-fraction", "0.1"])
        capsys.readouterr()
        assert main(["stats", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "fault.drain" in out
        assert "figure5 per-fault breakdown" in out

    def test_stats_on_campaign_report(self, tmp_path, capsys):
        from repro.analysis.postprocess import write_campaign_report
        from repro.cli import main

        report, _ = _campaign(1, chunk_size=2)
        path = tmp_path / "report.json"
        write_campaign_report(path, report)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "campaign report" in out
        assert "telemetry: enabled=True" in out
