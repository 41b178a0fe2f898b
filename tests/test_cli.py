"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParserStructure:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        assert set(sub.choices) == {
            "litmus", "table3", "fig5", "fig6", "proofs", "mbench",
            "explore", "fuzz", "taint", "lint", "serve", "profile",
            "stats", "capture", "scenario16", "gen", "bench"}

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_litmus_defaults(self):
        args = build_parser().parse_args(["litmus"])
        assert args.model == "PC"
        assert args.seeds == 20
        assert not args.no_faults


class TestCommands:
    def test_proofs_exit_zero(self, capsys):
        assert main(["proofs"]) == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out
        assert "matches paper          : True" in out

    def test_mbench(self, capsys):
        assert main(["mbench", "--stores", "500",
                     "--fault-fraction", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "per-fault breakdown" in out

    def test_mbench_batching_flag(self, capsys):
        assert main(["mbench", "--stores", "500",
                     "--fault-fraction", "0.3", "--batching"]) == 0

    def test_litmus_quick(self, capsys):
        assert main(["litmus", "--quick", "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "litmus suite [OK]" in out

    def test_litmus_clean_mode(self, capsys):
        assert main(["litmus", "--quick", "--seeds", "5",
                     "--no-faults"]) == 0
        assert "faults=off" in capsys.readouterr().out

    def test_litmus_files_mode(self, capsys):
        assert main(["litmus", "--files", "litmus_files",
                     "--seeds", "5"]) == 0
        assert "tests=17" in capsys.readouterr().out

    def test_litmus_save_log(self, capsys, tmp_path):
        import json
        prefix = str(tmp_path / "campaign")
        assert main(["litmus", "--files", "litmus_files",
                     "--seeds", "5", "--save-log", prefix]) == 0
        hardware = json.load(open(prefix + ".hw.json"))
        model = json.load(open(prefix + ".model.json"))
        assert set(hardware) == set(model)
        # Hardware outcomes are a subset of the model's per test.
        for name, observed in hardware.items():
            allowed = {tuple(map(tuple, o)) for o in model[name]}
            assert {tuple(map(tuple, o)) for o in observed} <= allowed

    @pytest.mark.parametrize("flag, name", [("--json", "report.json"),
                                            ("--save-log", "campaign")])
    def test_missing_output_dir_fails_before_campaign(
            self, flag, name, tmp_path, monkeypatch):
        import repro.litmus

        def no_campaign(*args, **kwargs):
            raise AssertionError("campaign ran before the output check")
        monkeypatch.setattr(repro.litmus, "check_suite", no_campaign)
        target = tmp_path / "missing" / name
        with pytest.raises(SystemExit) as exc:
            main(["litmus", "--quick", "--seeds", "1", flag, str(target)])
        message = str(exc.value)
        assert message.startswith(f"litmus: {flag} ")
        assert "missing" in message and "\n" not in message


class TestExploreCommand:
    def test_explore_named_tests(self, capsys):
        assert main(["explore", "MP", "SB", "--strategy",
                     "verify"]) == 0
        out = capsys.readouterr().out
        assert "MP [tso/verify]: ok" in out
        assert "SB [tso/verify]: ok" in out

    def test_explore_unknown_test_errors(self):
        with pytest.raises(SystemExit, match="unknown test"):
            main(["explore", "no-such-test"])

    def test_explore_split_policy_prints_witness(self, capsys):
        assert main(["explore", "MP", "--policy", "split",
                     "--fault", "y"]) == 0
        out = capsys.readouterr().out
        assert "RACE" in out
        assert "DETECT+PUT" in out

    def test_explore_same_policy_preserves(self, capsys):
        assert main(["explore", "MP", "--policy", "same"]) == 0
        assert "preserves PC+WC" in capsys.readouterr().out

    def test_fuzz_smoke(self, capsys):
        assert main(["fuzz", "--seed", "7", "--iterations", "8",
                     "--no-shrink"]) == 0
        assert "model divergences: 0" in capsys.readouterr().out


class TestGenCommand:
    def test_gen_prints_generation_record(self, capsys):
        assert main(["gen", "--seed", "7", "--count", "25"]) == 0
        out = capsys.readouterr().out
        assert "randgen corpus: 25 tests" in out
        assert "corpus digest:" in out

    def test_gen_is_deterministic(self, capsys):
        def stable_lines(out):
            # Drop the wall-time/throughput line; everything else
            # (template mix, corpus digest) must be bit-identical.
            return [ln for ln in out.splitlines() if "wall=" not in ln]

        main(["gen", "--seed", "7", "--count", "25"])
        first = stable_lines(capsys.readouterr().out)
        main(["gen", "--seed", "7", "--count", "25"])
        assert stable_lines(capsys.readouterr().out) == first
        assert any("corpus digest:" in ln for ln in first)

    def test_gen_manifest_round_trip(self, capsys, tmp_path):
        manifest = str(tmp_path / "corpus.json")
        assert main(["gen", "--seed", "3", "--count", "15",
                     "--manifest", manifest]) == 0
        assert "corpus manifest written" in capsys.readouterr().out
        assert main(["gen", "--verify", manifest]) == 0
        assert "manifest verified" in capsys.readouterr().out

    def test_gen_verify_detects_tampering(self, tmp_path):
        import json
        from repro.litmus.randgen import ManifestMismatchError
        manifest = tmp_path / "corpus.json"
        main(["gen", "--seed", "3", "--count", "5",
              "--manifest", str(manifest)])
        payload = json.loads(manifest.read_text())
        payload["tests"][0]["digest"] = "f" * 64
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ManifestMismatchError):
            main(["gen", "--verify", str(manifest)])

    def test_gen_bad_cores_spec_errors(self):
        with pytest.raises(SystemExit):
            main(["gen", "--count", "5", "--cores", "lots"])


class TestLitmusRandgen:
    def test_randgen_campaign_with_corpus_block(self, capsys, tmp_path):
        import json
        report_path = str(tmp_path / "report.json")
        assert main(["litmus", "--randgen", "12", "--seeds", "2",
                     "--skip-clean", "--prefilter", "--json",
                     report_path]) == 0
        out = capsys.readouterr().out
        assert "randgen corpus: 12 tests" in out
        assert "litmus suite [OK]" in out
        report = json.load(open(report_path))
        assert report["schema"].endswith("/v8")
        assert report["corpus"]["count"] == 12
        assert report["corpus"]["seed"] == 0

    def test_manifest_campaign_source(self, capsys, tmp_path):
        import json
        manifest = str(tmp_path / "corpus.json")
        main(["gen", "--seed", "5", "--count", "10",
              "--manifest", manifest])
        capsys.readouterr()
        report_path = str(tmp_path / "report.json")
        assert main(["litmus", "--manifest", manifest, "--seeds", "2",
                     "--skip-clean", "--json", report_path]) == 0
        report = json.load(open(report_path))
        assert report["tests"] == 10
        assert report["corpus"]["seed"] == 5
        expected = json.loads(open(manifest).read())["corpus_digest"]
        assert report["corpus"]["corpus_digest"] == expected

    def test_sources_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["litmus", "--randgen", "5",
                  "--manifest", str(tmp_path / "x.json")])

    def test_profile_nightly_applies_defaults(self, capsys):
        # Small --randgen override keeps the smoke fast; the profile
        # still forces prefilter + dpor + skip-clean + 2 seeds.
        assert main(["litmus", "--profile", "nightly",
                     "--randgen", "8", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "randgen corpus: 8 tests" in out
        assert "litmus suite [OK]" in out

    def test_profile_nightly_default_count_is_2k(self):
        args = build_parser().parse_args(["litmus", "--profile",
                                          "nightly"])
        from repro.cli import _apply_nightly_profile
        _apply_nightly_profile(args)
        assert args.randgen == 2000
        assert args.seeds == 2
        assert args.prefilter and args.skip_clean
        assert args.explore == "dpor"


class TestStatsCommand:
    def _chrome_file(self, tmp_path, events):
        import json
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": events}))
        return str(path)

    def test_stats_on_chrome_trace(self, capsys, tmp_path):
        from repro import obs
        tel = obs.Telemetry(sinks=[sink := obs.MemorySink()])
        with tel.span("campaign.run"):
            tel.event("campaign.test", test="SB")
        payload = obs.chrome_trace_events(
            [r for r in sink.records if r["type"] == "span"],
            [r for r in sink.records if r["type"] == "event"])
        path = self._chrome_file(tmp_path, payload["traceEvents"])
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "campaign.run" in out
        assert "campaign.test" in out

    def test_stats_rejects_invalid_chrome_trace(self, capsys,
                                                tmp_path):
        path = self._chrome_file(tmp_path, [
            {"name": "a", "ph": "E", "ts": 0, "pid": 1, "tid": 0}])
        assert main(["stats", path]) == 1
        assert "invalid" in capsys.readouterr().err.lower()
