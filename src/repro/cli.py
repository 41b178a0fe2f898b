"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments:

==========  ==========================================================
command     regenerates
==========  ==========================================================
``litmus``  the §6.3 campaign (Table 6 coverage, zero negative diffs);
            ``--jobs`` shards it over workers, ``--cache`` persists
            allowed sets, ``--json`` writes the structured report;
            ``--randgen N`` campaigns over a seeded constrained-random
            corpus, ``--manifest`` replays a corpus manifest, and
            ``--profile nightly`` applies the paper-scale nightly
            defaults (``docs/randgen.md``)
``gen``     a seeded constrained-random litmus corpus
            (``repro.litmus.randgen``): prints the generation record
            and optionally writes the ``repro.litmus.corpus/v1``
            manifest other commands can replay
``table3``  instruction mix / WC speedup / speculation state
``fig5``    the overhead breakdown with and without batching
``fig6``    GAP/Tailbench relative performance under injection
``proofs``  the executable §4 formalism (Proof 1 + Figure 2)
``mbench``  one microbenchmark configuration (§6.4)
``explore`` exhaustive operational model checking (DPOR) of litmus
            tests, incl. imprecise-machine drain-policy sweeps
``fuzz``    random litmus mutation + divergence shrinking over the
            operational/axiomatic pair
``lint``    static well-formedness lint over litmus tests and
            ``.litmus`` files (rule catalogue:
            ``docs/static_analysis.md``)
``taint``   static FSB information-flow analysis (can a faulting
            store's data transiently reach another core before the OS
            apply point?), with ``--crosscheck`` against the
            exhaustive speculative taint explorer and ``--shrink``
            witness minimization
``serve``   the verdict-store daemon: newline-JSON queries and batched
            incremental verification over TCP/UDS
            (``docs/service.md``)
``profile`` any other command, run under live telemetry
            (``repro.obs``): streams records to JSONL, exports a
            Chrome/Perfetto trace, prints an end-of-run summary
``stats``   offline summary of a telemetry JSONL stream, a Chrome
            trace, or a structured campaign report (Figure 5
            breakdown recomputed from spans when present)
``bench``   the continuous perf-regression tracker over the
            ``BENCH_*.json`` trajectories (``repro.obs.perftrack``);
            ``--check`` gates on noise-aware baselines
==========  ==========================================================
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional


def _parse_cores(spec: str):
    """``"2-4"`` -> ``(2, 4)``; a bare ``"3"`` -> ``(3, 3)``."""
    lo, _, hi = spec.partition("-")
    try:
        return (int(lo), int(hi or lo))
    except ValueError:
        raise SystemExit(f"bad --randgen-cores {spec!r} "
                         f"(expected e.g. 2-4 or 3)")


def _parse_features(spec: str):
    from .litmus.randgen import ALL_FEATURES
    if spec == "all":
        return ALL_FEATURES
    if spec in ("none", ""):
        return ()
    return tuple(part.strip() for part in spec.split(",") if part.strip())


#: ``repro litmus --profile nightly``: the paper-scale seeded slice.
#: A 2k constrained-random corpus, static pre-filter on, DPOR
#: operational cross-check on, clean pass skipped, 2 scheduler seeds —
#: the configuration the nightly CI campaign runs (docs/randgen.md).
NIGHTLY_PROFILE = {"randgen": 2000, "seeds": 2}


def _apply_nightly_profile(args: argparse.Namespace) -> None:
    if args.randgen is None and not args.manifest:
        args.randgen = NIGHTLY_PROFILE["randgen"]
    if args.seeds == 20:  # the parser default — explicit values win
        args.seeds = NIGHTLY_PROFILE["seeds"]
    args.prefilter = True
    args.skip_clean = True
    if args.explore is None:
        args.explore = "dpor"


def _cmd_litmus(args: argparse.Namespace) -> int:
    import logging

    from .litmus import (RunConfig, all_library_tests, check_suite,
                         load_litmus_directory)
    from .litmus.generator import generate_all

    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.profile == "nightly":
        _apply_nightly_profile(args)
    sources = [s for s, used in (("--files", args.files),
                                 ("--randgen", args.randgen is not None),
                                 ("--manifest", args.manifest)) if used]
    if len(sources) > 1:
        raise SystemExit(f"litmus: {' and '.join(sources)} are "
                         f"mutually exclusive test sources")
    # Outputs are written after the campaign: reject an unwritable
    # destination before spending the campaign on it.
    for flag, path in (("--json", args.json),
                       ("--save-log", args.save_log
                        and f"{args.save_log}.hw.json")):
        if path and not Path(path).parent.is_dir():
            raise SystemExit(f"litmus: {flag} {path}: directory "
                             f"{Path(path).parent} does not exist")
    corpus = None
    if args.manifest:
        from .litmus.randgen import corpus_from_manifest
        corpus = corpus_from_manifest(args.manifest)
        tests = corpus.litmus_tests()
    elif args.randgen is not None:
        from .litmus.randgen import generate_corpus
        corpus = generate_corpus(
            seed=args.randgen_seed, count=args.randgen,
            cores=_parse_cores(args.randgen_cores),
            features=_parse_features(args.randgen_features))
        tests = corpus.litmus_tests()
    elif args.files:
        tests = load_litmus_directory(args.files)
    else:
        tests = generate_all() + all_library_tests()
    if args.quick:
        tests = tests[:40]
    config = RunConfig(model=args.model, seeds=args.seeds,
                       inject_faults=not args.no_faults,
                       clean_pass=not args.skip_clean,
                       explore=args.explore,
                       prefilter=args.prefilter,
                       taint=args.taint)
    if args.incremental and not args.store:
        raise SystemExit("litmus: --incremental needs --store DIR")
    store = None
    if args.store:
        from .store import VerdictStore
        store = VerdictStore(args.store)
    report = check_suite(tests, config, jobs=args.jobs, cache=args.cache,
                         store=store, incremental=args.incremental)
    if corpus is not None:
        report.corpus = corpus.report_block()
        print(corpus.summary())
    print(report.summary(explain=True))

    if args.json:
        from .analysis.postprocess import write_campaign_report
        write_campaign_report(args.json, report)
        print(f"campaign report written: {args.json}")
    if args.save_log:
        from .analysis.postprocess import write_litmus_log
        hardware = {v.test.name: v.run.outcomes
                    for v in report.verdicts}
        model_log = {v.test.name: v.conformance.allowed
                     for v in report.verdicts}
        write_litmus_log(f"{args.save_log}.hw.json", hardware)
        write_litmus_log(f"{args.save_log}.model.json", model_log)
        print(f"logs written: {args.save_log}.hw.json / .model.json")
    return 0 if report.ok else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    from .litmus.randgen import (RandGenConfig, corpus_from_manifest,
                                 generate_corpus, write_manifest)

    if args.verify:
        corpus = corpus_from_manifest(args.verify)
        print(f"manifest verified: {args.verify} "
              f"({len(corpus)} tests regenerate bit-identically; "
              f"corpus digest {corpus.corpus_digest()[:16]}…)")
        return 0
    config = RandGenConfig(seed=args.seed, count=args.count,
                           cores=_parse_cores(args.cores),
                           features=_parse_features(args.features))
    corpus = generate_corpus(config)
    print(corpus.summary())
    if args.manifest:
        write_manifest(args.manifest, corpus)
        print(f"corpus manifest written: {args.manifest}")
    return 0


def _select_tests(names):
    """Resolve test names against the library + generated suite; no
    names selects the whole hand-written library."""
    from .litmus import all_library_tests
    from .litmus.generator import generate_all

    library = all_library_tests()
    if not names:
        return library
    pool = {t.name: t for t in library + generate_all()}
    missing = [n for n in names if n not in pool]
    if missing:
        known = ", ".join(sorted(pool)[:12])
        raise SystemExit(f"unknown test(s): {', '.join(missing)} "
                         f"(known include: {known}, ...)")
    return [pool[n] for n in names]


def _cmd_explore(args: argparse.Namespace) -> int:
    from .explore import check_drain_policy, crosscheck_test
    from .memmodel.imprecise import DrainPolicy

    tests = _select_tests(args.tests)
    ok = True
    if args.policy:
        policy = (DrainPolicy.SAME_STREAM if args.policy == "same"
                  else DrainPolicy.SPLIT_STREAM)
        for test in tests:
            check = check_drain_policy(
                test, policy, faulting_locs=args.fault or None,
                strategy=args.strategy, max_states=args.max_states)
            status = ("preserves PC+WC" if check.preserves_model else
                      f"RACE: {len(check.violations_pc)} PC-forbidden "
                      f"outcome(s)")
            print(f"{test.name} [{policy.value}, faults="
                  f"{','.join(check.faulting_locs)}]: {status} "
                  f"({check.stats.interleavings} interleavings, "
                  f"{check.stats.states_visited} states)")
            for outcome, schedule in sorted(
                    check.violation_schedules.items()):
                print(f"  outcome {dict(outcome)}")
                print("  schedule: " + " | ".join(schedule))
            # A race is the *expected* finding for split-stream; only
            # same-stream races falsify the paper's claim.
            if policy is DrainPolicy.SAME_STREAM:
                ok = ok and check.preserves_model
    else:
        for test in tests:
            check = crosscheck_test(test, model=args.model,
                                    strategy=args.strategy,
                                    max_states=args.max_states)
            rel = "==" if check.require_equality else "<="
            verdict = "ok" if check.ok else "MISMATCH"
            print(f"{test.name} [{check.machine}/{args.strategy}]: "
                  f"{verdict} operational {len(check.operational)} "
                  f"{rel} allowed {len(check.allowed)} "
                  f"({check.stats.interleavings} interleavings, "
                  f"{check.stats.states_visited} states, "
                  f"{check.stats.wall_time_s:.3f}s)")
            for outcome, schedule in sorted(
                    check.violation_schedules.items()):
                print(f"  forbidden outcome {dict(outcome)}")
                print("  schedule: " + " | ".join(schedule))
            ok = ok and check.ok
    return 0 if ok else 1


def _cmd_taint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .memmodel.imprecise import DrainPolicy
    from .staticanalysis import TaintVerdict, analyze_taint

    tests = _select_tests(args.tests)
    if args.policy == "both":
        policies = [DrainPolicy.SAME_STREAM, DrainPolicy.SPLIT_STREAM]
    else:
        policies = [DrainPolicy.SAME_STREAM if args.policy == "same"
                    else DrainPolicy.SPLIT_STREAM]
    faulting = tuple(args.fault) if args.fault else None

    ok = True
    records = []
    for test in tests:
        for policy in policies:
            report = analyze_taint(test, policy, faulting_locs=faulting)
            entry = report.as_dict()
            print(f"{test.name} [{policy.value}, faults="
                  f"{','.join(report.faulting_locs)}]: "
                  f"{report.verdict.value}"
                  + (f" ({len(report.flows)} flow(s))"
                     if report.flows else "")
                  + (f" [{report.reason}]" if report.reason else ""))
            for flow in report.flows:
                print(f"  {flow.channel}: {flow.describe()}")

            if args.crosscheck:
                from .explore import check_taint_policy
                check = check_taint_policy(
                    test, policy, faulting_locs=faulting,
                    strategy=args.strategy, max_states=args.max_states)
                entry["dynamic"] = check.as_dict()
                agree = report.leak_free == (not check.leak)
                tag = "agrees" if agree else "DISAGREES"
                if report.verdict is TaintVerdict.UNKNOWN:
                    tag = "static unknown"
                print(f"  dynamic [{args.strategy}]: "
                      f"{'leak' if check.leak else 'no leak'} "
                      f"({check.stats.interleavings} interleavings, "
                      f"{check.stats.states_visited} states) — {tag}")
                if check.leak and check.witness_schedule:
                    print("  witness: "
                          + " | ".join(check.witness_schedule))
                # Soundness gate: a static leak-free verdict with a
                # dynamic leak is a false negative — the one failure
                # this command must never let pass.
                if report.leak_free and check.leak:
                    print(f"  FALSE NEGATIVE: static leak-free but "
                          f"the speculative explorer leaks on "
                          f"{test.name} [{policy.value}]")
                    ok = False

            if args.shrink and report.verdict is TaintVerdict.LEAK_HAZARD:
                from .explore import leak_predicate, shrink_test
                shrunk = shrink_test(
                    test, leak_predicate(policy, strategy=args.strategy,
                                         max_states=args.max_states))
                if shrunk is None:
                    print("  shrink: dynamic explorer found no "
                          "leaking schedule to minimize")
                else:
                    print(f"  shrink: {shrunk.original_ops} -> "
                          f"{shrunk.final_ops} op(s) in "
                          f"{shrunk.rounds} round(s) "
                          f"({shrunk.candidates_tried} candidates)")
                    for tid, ops in enumerate(shrunk.test.threads):
                        print(f"    C{tid}: "
                              + "; ".join(str(op) for op in ops))
                    print("    witness: "
                          + " | ".join(shrunk.schedule))
                    entry["shrink"] = {
                        "original_ops": shrunk.original_ops,
                        "final_ops": shrunk.final_ops,
                        "rounds": shrunk.rounds,
                        "candidates_tried": shrunk.candidates_tried,
                        "threads": [[list(op) for op in ops]
                                    for ops in shrunk.test.threads],
                        "schedule": list(shrunk.schedule),
                    }
            records.append(entry)

    hazards = sum(1 for r in records if r["verdict"] == "leak-hazard")
    unknown = sum(1 for r in records if r["verdict"] == "unknown")
    print(f"taint: {len(records)} check(s) over {len(tests)} test(s), "
          f"{hazards} leak-hazard, {unknown} unknown")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"schema": "repro.taint-report/v1",
             "checks": records}, indent=1, sort_keys=True))
        print(f"taint report written: {args.json}")
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .staticanalysis import has_lint_errors, lint_file, lint_tests

    ignore = tuple(args.ignore or ())
    findings = []
    scanned = 0

    def lint_dir(directory) -> None:
        nonlocal scanned
        paths = sorted(Path(directory).glob("*.litmus"))
        if not paths:
            raise SystemExit(f"no .litmus files under {directory}")
        for path in paths:
            scanned += 1
            findings.extend(lint_file(path, ignore=ignore))

    selected = False
    if args.all:
        from .litmus import all_library_tests
        from .litmus.generator import generate_all
        tests = generate_all() + all_library_tests()
        scanned += len(tests)
        findings.extend(lint_tests(tests, ignore=ignore))
        if Path("litmus_files").is_dir():
            lint_dir("litmus_files")
        selected = True
    if args.files:
        lint_dir(args.files)
        selected = True
    if args.tests or not selected:
        tests = _select_tests(args.tests)
        scanned += len(tests)
        findings.extend(lint_tests(tests, ignore=ignore))

    for finding in findings:
        print(finding.render())
    errors = sum(1 for f in findings if f.severity == "error")
    print(f"lint: {scanned} test(s) scanned, {len(findings)} "
          f"finding(s), {errors} error(s)")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"schema": "repro.lint-report/v1", "scanned": scanned,
             "errors": errors,
             "findings": [f.as_dict() for f in findings]},
            indent=1, sort_keys=True))
        print(f"lint report written: {args.json}")
    return 1 if has_lint_errors(findings) else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .explore import fuzz
    from .memmodel.imprecise import DrainPolicy

    policies = []
    if not args.no_policies:
        policies = [DrainPolicy.SAME_STREAM, DrainPolicy.SPLIT_STREAM]
    report = fuzz(seed=args.seed, iterations=args.iterations,
                  models=tuple(args.model or ("SC", "PC")),
                  policies=tuple(policies),
                  shrink=not args.no_shrink,
                  time_budget_s=args.time_budget,
                  max_findings=args.max_findings)
    print(report.summary())
    # Split-stream policy races are the fuzzer's purpose; only a
    # model divergence (operational != axiomatic) is a repo bug.
    return 1 if report.model_divergences else 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from .analysis import render_table3, run_table3

    rows = run_table3(cores=args.cores, scale=args.scale)
    print(render_table3(rows))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from .analysis import render_figure5
    from .workloads import figure5_sweep

    rows = figure5_sweep(fractions=(0.01, 0.1, 0.3))
    print(render_figure5(rows))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from .analysis import figure6_gate, render_figure6, run_figure6

    cache = None
    if args.trace_cache:
        from .workloads.capture import TraceCache

        cache = TraceCache(args.trace_cache)
    rows = run_figure6(cores=args.cores, cache=cache,
                       strategy=args.engine)
    print(render_figure6(rows))
    verdict = figure6_gate(rows)
    print(f"Tailbench aggregate throughput: "
          f"{verdict.tailbench_aggregate:.1%} of baseline "
          f"(criterion: loss <= 4%)")
    print(f"GAP per-kernel criterion: >= 96.5% of baseline")
    for failure in verdict.failures:
        print(f"FAIL {failure}")
    if verdict.ok:
        print("fig6 criteria met")
    return 0 if verdict.ok else 1


def _cmd_capture(args: argparse.Namespace) -> int:
    from .analysis.figure6 import FIGURE6_PARAMS
    from .workloads import figure6_workload_names
    from .workloads.capture import TraceCache, capture_workload

    cache = TraceCache(args.cache) if args.cache else TraceCache()
    names = args.workloads or figure6_workload_names()
    for name in names:
        params = dict(FIGURE6_PARAMS.get(name, {"scale": 1.0}))
        captured = capture_workload(name, cores=args.cores,
                                    seed=args.seed, cache=cache,
                                    force=args.force, inject=True,
                                    **params)
        source = "cache" if captured.from_cache else "built"
        print(f"{name:<16} {source:<6} key={captured.cache_key[:12]} "
              f"digest={captured.digest[:12]} cores={captured.cores} "
              f"ops={captured.total_ops()}")
    print(f"cache dir: {cache.root}")
    return 0


def _cmd_scenario16(args: argparse.Namespace) -> int:
    import json as _json

    from .analysis.scenario16 import run_scenario16

    report = run_scenario16(cores=args.cores,
                            requests_per_core=args.requests,
                            stores_per_request=args.stores,
                            seed=args.seed, strategy=args.engine)
    print(_json.dumps(report.as_dict(), indent=2))
    return 0


def _cmd_proofs(args: argparse.Namespace) -> int:
    from .memmodel import demonstrate_figure2_race, prove_rule_suite

    ok = True
    for report in prove_rule_suite():
        print(report.summary())
        ok = ok and report.holds
    race = demonstrate_figure2_race()
    print(race.summary())
    ok = ok and race.matches_paper
    return 0 if ok else 1


def _cmd_mbench(args: argparse.Namespace) -> int:
    from .workloads import run_microbenchmark

    res = run_microbenchmark(faulting_page_fraction=args.fault_fraction,
                             batching=args.batching,
                             stores=args.stores)
    print(f"stores              : {args.stores}")
    print(f"faulting stores     : {res.faulting_stores}")
    print(f"imprecise exceptions: {res.imprecise_exceptions} "
          f"({res.stores_per_exception:.2f} stores/exception)")
    print(f"per-fault breakdown : uarch {res.uarch_per_fault:.0f}  "
          f"os-apply {res.os_apply_per_fault:.0f}  "
          f"os-other {res.os_other_per_fault:.0f}  "
          f"total {res.total_per_fault:.0f} cycles")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    from .litmus import RunConfig
    from .obs import ConsoleSummarySink
    from .serve import VerdictServer

    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if not args.uds and not args.port:
        raise SystemExit("serve: need --uds PATH or --port N")
    config = RunConfig(model=args.model, seeds=args.seeds,
                       inject_faults=not args.no_faults,
                       clean_pass=not args.skip_clean)
    sinks = [] if args.quiet else [ConsoleSummarySink()]
    server = VerdictServer(args.store, config, jobs=args.jobs,
                           batch_window_s=args.batch_window,
                           batch_max=args.batch_max,
                           sinks=sinks,
                           trace_buffer=args.trace_buffer)

    def ready(address) -> None:
        where = address.get("uds") or \
            f"{address['host']}:{address['port']}"
        print(f"repro serve: listening on {where} "
              f"(store={args.store}, model={args.model})", flush=True)

    try:
        asyncio.run(server.run(uds=args.uds, host=args.host,
                               port=args.port or 0, ready=ready))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from . import obs

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise SystemExit("profile: no command given "
                         "(e.g. repro profile --chrome t.json mbench)")
    if rest[0] == "profile":
        raise SystemExit("profile: cannot profile itself")
    sinks: list = []
    if args.jsonl:
        sinks.append(obs.JsonlSink(args.jsonl))
    if args.chrome:
        sinks.append(obs.ChromeTraceSink(args.chrome))
    if not args.quiet:
        sinks.append(obs.ConsoleSummarySink())
    tel = obs.Telemetry(sinks=sinks)
    # One trace per profiled run: every record (including campaign
    # worker-process records) carries the same trace id.
    context = obs.TraceContext()
    with obs.use(tel), obs.use_trace(context):
        try:
            code = main(rest)
        finally:
            tel.close()
    if not args.quiet:
        print(f"trace id: {context.trace_id}")
    if args.jsonl:
        print(f"telemetry stream written: {args.jsonl}")
    if args.chrome:
        print(f"chrome trace written: {args.chrome} "
              f"(load in Perfetto or chrome://tracing)")
    return code


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import (chrome_trace_to_records, load_stats_input,
                      render_summary, summarize_campaign_report,
                      summarize_records, validate_chrome_trace)

    loaded = load_stats_input(args.path)
    try:
        if loaded["kind"] == "campaign":
            print(summarize_campaign_report(loaded["payload"]))
        elif loaded["kind"] == "chrome":
            problems = validate_chrome_trace(loaded["payload"])
            if problems:
                for problem in problems[:10]:
                    print(f"stats: invalid chrome trace: {problem}",
                          file=sys.stderr)
                return 1
            print(render_summary(summarize_records(
                chrome_trace_to_records(loaded["payload"]))))
        else:
            print(render_summary(summarize_records(loaded["records"])))
    except BrokenPipeError:  # `repro stats ... | head`
        sys.stderr.close()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json as _json

    from .obs import perftrack

    if args.append:
        if not args.entry:
            raise SystemExit("bench: --append needs --entry JSON")
        try:
            entry = _json.loads(args.entry)
        except ValueError as exc:
            raise SystemExit(f"bench: --entry is not JSON: {exc}")
        run = perftrack.append_entry(args.append, entry)
        print(f"bench: appended run {run} to {args.append}")
        return 0
    report = perftrack.check_regressions(args.root, window=args.window)
    if args.json:
        Path(args.json).write_text(_json.dumps(report, indent=1)
                                   + "\n")
    print(perftrack.render_check(report))
    if args.check:
        return 0 if report["ok"] else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Imprecise Store Exceptions' "
                    "(ISCA 2023)")
    sub = parser.add_subparsers(dest="command", required=True)

    litmus = sub.add_parser("litmus", help="run the litmus campaign")
    litmus.add_argument("--model", default="PC",
                        choices=["SC", "PC", "WC"])
    # Literal mirror of repro.litmus.runner.DEFAULT_SEEDS (kept in
    # sync by tests) so parser construction stays import-light.
    litmus.add_argument("--seeds", type=int, default=20,
                        help="scheduler seeds per pass (default 20)")
    litmus.add_argument("--no-faults", action="store_true")
    litmus.add_argument("--quick", action="store_true",
                        help="only the first 40 tests")
    litmus.add_argument("--files", metavar="DIR",
                        help="run .litmus files from DIR instead of "
                             "the generated suite")
    litmus.add_argument("--save-log", metavar="PREFIX",
                        help="archive hardware/model outcome logs as "
                             "PREFIX.hw.json / PREFIX.model.json")
    litmus.add_argument("--jobs", type=int, default=1,
                        help="shard tests over N worker processes "
                             "(outcomes identical for any N)")
    litmus.add_argument("--json", metavar="PATH",
                        help="write the structured JSON campaign "
                             "report (schema: docs/campaign.md)")
    litmus.add_argument("--cache", metavar="PATH",
                        help="persistent allowed-set cache file; "
                             "repeat campaigns skip re-enumeration")
    litmus.add_argument("--store", metavar="DIR",
                        help="content-addressed verdict store "
                             "directory (repro.store); verdicts are "
                             "recorded and the report gains a 'store' "
                             "block")
    litmus.add_argument("--incremental", action="store_true",
                        help="with --store: replay stored verdicts "
                             "for unchanged (test, config) inputs and "
                             "run only the misses")
    litmus.add_argument("--skip-clean", action="store_true",
                        help="skip the per-test clean pass (faster, "
                             "judges only the injected run)")
    litmus.add_argument("--explore", metavar="STRATEGY", default=None,
                        choices=["dpor", "naive", "verify"],
                        help="also exhaustively cross-check each test "
                             "on the operational machine "
                             "(repro.explore); adds an 'explorer' "
                             "block to verdicts and the JSON report")
    litmus.add_argument("--prefilter", action="store_true",
                        help="classify each test statically first and "
                             "enumerate provably SC-equivalent tests "
                             "under SC (repro.staticanalysis); adds a "
                             "'static' block to the JSON report")
    litmus.add_argument("--taint", action="store_true",
                        help="run the static FSB taint analyzer per "
                             "test under both drain policies "
                             "(repro.staticanalysis.taint); adds a "
                             "'taint' block to verdicts and the JSON "
                             "report (a leak hazard is a report, "
                             "never a failure)")
    litmus.add_argument("--randgen", type=int, metavar="N", default=None,
                        help="campaign over N seeded constrained-random "
                             "tests (repro.litmus.randgen) instead of "
                             "the structural suite; adds the 'corpus' "
                             "block to the JSON report")
    litmus.add_argument("--randgen-seed", type=int, default=0,
                        metavar="SEED",
                        help="corpus seed for --randgen (default 0)")
    litmus.add_argument("--randgen-cores", default="2-4", metavar="LO-HI",
                        help="core-count range for --randgen "
                             "(default 2-4)")
    litmus.add_argument("--randgen-features", default="all",
                        metavar="LIST",
                        help="comma list from fences,deps,atomics,"
                             "faults; or 'all'/'none' (default all)")
    litmus.add_argument("--manifest", metavar="PATH",
                        help="campaign over the corpus a "
                             "repro.litmus.corpus/v1 manifest records "
                             "(regenerated and digest-verified)")
    litmus.add_argument("--profile", default=None, choices=["nightly"],
                        help="apply a named campaign profile; "
                             "'nightly' = 2k-test randgen slice with "
                             "prefilter + DPOR cross-check, clean pass "
                             "skipped, 2 seeds (docs/randgen.md)")
    litmus.set_defaults(fn=_cmd_litmus)

    gen = sub.add_parser(
        "gen",
        help="generate a seeded constrained-random litmus corpus "
             "(repro.litmus.randgen; see docs/randgen.md)")
    gen.add_argument("--seed", type=int, default=0,
                     help="corpus seed (default 0); the same seed "
                          "always regenerates the identical corpus")
    gen.add_argument("--count", type=int, default=100,
                     help="unique, lint-clean tests to emit "
                          "(default 100)")
    gen.add_argument("--cores", default="2-4", metavar="LO-HI",
                     help="core-count range, within 2-4 (default 2-4)")
    gen.add_argument("--features", default="all", metavar="LIST",
                     help="comma list from fences,deps,atomics,faults; "
                          "or 'all'/'none' (default all)")
    gen.add_argument("--manifest", metavar="PATH",
                     help="write the repro.litmus.corpus/v1 manifest "
                          "(replayable via 'repro litmus --manifest')")
    gen.add_argument("--verify", metavar="PATH",
                     help="instead of generating: regenerate the "
                          "corpus PATH records and verify every "
                          "digest matches")
    gen.set_defaults(fn=_cmd_gen)

    lint = sub.add_parser(
        "lint", help="static well-formedness lint for litmus tests")
    lint.add_argument("tests", nargs="*", metavar="TEST",
                      help="test names (default: the hand-written "
                           "library, unless --all/--files is given)")
    lint.add_argument("--all", action="store_true",
                      help="lint the library + generated suite, plus "
                           "./litmus_files if present")
    lint.add_argument("--files", metavar="DIR",
                      help="lint every .litmus file in DIR (parse "
                           "failures become L000 findings)")
    lint.add_argument("--ignore", action="append", metavar="RULE",
                      help="drop a rule ID (repeatable, e.g. "
                           "--ignore L004)")
    lint.add_argument("--json", metavar="PATH",
                      help="write machine-readable findings")
    lint.set_defaults(fn=_cmd_lint)

    explore = sub.add_parser(
        "explore", help="exhaustively model-check litmus tests")
    explore.add_argument("tests", nargs="*", metavar="TEST",
                         help="test names (default: the whole "
                              "hand-written library)")
    explore.add_argument("--model", default="PC",
                         choices=["SC", "TSO", "PC", "WC", "RVWMO"])
    explore.add_argument("--strategy", default="dpor",
                         choices=["dpor", "naive", "verify"])
    explore.add_argument("--max-states", type=int, default=500_000,
                         help="exploration budget per test")
    explore.add_argument("--policy", default=None,
                         choices=["same", "split"],
                         help="explore the imprecise machine under "
                              "this FSB drain policy instead of the "
                              "clean machine")
    explore.add_argument("--fault", action="append", metavar="LOC",
                         help="faulting location for --policy "
                              "(repeatable; default: all locations)")
    explore.set_defaults(fn=_cmd_explore)

    taint = sub.add_parser(
        "taint",
        help="static FSB leak analysis of litmus tests, with optional "
             "dynamic cross-check and witness shrinking")
    taint.add_argument("tests", nargs="*", metavar="TEST",
                       help="test names (default: the whole "
                            "hand-written library)")
    taint.add_argument("--policy", default="both",
                       choices=["same", "split", "both"],
                       help="FSB drain policy to analyze under "
                            "(default both)")
    taint.add_argument("--fault", action="append", metavar="LOC",
                       help="faulting location (repeatable; default: "
                            "all locations)")
    taint.add_argument("--crosscheck", action="store_true",
                       help="also explore the speculative "
                            "taint-tracking machine exhaustively and "
                            "compare; a static leak-free verdict "
                            "contradicted by a dynamic leak (false "
                            "negative) fails the command")
    taint.add_argument("--shrink", action="store_true",
                       help="ddmin-minimize a leak witness for each "
                            "static leak-hazard verdict, printing the "
                            "minimal program and its schedule")
    taint.add_argument("--strategy", default="dpor",
                       choices=["dpor", "naive", "verify"],
                       help="exploration strategy for --crosscheck / "
                            "--shrink (default dpor)")
    taint.add_argument("--max-states", type=int, default=500_000,
                       help="exploration budget per dynamic check")
    taint.add_argument("--json", metavar="PATH",
                       help="write the machine-readable taint report")
    taint.set_defaults(fn=_cmd_taint)

    fuzz = sub.add_parser(
        "fuzz", help="fuzz the operational/axiomatic pair")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--iterations", type=int, default=50,
                      help="mutants to generate (default 50)")
    fuzz.add_argument("--model", action="append",
                      choices=["SC", "PC", "WC"], default=None,
                      help="models to conformance-check (repeatable; "
                           "default SC and PC)")
    fuzz.add_argument("--no-policies", action="store_true",
                      help="skip the imprecise drain-policy sweep")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report findings without delta-debugging")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop mutating after this much wall time")
    fuzz.add_argument("--max-findings", type=int, default=10)
    fuzz.set_defaults(fn=_cmd_fuzz)

    table3 = sub.add_parser("table3", help="regenerate Table 3")
    table3.add_argument("--cores", type=int, default=4)
    table3.add_argument("--scale", type=float, default=0.5)
    table3.set_defaults(fn=_cmd_table3)

    fig5 = sub.add_parser("fig5", help="regenerate Figure 5")
    fig5.set_defaults(fn=_cmd_fig5)

    fig6 = sub.add_parser("fig6", help="regenerate Figure 6")
    fig6.add_argument("--cores", type=int, default=2)
    fig6.add_argument("--trace-cache", metavar="DIR",
                      help="capture/replay workload traces through "
                           "this cache directory")
    fig6.add_argument("--engine", default="fast",
                      choices=["fast", "naive", "verify"],
                      help="timing engine strategy (bit-identical; "
                           "'verify' runs both and compares)")
    fig6.set_defaults(fn=_cmd_fig6)

    capture = sub.add_parser(
        "capture",
        help="capture workload traces into the on-disk cache "
             "(repro.trace/v1 artifacts; see docs/simulation.md)")
    capture.add_argument("workloads", nargs="*", metavar="NAME",
                         help="workload names (default: the Figure 6 "
                              "roster with its pinned params)")
    capture.add_argument("--cores", type=int, default=2)
    capture.add_argument("--seed", type=int, default=1)
    capture.add_argument("--cache", metavar="DIR",
                         help=f"cache directory (default ${{"
                              f"REPRO_TRACE_CACHE}} or "
                              f"~/.cache/repro-traces)")
    capture.add_argument("--force", action="store_true",
                         help="rebuild even on a cache hit")
    capture.set_defaults(fn=_cmd_capture)

    scen16 = sub.add_parser(
        "scenario16",
        help="16-core concurrent faulting streams: FSB contention "
             "and request-latency percentiles")
    scen16.add_argument("--cores", type=int, default=16)
    scen16.add_argument("--requests", type=int, default=64,
                        help="requests per core (default 64)")
    scen16.add_argument("--stores", type=int, default=24,
                        help="stores per request (default 24)")
    scen16.add_argument("--seed", type=int, default=1)
    scen16.add_argument("--engine", default="fast",
                        choices=["fast", "naive", "verify"])
    scen16.set_defaults(fn=_cmd_scenario16)

    proofs = sub.add_parser("proofs", help="run the executable proofs")
    proofs.set_defaults(fn=_cmd_proofs)

    mbench = sub.add_parser("mbench", help="run the §6.4 microbenchmark")
    mbench.add_argument("--fault-fraction", type=float, default=0.05)
    mbench.add_argument("--stores", type=int, default=2000)
    mbench.add_argument("--batching", action="store_true")
    mbench.set_defaults(fn=_cmd_mbench)

    serve = sub.add_parser(
        "serve",
        help="run the verdict-store daemon (newline-JSON over "
             "TCP/UDS; protocol: docs/service.md)")
    serve.add_argument("--store", metavar="DIR", required=True,
                       help="verdict store directory to serve")
    serve.add_argument("--uds", metavar="PATH",
                       help="listen on a Unix domain socket")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--model", default="PC",
                       choices=["SC", "PC", "WC"])
    serve.add_argument("--seeds", type=int, default=20,
                       help="scheduler seeds per pass (default 20)")
    serve.add_argument("--no-faults", action="store_true")
    serve.add_argument("--skip-clean", action="store_true",
                       help="skip clean passes in batch campaigns")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes per batch campaign")
    serve.add_argument("--batch-window", type=float, default=0.05,
                       metavar="SECONDS",
                       help="how long to coalesce submissions before "
                            "running a batch (default 0.05)")
    serve.add_argument("--batch-max", type=int, default=512,
                       help="max submissions per batch (default 512)")
    serve.add_argument("--trace-buffer", type=int, default=20000,
                       metavar="RECORDS",
                       help="span-retainer ring size for the 'trace' "
                            "op (default 20000)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the shutdown telemetry summary")
    serve.set_defaults(fn=_cmd_serve)

    profile = sub.add_parser(
        "profile",
        help="run another repro command under live telemetry")
    profile.add_argument("--jsonl", metavar="PATH",
                         help="stream telemetry records as JSON lines "
                              "(the 'repro stats' input format)")
    profile.add_argument("--chrome", metavar="PATH",
                         help="write a Chrome trace-event JSON, "
                              "loadable in Perfetto / chrome://tracing")
    profile.add_argument("--quiet", action="store_true",
                         help="suppress the end-of-run console summary")
    profile.add_argument("rest", nargs=argparse.REMAINDER,
                         metavar="COMMAND",
                         help="the repro command (and its arguments) "
                              "to run under telemetry")
    profile.set_defaults(fn=_cmd_profile)

    stats = sub.add_parser(
        "stats",
        help="summarise a telemetry JSONL stream or campaign report")
    stats.add_argument("path", metavar="PATH",
                       help="telemetry .jsonl from 'repro profile "
                            "--jsonl', a Chrome trace from 'repro "
                            "profile --chrome', or a campaign report "
                            "JSON from 'repro litmus --json'")
    stats.set_defaults(fn=_cmd_stats)

    bench = sub.add_parser(
        "bench",
        help="perf-regression tracker over the BENCH_*.json "
             "trajectories (schema: repro.bench/v1)")
    bench.add_argument("--root", default=".", metavar="DIR",
                       help="directory holding the BENCH_*.json "
                            "files (default .)")
    bench.add_argument("--check", action="store_true",
                       help="exit non-zero when the latest run of any "
                            "tracked metric regresses vs its baseline "
                            "window")
    bench.add_argument("--window", type=int, default=5,
                       help="baseline window: median of up to N prior "
                            "runs (default 5)")
    bench.add_argument("--json", metavar="PATH",
                       help="also write the check report as JSON")
    bench.add_argument("--append", metavar="FILE",
                       help="append one run entry to FILE (upgrades "
                            "it to repro.bench/v1) instead of "
                            "checking")
    bench.add_argument("--entry", metavar="JSON",
                       help="the raw entry object for --append "
                            "(must include a 'bench' key)")
    bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
