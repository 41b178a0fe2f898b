"""Telemetry overhead on the enumerator sweep and the engine passes.

The acceptance criterion for the observability PR: instrumented code
with telemetry *disabled* (the ambient NULL context, the default for
every caller that never opts in) must cost at most 5% over the same
work with the instrumentation short-circuited.  Two layers are
pinned:

* the enumerator over the generated suite, whose disabled path is one
  module-global read plus an ``enabled`` check per
  ``enumerate_executions`` call;
* the functional engine's runner passes over the library (the default
  §6.3 config: 20 seeds, injected and clean), whose disabled path is
  the same read per ``run_test`` pass.

Everything else happens only under a live :class:`repro.obs.Telemetry`.
The enabled-telemetry cost (spans + counters into a buffering sink)
is also measured and recorded, with a loose sanity bound: both hooks
publish once per call, never per search node or scheduler step, so
even live telemetry must stay cheap.

Set ``REPRO_BENCH_RECORD=1`` to append the measurements to
``BENCH_obs.json`` (the cross-PR trajectory).
"""

import gc
import os
import time
from dataclasses import replace
from pathlib import Path

from conftest import run_once

from repro import obs
from repro.litmus import RunConfig, all_library_tests
from repro.litmus import runner as RUN
from repro.litmus.generator import generate_all
from repro.memmodel import MODELS
from repro.memmodel import enumerator as EN

MODEL_SET = [MODELS[name] for name in ("SC", "PC", "WC", "RVWMO")]
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
ROUNDS = 7
#: The §6.3 default: faults injected, plus a clean pass.
PASSES = (RunConfig(), replace(RunConfig(), inject_faults=False))

#: Measured-noise headroom on top of the 5% criterion is deliberately
#: NOT added: the disabled path is so far under the bound that the
#: raw criterion holds with paired-ratio timing.  Container noise is
#: one-sided (it only ever inflates a ratio), so a failed measurement
#: is re-taken up to MEASURE_ATTEMPTS times before asserting.
DISABLED_OVERHEAD_LIMIT = 1.05
ENABLED_OVERHEAD_LIMIT = 1.50
MEASURE_ATTEMPTS = 3


def _pairs():
    return [(t.name, t.to_events()) for t in generate_all()]


def _sweep(pairs):
    EN._STATIC_CACHE.clear()
    started = time.perf_counter()
    for _name, (threads, deps) in pairs:
        for model in MODEL_SET:
            EN.enumerate_executions(threads, model, extra_ppo=deps)
    return time.perf_counter() - started


def _runner_sweep(tests):
    started = time.perf_counter()
    for test in tests:
        for config in PASSES:
            RUN.run_test(test, config)
    return time.perf_counter() - started


class _stripped:
    """Short-circuit one telemetry hook entirely — the closest
    reproducible stand-in for pre-instrumentation code."""

    def __init__(self, module, hook):
        self._module, self._name = module, hook

    def __enter__(self):
        self._hook = getattr(self._module, self._name)
        setattr(self._module, self._name, lambda *args: None)

    def __exit__(self, *exc):
        setattr(self._module, self._name, self._hook)
        return False


def _measure(sweep, work, strip, rounds=ROUNDS):
    """Paired-ratio timing: each round times the three configurations
    back to back and contributes one ratio per comparison, then the
    median ratio across rounds is reported.  Pairing cancels the slow
    drift (frequency scaling, noisy-neighbour jitter) that dominates
    a sweep this short; the median discards the rounds a scheduler
    hiccup still poisons."""
    rows = []
    sweep(work)  # warmup: imports, bytecode, allocator
    for _ in range(rounds):
        gc.collect()  # don't bill one config's garbage to the next
        with strip:
            stripped = sweep(work)
        assert obs.current() is obs.NULL
        gc.collect()
        disabled = sweep(work)
        tel = obs.Telemetry(sinks=[obs.MemorySink()])
        gc.collect()
        with obs.use(tel):
            enabled = sweep(work)
        rows.append((stripped, disabled, enabled))

    def median(values):
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2

    return {
        "stripped": min(r[0] for r in rows),
        "disabled": min(r[1] for r in rows),
        "enabled": min(r[2] for r in rows),
        "disabled_ratio": median([d / s for s, d, _ in rows]),
        "enabled_ratio": median([e / s for s, _, e in rows]),
    }


def _record(entry):
    if not os.environ.get("REPRO_BENCH_RECORD"):
        return
    from repro.obs.perftrack import append_entry
    append_entry(TRAJECTORY, entry)


def _check_overhead(benchmark, layer, sweep, work, strip, entry):
    """Measure, record and assert the overhead bounds for one layer."""
    timings = run_once(benchmark, _measure, sweep, work, strip)
    for _attempt in range(MEASURE_ATTEMPTS - 1):
        if (timings["disabled_ratio"] <= DISABLED_OVERHEAD_LIMIT
                and timings["enabled_ratio"] <= ENABLED_OVERHEAD_LIMIT):
            break
        timings = _measure(sweep, work, strip)
    disabled_ratio = timings["disabled_ratio"]
    enabled_ratio = timings["enabled_ratio"]
    entry.update({
        "stripped_s": round(timings["stripped"], 4),
        "disabled_s": round(timings["disabled"], 4),
        "enabled_s": round(timings["enabled"], 4),
        "disabled_overhead": round(disabled_ratio, 4),
        "enabled_overhead": round(enabled_ratio, 4),
    })
    benchmark.extra_info.update(entry)
    _record(entry)
    print(f"\n{layer}: stripped={entry['stripped_s']:.3f}s "
          f"disabled={entry['disabled_s']:.3f}s ({disabled_ratio:.3f}x) "
          f"enabled={entry['enabled_s']:.3f}s ({enabled_ratio:.3f}x)")
    assert disabled_ratio <= DISABLED_OVERHEAD_LIMIT, (
        f"disabled telemetry costs {(disabled_ratio - 1) * 100:.1f}% "
        f"on the {layer} (criterion: <= 5%)")
    assert enabled_ratio <= ENABLED_OVERHEAD_LIMIT, (
        f"live telemetry costs {(enabled_ratio - 1) * 100:.1f}% "
        f"on the {layer} (sanity bound: <= 50%)")


def test_disabled_telemetry_overhead(benchmark):
    """Acceptance: disabled-telemetry overhead ≤ 5% on the sweep."""
    pairs = _pairs()
    _check_overhead(benchmark, "enumerator sweep", _sweep, pairs,
                    _stripped(EN, "_publish_stats"),
                    {"bench": "obs-overhead-library-sweep",
                     "tests": len(pairs),
                     "models": [m.name for m in MODEL_SET]})


def test_disabled_telemetry_overhead_runner(benchmark):
    """Acceptance: disabled-telemetry overhead ≤ 5% on the engine's
    runner passes over the library."""
    tests = all_library_tests()
    _check_overhead(benchmark, "runner passes", _runner_sweep, tests,
                    _stripped(RUN, "_publish_pass"),
                    {"bench": "obs-overhead-runner-passes",
                     "tests": len(tests), "passes": len(PASSES),
                     "seeds": PASSES[0].seeds})


def test_enabled_sweep_produces_complete_metrics():
    """The enabled run isn't just cheap — it observes every call."""
    pairs = _pairs()[:20]
    tel = obs.Telemetry(sinks=[obs.MemorySink()])
    with obs.use(tel):
        _sweep(pairs)
    assert tel.counter("enum.calls").value == len(pairs) * len(MODEL_SET)
    assert (tel.histogram("enum.wall_time_s").count
            == len(pairs) * len(MODEL_SET))
