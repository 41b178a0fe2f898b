"""Operational litmus runner (§6.3 methodology).

Each test is run many times on the functional engine with different
scheduler seeds.  The harness (:mod:`repro.litmus.harness`) runs each
test twice over: once clean and once with every test location's page
marked faulting through the EInject interface before the run — "to
inject bus errors on all load, store, and atomic instructions, which
generate many precise and imprecise exceptions that are silently
handled by the minimal handler".  :func:`run_test` executes one such
pass; ``config.inject_faults`` selects which.

Scheduler seeds are **derived per test** from a stable digest of the
test name, consistency model, and seed index (:func:`derive_seed`).
Because a test's seed sequence depends only on its own identity —
never on suite order, sharding, or which worker process runs it — a
parallel campaign (:mod:`repro.litmus.campaign`) produces outcome
sets bit-identical to a serial one.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..core.streams import DrainPolicy
from ..obs.telemetry import current as _telemetry
from ..sim.config import ConsistencyModel, SystemConfig, small_config
from ..sim.multicore import MulticoreSystem
from .dsl import LitmusTest

Outcome = Tuple[Tuple[str, int], ...]

#: One documented campaign default, shared by :class:`RunConfig` and
#: the CLI ``--seeds`` flag.  20 seeds per pass (x2 passes with the
#: clean+injected default) explores enough interleavings for every
#: generated family to exhibit its spotlight relaxations while keeping
#: the full campaign interactive; raise it for soak runs.
DEFAULT_SEEDS = 20


def derive_seed(test_name: str, model: str, index: int) -> int:
    """Deterministic scheduler seed for run ``index`` of one test.

    A stable 64-bit digest of ``(test_name, model, index)`` — no
    dependence on Python's hash randomisation, suite order, or the
    process the test happens to run in.
    """
    key = f"{test_name}|{model}|{index}".encode()
    return int.from_bytes(
        hashlib.blake2b(key, digest_size=8).digest(), "big")


def derive_seeds(test_name: str, model: str, count: int) -> List[int]:
    """The full per-test seed schedule (see :func:`derive_seed`)."""
    return [derive_seed(test_name, model, i) for i in range(count)]


@dataclass
class RunConfig:
    """Knobs for one litmus campaign."""

    model: str = ConsistencyModel.PC
    seeds: int = DEFAULT_SEEDS
    inject_faults: bool = True
    #: Harness-level: also run (and judge) a clean pass per test when
    #: faults are injected.  Speed-sensitive callers set this False to
    #: halve campaign time (see :func:`repro.litmus.harness.check_test`).
    clean_pass: bool = True
    drain_policy: DrainPolicy = DrainPolicy.SAME_STREAM
    #: Exploration strategy for the operational cross-check
    #: (:mod:`repro.explore`): ``None`` disables it, else one of
    #: :data:`repro.explore.STRATEGIES` (``"dpor"`` recommended).
    explore: Optional[str] = None
    #: Run the static Shasha–Snir classifier before enumeration and,
    #: on a proven ``SC_EQUIVALENT`` verdict, enumerate (and explore)
    #: under SC instead of the relaxed reference — bit-identical
    #: results, far cheaper (:mod:`repro.staticanalysis`).
    prefilter: bool = False
    #: Run the static FSB taint analyzer per test under both drain
    #: policies and record the security verdicts in
    #: ``TestVerdict.taint_check`` (:mod:`repro.staticanalysis.taint`).
    #: A leak hazard is a report, never a conformance failure.
    taint: bool = False

    def system_config(self, cores: int) -> SystemConfig:
        return small_config(cores=cores, consistency=self.model)


@dataclass
class TestRun:
    """Observed behaviour of one test under one configuration."""

    test: LitmusTest
    model: str
    injected: bool
    outcomes: Set[Outcome] = field(default_factory=set)
    runs: int = 0
    imprecise_exceptions: int = 0
    precise_exceptions: int = 0
    contract_violations: int = 0


def run_test(test: LitmusTest, config: Optional[RunConfig] = None) -> TestRun:
    """Run one test ``config.seeds`` times; collect distinct outcomes.

    Each call is one pass, published as one ``litmus.run_test`` wall
    span when telemetry is on (see :func:`_publish_pass`).
    """
    config = config or RunConfig()
    started = time.perf_counter()
    # One compile for the whole schedule: MulticoreSystem never mutates
    # the Program (it copies initial memory and only reads instructions).
    program = test.to_program()
    result = TestRun(test=test, model=config.model,
                     injected=config.inject_faults)
    fault_addrs = [test.location_addr(loc) for loc in test.locations]
    system_config = config.system_config(program.cores)
    steps = 0

    for seed in derive_seeds(test.name, config.model, config.seeds):
        system = MulticoreSystem(
            program,
            system_config,
            seed=seed,
            drain_policy=config.drain_policy,
        )
        if config.inject_faults:
            system.inject_faults(fault_addrs)
        run = system.run()
        result.outcomes.add(run.outcome)
        result.runs += 1
        result.imprecise_exceptions += run.stats.imprecise_exceptions
        result.precise_exceptions += run.stats.precise_exceptions
        steps += run.stats.steps
        if not run.contract_report.ok:
            result.contract_violations += 1
    _publish_pass(result, steps, started)
    return result


def _publish_pass(result: TestRun, steps: int, started: float) -> None:
    """Record one pass as a ``litmus.run_test`` span.

    Called once per pass, never per run or step, so disabled telemetry
    costs one global read per pass.
    """
    tel = _telemetry()
    if not tel.enabled:
        return
    tel.record_span("litmus.run_test", started, time.perf_counter(),
                    attrs={"model": result.model,
                           "injected": result.injected,
                           "seeds": result.runs, "steps": steps})


def run_suite(tests: Sequence[LitmusTest],
              config: Optional[RunConfig] = None) -> List[TestRun]:
    config = config or RunConfig()
    return [run_test(test, config) for test in tests]
