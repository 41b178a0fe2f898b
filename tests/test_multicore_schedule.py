"""Every seed's schedule on the functional engine, pinned.

The scheduler of :class:`repro.sim.multicore.MulticoreSystem` makes one
random draw per step over an ordered candidate list (the "Scheduler
contract" in ``docs/architecture.md``).  Any change to the candidate
order, to the draws per step or to the events counted alters some run
below.  Per run the fixture pins the outcome, every ``RunStats`` field
and the contract verdict, over the 27 library tests under SC, PC and
WC, clean and injected, with four derived seeds each, plus
split-stream and interrupt-laden runs.

The fixture was generated from the engine that rebuilt every core's
candidate list on every step, and it is the oracle for the engine that
rescans only the core that stepped.  Regenerate it only for an
intended change of schedule, from the repository root:

    PYTHONPATH=src python tests/test_multicore_schedule.py \\
        > tests/data/multicore_schedule.json
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.core.streams import DrainPolicy
from repro.litmus import all_library_tests
from repro.litmus.runner import derive_seeds
from repro.sim.config import ConsistencyModel, small_config
from repro.sim.multicore import MulticoreSystem, RunStats

FIXTURE = Path(__file__).resolve().parent / "data" / \
    "multicore_schedule.json"
SCHEMA = "repro.multicore-schedule/v1"
SEEDS = 4
INTERRUPT_RATE = 0.3
STATS_FIELDS = [f.name for f in dataclasses.fields(RunStats)]

#: (models, injected passes, drain policy, interrupt rate, seed indices)
PLAN = (
    (ConsistencyModel.ALL, (False, True), DrainPolicy.SAME_STREAM, 0.0,
     range(SEEDS)),
    ((ConsistencyModel.PC, ConsistencyModel.WC), (True,),
     DrainPolicy.SPLIT_STREAM, 0.0, (SEEDS,)),
    (ConsistencyModel.ALL, (True,), DrainPolicy.SAME_STREAM,
     INTERRUPT_RATE, (SEEDS,)),
)


def _runs() -> Iterator[Tuple[str, Dict]]:
    """``(key, record)`` for every pinned run, in fixture order."""
    for test in all_library_tests():
        program = test.to_program()
        faults = [test.location_addr(loc) for loc in test.locations]
        for models, passes, policy, rate, indices in PLAN:
            for model in models:
                seeds = derive_seeds(test.name, model, SEEDS + 1)
                config = small_config(program.cores, model)
                for injected in passes:
                    for index in indices:
                        system = MulticoreSystem(
                            program, config, seed=seeds[index],
                            drain_policy=policy, interrupt_rate=rate)
                        if injected:
                            system.inject_faults(faults)
                        run = system.run()
                        key = "|".join((
                            test.name, model,
                            "injected" if injected else "clean",
                            policy.value, str(rate), str(index)))
                        yield key, {
                            "outcome": [list(pair) for pair in run.outcome],
                            "stats": list(dataclasses.astuple(run.stats)),
                            "contract_ok": run.contract_report.ok}


def _dump(runs: List[Tuple[str, Dict]]) -> str:
    lines = [json.dumps({"key": key, **record}, sort_keys=True)
             for key, record in runs]
    return ('{"schema": "%s",\n "stats_fields": %s,\n'
            ' "runs": [\n  %s\n ]}\n'
            % (SCHEMA, json.dumps(STATS_FIELDS), ",\n  ".join(lines)))


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict]:
    payload = json.loads(FIXTURE.read_text())
    assert payload["schema"] == SCHEMA
    assert payload["stats_fields"] == STATS_FIELDS
    return {run.pop("key"): run for run in payload["runs"]}


@pytest.fixture(scope="module")
def observed() -> Dict[str, Dict]:
    return dict(_runs())


def test_fixture_covers_the_plan(pinned, observed):
    assert list(observed) == list(pinned)
    assert len(pinned) == 27 * (3 * 2 * SEEDS + 2 + 3)


def test_every_schedule_unchanged(pinned, observed):
    changed = [key for key in pinned if observed.get(key) != pinned[key]]
    detail = [f"{key}: pinned {pinned[key]} observed {observed.get(key)}"
              for key in changed[:3]]
    assert not changed, (f"{len(changed)} of {len(pinned)} runs changed "
                         f"schedule:\n" + "\n".join(detail))


def test_fixture_exercises_every_flow(pinned):
    """The oracle is only as strong as what its runs reach."""
    totals = {field: sum(run["stats"][i] for run in pinned.values())
              for i, field in enumerate(STATS_FIELDS)}
    assert all(totals.values()), totals


if __name__ == "__main__":
    sys.stdout.write(_dump(list(_runs())))
