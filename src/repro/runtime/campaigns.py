"""Campaign adapters: the repo's expensive loops as resumable units.

Each adapter decomposes one long-running workload into idempotent
:class:`~repro.runtime.runner.WorkUnit`\\ s, hands them to a
:class:`~repro.runtime.runner.CampaignRunner`, and reassembles the
domain result object from the (possibly checkpoint-resumed) unit
records:

* :class:`HierarchicalCampaign` — per-fault grading of the DSP core
  (units call :class:`repro.faults.hierarchical.HierarchicalFaultSimulator`);
* :class:`MetricsCampaign` — per-instruction-variant C/O sampling
  (units call :func:`repro.metrics.table.measure_cells`);
* :class:`AtpgBaselineCampaign` — per-fault time-frame PODEM attacks
  (units call :func:`repro.baselines.atpg_baseline.attack`).

Adapters only schedule: each algorithm lives once, in its own module,
and the direct entry points (``HierarchicalFaultSimulator.run``,
``build_metrics_table``, ``run_atpg_baseline``) are built from the same
functions the units call.

Degradation policy: a hierarchical comb-fault unit that repeatedly
times out retries without the tier-2 gate-level continuous injection
(pure behavioural propagation); a metrics unit retries at reduced
sample counts; a PODEM unit retries at a slashed backtrack budget.
Degraded units are tagged in the campaign report and counted by the
benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.runtime.runner import CampaignReport, CampaignRunner, WorkUnit


@dataclass
class CampaignOutcome:
    """Domain result + unit accounting of one campaign invocation."""

    result: Any
    report: CampaignReport


def _default_runner(checkpoint, unit_timeout, runner,
                    jobs=None) -> CampaignRunner:
    if runner is not None:
        return runner
    return CampaignRunner(checkpoint=checkpoint, unit_timeout=unit_timeout,
                          jobs=jobs)


class _Lazy:
    """Compute-once holder: expensive setup skipped on full resumes."""

    def __init__(self, compute):
        self._compute = compute
        self._value = None

    def __call__(self):
        if self._value is None:
            self._value = self._compute()
        return self._value


# ----------------------------------------------------------------------
# Hierarchical core fault simulation
# ----------------------------------------------------------------------
class HierarchicalCampaign:
    """Resumable hierarchical fault grading of the DSP core.

    One unit per fault; the trace recording (``prepare``) runs lazily,
    so resuming a finished campaign touches the checkpoint file only.
    """

    def __init__(
        self,
        words: Sequence[int],
        simulator=None,
        storage_fault_max_cycles: Optional[int] = None,
        checkpoint: Optional[str] = None,
        unit_timeout: Optional[float] = None,
        runner: Optional[CampaignRunner] = None,
        jobs: Optional[int] = None,
    ):
        from repro.faults.hierarchical import HierarchicalFaultSimulator
        self.simulator = simulator if simulator is not None \
            else HierarchicalFaultSimulator()
        self.words = list(words)
        self.storage_fault_max_cycles = storage_fault_max_cycles
        self.runner = _default_runner(checkpoint, unit_timeout, runner, jobs)
        # Instance-level so the runner's pool warmup records the trace
        # once in the parent and forked workers inherit it.
        self._ctx = _Lazy(lambda: self.simulator.prepare(self.words))

    def fingerprint(self) -> Dict[str, Any]:
        sim = self.simulator
        return {
            "kind": "hierarchical",
            "n_words": len(self.words),
            "n_faults": len(self._fault_map()),
            "block_size": sim.block_size,
            "checkpoint_every": sim.checkpoint_every,
            "propagation_window": sim.propagation_window,
            "storage_fault_max_cycles": self.storage_fault_max_cycles,
        }

    def _fault_map(self) -> Dict[str, Any]:
        from repro.faults.hierarchical import fault_unit_id
        return {fault_unit_id(f): f
                for f in self.simulator.universe.all_faults()}

    def _reset_shared_state(self) -> None:
        """Timed-out-unit isolation: drop the trace's good-value cache,
        which is the shared structure an abandoned grading thread may
        still be filling in."""
        ctx = self._ctx._value
        if ctx is not None:
            ctx._good_cache.clear()

    def units(self) -> List[WorkUnit]:
        from repro.faults.hierarchical import ComponentFault
        sim = self.simulator
        ctx = self._ctx
        units: List[WorkUnit] = []
        for unit_id, fault in self._fault_map().items():
            if isinstance(fault, ComponentFault):
                name, local = fault.component, fault.fault

                def grade(name=name, local=local):
                    return sim.grade_comb_fault(ctx(), name, local)

                def grade_behavioural(name=name, local=local):
                    return sim.grade_comb_fault(ctx(), name, local,
                                                continuous=False)

                units.append(WorkUnit(
                    unit_id=unit_id, run=grade,
                    fallback=grade_behavioural,
                    reset=self._reset_shared_state,
                    meta={"component": name},
                ))
            else:
                def grade_storage(fault=fault):
                    return sim.grade_storage_fault(
                        ctx(), fault, self.storage_fault_max_cycles
                    )

                units.append(WorkUnit(unit_id=unit_id, run=grade_storage,
                                      reset=self._reset_shared_state))
        return units

    def run(self, resume: bool = False, repair: bool = False,
            max_units: Optional[int] = None,
            progress=None, force: bool = False) -> CampaignOutcome:
        from repro.faults.hierarchical import HierarchicalResult
        report = self.runner.run(
            self.units(), fingerprint=self.fingerprint(), resume=resume,
            repair=repair, max_units=max_units, progress=progress,
            warmup=self._ctx, force=force,
        )
        fault_map = self._fault_map()
        first_detect = {
            fault_map[unit_id]: result.value
            for unit_id, result in report.results.items()
        }
        result = HierarchicalResult(
            first_detect=first_detect, n_vectors=len(self.words),
            universe=self.simulator.universe,
        )
        return CampaignOutcome(result=result, report=report)


# ----------------------------------------------------------------------
# Metrics-table sampling
# ----------------------------------------------------------------------
class MetricsCampaign:
    """Per-instruction-variant resumable metrics-table measurement.

    Each unit measures one variant's row with
    :func:`~repro.metrics.table.measure_cells`; the assembled result is
    the same :class:`~repro.metrics.table.MetricsTable` that
    :func:`~repro.metrics.table.build_metrics_table` produces, because
    every variant draws from its own label-derived RNG stream.
    """

    def __init__(
        self,
        variants=None,
        columns=None,
        n_controllability_samples: int = 150,
        n_observability_good: int = 12,
        seed: int = 2004,
        checkpoint: Optional[str] = None,
        unit_timeout: Optional[float] = None,
        runner: Optional[CampaignRunner] = None,
        jobs: Optional[int] = None,
    ):
        from repro.metrics.table import empty_metrics_table
        self._empty = empty_metrics_table(variants, columns)
        self.variants = self._empty.rows
        self.columns = self._empty.columns
        self.n_controllability_samples = n_controllability_samples
        self.n_observability_good = n_observability_good
        self.seed = seed
        self.runner = _default_runner(checkpoint, unit_timeout, runner, jobs)

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "kind": "metrics",
            "seed": self.seed,
            "n_controllability_samples": self.n_controllability_samples,
            "n_observability_good": self.n_observability_good,
            "rows": [v.label for v in self.variants],
        }

    def _measure(self, variant, n_samples: int, n_good: int) -> Dict:
        from repro.metrics.table import measure_cells
        cells = measure_cells(variant, self.columns, n_samples, n_good,
                              self.seed)
        return {"cells": {f"{name}|{mode}": [cell.c, cell.o]
                          for (name, mode), cell in cells.items()}}

    def units(self) -> List[WorkUnit]:
        units = []
        for variant in self.variants:
            def measure(variant=variant):
                return self._measure(variant,
                                     self.n_controllability_samples,
                                     self.n_observability_good)

            def measure_degraded(variant=variant):
                return self._measure(
                    variant,
                    max(2, self.n_controllability_samples // 5), 1,
                )

            units.append(WorkUnit(
                unit_id=f"variant:{variant.label}", run=measure,
                fallback=measure_degraded,
            ))
        return units

    def run(self, resume: bool = False, repair: bool = False,
            max_units: Optional[int] = None,
            force: bool = False) -> CampaignOutcome:
        from repro.metrics.table import MetricsCell
        report = self.runner.run(
            self.units(), fingerprint=self.fingerprint(), resume=resume,
            repair=repair, max_units=max_units, force=force,
        )
        table = replace(self._empty, cells={})
        for variant in self.variants:
            result = report.results.get(f"variant:{variant.label}")
            if result is None or not result.value:
                continue
            for key, (c, o) in result.value["cells"].items():
                name, mode = key.rsplit("|", 1)
                table.set_cell(variant, (name, int(mode)),
                               MetricsCell(c=c, o=o))
        return CampaignOutcome(result=table, report=report)


# ----------------------------------------------------------------------
# Sequential-ATPG baseline
# ----------------------------------------------------------------------
class AtpgBaselineCampaign:
    """Per-fault resumable version of the sequential-ATPG baseline.

    The cheap fault-parallel random phase runs as deterministic setup
    (:func:`~repro.baselines.atpg_baseline.setup_atpg_baseline`: same
    seed, same survivors on every invocation); each surviving fault's
    time-frame PODEM attack
    (:func:`~repro.baselines.atpg_baseline.attack`) — the part that can
    run for minutes and abort — is one unit.  A unit that times out
    degrades to a slashed backtrack budget, mirroring how commercial
    flows cap effort per fault.
    """

    def __init__(
        self,
        netlist=None,
        n_frames: int = 6,
        backtrack_limit: int = 400,
        fault_sample: Optional[int] = 300,
        seed: int = 5,
        random_phase_sequences: int = 1,
        random_phase_length: int = 32,
        checkpoint: Optional[str] = None,
        unit_timeout: Optional[float] = None,
        runner: Optional[CampaignRunner] = None,
        jobs: Optional[int] = None,
    ):
        from repro.baselines.atpg_baseline import setup_atpg_baseline
        self.netlist = netlist
        self.n_frames = n_frames
        self.backtrack_limit = backtrack_limit
        self.fault_sample = fault_sample
        self.seed = seed
        self.random_phase_sequences = random_phase_sequences
        self.random_phase_length = random_phase_length
        self.runner = _default_runner(checkpoint, unit_timeout, runner, jobs)
        self._setup = _Lazy(lambda: setup_atpg_baseline(
            netlist, n_frames=n_frames, backtrack_limit=backtrack_limit,
            fault_sample=fault_sample, seed=seed,
            random_phase_sequences=random_phase_sequences,
            random_phase_length=random_phase_length,
        ))

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "kind": "atpg-baseline",
            "n_frames": self.n_frames,
            "backtrack_limit": self.backtrack_limit,
            "fault_sample": self.fault_sample,
            "seed": self.seed,
            "random_phase_sequences": self.random_phase_sequences,
            "random_phase_length": self.random_phase_length,
            # Constant since the search has one objective/backtrace
            # heuristic; kept so earlier checkpoints still resume.
            "guided": False,
        }

    def units(self) -> List[WorkUnit]:
        from repro.baselines.atpg_baseline import attack
        setup = self._setup
        degraded_limit = max(10, self.backtrack_limit // 8)
        return [
            WorkUnit(
                unit_id=f"podem:{fault.net}:sa{fault.stuck_at}",
                run=lambda fault=fault: attack(setup(), fault),
                fallback=lambda fault=fault: attack(
                    setup(), fault, backtrack_limit=degraded_limit),
            )
            for fault in setup().survivors
        ]

    def run(self, resume: bool = False, repair: bool = False,
            max_units: Optional[int] = None) -> CampaignOutcome:
        from repro.baselines.atpg_baseline import tally
        report = self.runner.run(
            self.units(), fingerprint=self.fingerprint(), resume=resume,
            repair=repair, max_units=max_units, warmup=self._setup,
        )
        result = tally(self._setup(),
                       [r.value for r in report.results.values()])
        return CampaignOutcome(result=result, report=report)
