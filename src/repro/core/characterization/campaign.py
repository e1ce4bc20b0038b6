"""Characterization campaign planning and execution (Section 5).

A campaign plans which SRB experiments to run under one of the paper's four
policies, executes them against a device, and produces the
:class:`~repro.core.characterization.report.CrosstalkReport` the scheduler
consumes.

Policies (each one experiment-count-dominates the next):

* ``ALL_PAIRS`` — SRB on every parallel-drivable gate pair (baseline);
* ``ONE_HOP`` — Optimization 1: only pairs separated by 1 hop;
* ``ONE_HOP_PACKED`` — Optimization 2: 1-hop pairs, bin-packed so mutually
  far pairs share an experiment;
* ``HIGH_ONLY`` — Optimization 3: re-measure only the high-crosstalk pairs
  found by a previous full campaign (packed), merging into the prior
  report.

Resilience (see ``docs/resilience.md``):

* ``retry=`` and ``faults=`` thread a
  :class:`~repro.resilience.retry.RetryPolicy` and
  :class:`~repro.resilience.faults.FaultInjector` into the parallel
  engine, so transient experiment failures re-run deterministically;
* ``checkpoint=`` streams each completed experiment to a
  :class:`~repro.resilience.checkpoint.JsonlCheckpoint` keyed by the
  campaign's content hash — a killed campaign resumed against the same
  checkpoint re-executes only the missing experiments and produces a
  report bitwise-identical to the uninterrupted run;
* ``degradation="partial"`` turns exhausted retries into a *partial*
  report instead of an exception: failed units fall back to the prior
  day's measurement (the paper's Opt 3 reuse semantics) and the outcome's
  :class:`~repro.resilience.degrade.CampaignCoverage` annotates every
  planned unit as fresh, stale, or missing.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.core.characterization.binpacking import Unit, pack_pairs_first_fit
from repro.core.characterization.cost import CostModel, PAPER_COST_MODEL
from repro.core.characterization.report import CrosstalkReport
from repro.device.device import Device
from repro.device.topology import CouplingMap, Edge, normalize_edge
from repro.obs.events import current_run_id, log_event
from repro.obs.live.heartbeat import heartbeat, heartbeat_step
from repro.obs.registry import get_registry
from repro.parallel import ParallelEngine
from repro.parallel.seeding import stable_entropy
from repro.obs.trace import PipelineTrace, SpanRecorder
from repro.rb.clifford import clifford_group
from repro.rb.executor import RBConfig, RBExecutor, normalize_target
from repro.resilience.checkpoint import JsonlCheckpoint
from repro.resilience.degrade import CampaignCoverage, CoverageEntry
from repro.resilience.errors import TaskFailure
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy


class CharacterizationPolicy(enum.Enum):
    ALL_PAIRS = "all_pairs"
    ONE_HOP = "one_hop"
    ONE_HOP_PACKED = "one_hop_packed"
    HIGH_ONLY = "high_only"


@dataclass
class CharacterizationPlan:
    """The experiments a policy schedules.

    ``pair_experiments`` and ``independent_experiments`` are lists of
    experiments; each experiment is a list of units run in parallel (a unit
    is a gate pair for SRB or a single gate for independent RB).
    """

    policy: CharacterizationPolicy
    pair_experiments: List[List[Unit]]
    independent_experiments: List[List[Unit]]

    @property
    def num_experiments(self) -> int:
        return len(self.pair_experiments) + len(self.independent_experiments)

    def units_measured(self) -> int:
        return sum(len(exp) for exp in self.pair_experiments)


@dataclass
class CampaignOutcome:
    """A finished campaign: the report plus its cost accounting.

    ``trace`` reports per-stage wall time and counters (planning,
    independent RB, pair SRB) in the same
    :class:`~repro.obs.trace.PipelineTrace` format the compile
    pipeline emits, so campaign cost and compile cost read identically.

    ``coverage`` annotates every planned unit as fresh, stale, or missing
    (all fresh unless the campaign degraded); ``failures`` holds the
    :class:`~repro.resilience.errors.TaskFailure` records of experiments
    that exhausted their retries; ``checkpoint_hits`` counts experiments
    served from a resume checkpoint instead of re-executed.
    """

    plan: CharacterizationPlan
    report: CrosstalkReport
    cost_model: CostModel = field(default_factory=lambda: PAPER_COST_MODEL)
    trace: Optional[PipelineTrace] = None
    coverage: Optional[CampaignCoverage] = None
    failures: Tuple[TaskFailure, ...] = ()
    checkpoint_hits: int = 0

    @property
    def num_experiments(self) -> int:
        return self.plan.num_experiments

    @property
    def machine_hours(self) -> float:
        return self.cost_model.hours(self.num_experiments)

    @property
    def machine_minutes(self) -> float:
        return self.cost_model.minutes(self.num_experiments)

    @property
    def executions(self) -> int:
        return self.cost_model.executions(self.num_experiments)

    @property
    def degraded(self) -> bool:
        """True when any planned unit fell back to stale data or is missing."""
        return self.coverage is not None and not self.coverage.complete

    def scorecard(self, device: Device, name: Optional[str] = None):
        """Score this campaign against the device's hidden ground truth.

        Compares the measured report's high-crosstalk pairs with
        ``device.true_high_pairs()`` (evaluation-only data the compiler
        never sees) and returns a
        :class:`~repro.obs.scorecard.Scorecard` carrying detection
        recall/precision plus the campaign's cost and coverage counts —
        the ``repro.obs.scorecard/v1`` quality record every figure run
        can append to history.
        """
        from repro.obs.events import current_run_id
        from repro.obs.scorecard import campaign_scorecard

        stale = len(self.coverage.stale) if self.coverage is not None else 0
        missing = (len(self.coverage.missing)
                   if self.coverage is not None else 0)
        return campaign_scorecard(
            name or f"campaign[{self.plan.policy.value}]",
            detected_pairs=self.report.high_pairs(),
            truth_pairs=device.true_high_pairs(),
            run_id=current_run_id(),
            experiments=self.num_experiments,
            pairs_measured=self.plan.units_measured(),
            stale_units=stale,
            missing_units=missing,
            extra_metrics={
                "machine_hours": self.machine_hours,
                "failures": float(len(self.failures)),
                "checkpoint_hits": float(self.checkpoint_hits),
            },
        )


def _campaign_experiment_task(context, experiment: List[Unit]):
    """Run one characterization experiment in a (possibly worker) process.

    ``context`` ships the campaign's execution parameters once per worker:
    ``(device, day, rb_config, executor_seed)``.  A fresh
    :class:`~repro.rb.executor.RBExecutor` is built per task; because the
    executor derives every experiment's RNG from a stable key rather than a
    shared stream, the measured rates are identical no matter which process
    (or in which order) the experiment runs.  Returns the per-target error
    rates plus the executor's ``rb.*`` cost counters.
    """
    device, day, config, seed = context
    executor = RBExecutor(device, day=day, config=config, seed=seed)
    result = executor.run_units(experiment)
    rates = {}
    for unit in experiment:
        for gate in unit:
            target = normalize_target(gate)
            rates[target] = result.error_rate(target)
    return rates, executor.counters


def _experiment_key(stage: str, experiment: List[Unit]) -> str:
    """The stable identity of one experiment: its stage plus its units.

    Used both for fault selection / retry jitter in the engine and as the
    checkpoint record key, so a resumed campaign recognizes completed
    experiments by *content*, independent of plan ordering.
    """
    units = [[list(gate) for gate in unit] for unit in experiment]
    return json.dumps([stage, units], separators=(",", ":"))


def _encode_result(value) -> dict:
    """JSON-friendly rendering of an experiment result for the checkpoint."""
    rates, counters = value
    return {
        "rates": [[list(target), rate] for target, rate in sorted(rates.items())],
        "counters": dict(counters),
    }


def _decode_result(record: dict):
    """Inverse of :func:`_encode_result` (exact: JSON floats round-trip)."""
    rates = {tuple(target): rate for target, rate in record["rates"]}
    return rates, dict(record["counters"])


class CharacterizationCampaign:
    """Plans and runs crosstalk characterization on one device.

    ``workers`` fans the independent experiments of each stage over a
    process pool (see :mod:`repro.parallel`); the default of ``None`` defers
    to the ``REPRO_WORKERS`` environment variable, falling back to serial.
    Reports are identical for every worker count.
    """

    def __init__(self, device: Device, rb_config: Optional[RBConfig] = None,
                 seed: int = 0, workers: Optional[int] = None):
        self.device = device
        self.rb_config = rb_config or RBConfig()
        self.seed = seed
        self.workers = workers

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, policy: CharacterizationPolicy,
             prior: Optional[CrosstalkReport] = None) -> CharacterizationPlan:
        coupling = self.device.coupling
        if policy is CharacterizationPolicy.ALL_PAIRS:
            pairs = [tuple(sorted(p)) for p in coupling.simultaneous_gate_pairs()]
            pair_experiments = [[pair] for pair in sorted(pairs)]
            independent = [[(edge,)] for edge in coupling.edges]
        elif policy is CharacterizationPolicy.ONE_HOP:
            pairs = [tuple(sorted(p)) for p in coupling.one_hop_gate_pairs()]
            pair_experiments = [[pair] for pair in sorted(pairs)]
            independent = [[(edge,)] for edge in coupling.edges]
        elif policy is CharacterizationPolicy.ONE_HOP_PACKED:
            pairs = [tuple(sorted(p)) for p in coupling.one_hop_gate_pairs()]
            pair_experiments = pack_pairs_first_fit(
                coupling, sorted(pairs), seed=self.seed
            )
            independent = pack_pairs_first_fit(
                coupling, [(edge,) for edge in coupling.edges], seed=self.seed
            )
        elif policy is CharacterizationPolicy.HIGH_ONLY:
            if prior is None:
                raise ValueError("HIGH_ONLY needs a prior report")
            pairs = [tuple(sorted(p)) for p in prior.high_pairs()]
            pair_experiments = pack_pairs_first_fit(
                coupling, sorted(pairs), seed=self.seed
            )
            # Only the gates involved in high pairs need fresh independent
            # rates; everything else is reused from the prior report.
            edges = sorted({e for pair in pairs for e in pair})
            independent = pack_pairs_first_fit(
                coupling, [(e,) for e in edges], seed=self.seed
            )
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown policy {policy}")
        return CharacterizationPlan(policy, pair_experiments, independent)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def checkpoint_key(self, policy: CharacterizationPolicy,
                       day: int = 0) -> str:
        """The content hash identifying this campaign's checkpoint.

        Derived from the same inputs as the result cache's campaign key
        (device fingerprint, day, seed, RB sizing, policy), so two
        campaigns share a checkpoint exactly when they would produce the
        same measurements.
        """
        from repro.pipeline.cache import campaign_cache_key

        key = campaign_cache_key(
            self.device, day, self.seed, self.rb_config, policy.value
        )
        return f"{stable_entropy('campaign.checkpoint', key):032x}"

    def _open_checkpoint(self, checkpoint, policy: CharacterizationPolicy,
                         day: int, on_mismatch: str) -> Optional[JsonlCheckpoint]:
        if checkpoint is None or isinstance(checkpoint, JsonlCheckpoint):
            return checkpoint
        return JsonlCheckpoint(
            str(checkpoint),
            campaign_key=self.checkpoint_key(policy, day),
            run_id=current_run_id(),
            on_mismatch=on_mismatch,
        )

    def _run_stage(self, engine: ParallelEngine, recorder: SpanRecorder,
                   span_name: str, stage: str, experiments: List[List[Unit]],
                   context, checkpoint: Optional[JsonlCheckpoint],
                   degradation: str) -> List:
        """Execute one campaign stage, resuming from the checkpoint.

        Returns one entry per experiment: ``(rates, counters)`` on success
        or a :class:`TaskFailure` when retries were exhausted under
        ``degradation="partial"``.  Results are placed by plan index, so
        the merge order — and therefore the report — is identical whether
        an experiment ran now, ran before the resume, or ran on a retry.
        """
        with recorder.span(span_name) as span:
            baseline = dict(engine.counters)
            keys = [_experiment_key(stage, exp) for exp in experiments]
            results: List = [None] * len(experiments)
            to_run: List[int] = []
            skipped = 0
            for i, key in enumerate(keys):
                if checkpoint is not None and key in checkpoint:
                    results[i] = _decode_result(checkpoint.get(key))
                    skipped += 1
                else:
                    to_run.append(i)
            if skipped:
                log_event(
                    "resilience.checkpoint.resume", stage=span_name,
                    skipped=skipped, remaining=len(to_run),
                    path=checkpoint.path,
                )
            # Stage progress for the live plane: checkpoint hits count as
            # done immediately; fresh experiments step as they complete.
            beat_source = f"campaign[{stage}]"
            heartbeat(beat_source, stage=span_name, done=skipped,
                      total=len(experiments))
            if to_run:
                run_keys = [keys[i] for i in to_run]

                def on_result(j: int, value) -> None:
                    if checkpoint is not None:
                        checkpoint.append(run_keys[j], _encode_result(value))
                    heartbeat_step(beat_source, "done")

                fresh = engine.map(
                    _campaign_experiment_task,
                    [experiments[i] for i in to_run],
                    context,
                    keys=run_keys,
                    on_result=on_result,
                    return_failures=(degradation == "partial"),
                )
                for j, i in enumerate(to_run):
                    results[i] = fresh[j]
            for value in results:
                if not isinstance(value, TaskFailure):
                    span.add_counters(value[1])
            span.counters.update(engine.counters_since(baseline))
            if skipped:
                span.counters["resilience.checkpoint.hits"] = float(skipped)
        return results

    def run(self, policy: CharacterizationPolicy, day: int = 0,
            prior: Optional[CrosstalkReport] = None,
            cost_model: Optional[CostModel] = None,
            workers: Optional[int] = None, *,
            checkpoint: Union[None, str, JsonlCheckpoint] = None,
            retry: Optional[RetryPolicy] = None,
            faults: Optional[FaultInjector] = None,
            degradation: str = "strict",
            on_mismatch: str = "raise") -> CampaignOutcome:
        from repro.pipeline.cache import device_fingerprint

        if degradation not in ("strict", "partial"):
            raise ValueError("degradation must be 'strict' or 'partial'")
        registry = get_registry()
        fingerprint = device_fingerprint(self.device)
        recorder = SpanRecorder(f"characterize[{policy.value}]")
        recorder.trace.meta.update({
            "device": fingerprint,
            "policy": policy.value,
            "day": day,
        })
        log_event("campaign.start", policy=policy.value, day=day,
                  device=fingerprint)

        with recorder.span("plan") as span:
            plan = self.plan(policy, prior)
            span.counters["campaign.experiments_planned"] = float(
                plan.num_experiments
            )
            span.counters["campaign.pairs_measured"] = float(
                plan.units_measured()
            )
            # The Clifford groups RB draws from, built here, before the
            # engine forks, so pool workers and the serial-fallback probe
            # inherit them instead of each building its own.
            clifford_group(1)
            clifford_group(2)
        checkpoint = self._open_checkpoint(checkpoint, policy, day, on_mismatch)
        engine = ParallelEngine(
            workers if workers is not None else self.workers,
            name=f"characterize[{policy.value}]",
            retry=retry,
            faults=faults,
        )
        context = (self.device, day, self.rb_config, self.seed * 65537 + day)
        report = CrosstalkReport(day=day)
        failures: List[TaskFailure] = []
        entries: List[CoverageEntry] = []
        hits_before = checkpoint.hits if checkpoint is not None else 0

        with engine:
            independent_results = self._run_stage(
                engine, recorder, "independent_rb", "independent",
                plan.independent_experiments, context, checkpoint, degradation,
            )
            for experiment, value in zip(plan.independent_experiments,
                                         independent_results):
                if isinstance(value, TaskFailure):
                    failures.append(value)
                    entries.extend(self._degrade_independent(
                        report, experiment, prior,
                    ))
                    continue
                rates, _counters = value
                for unit in experiment:
                    (edge,) = unit
                    report.record_independent(edge, rates[normalize_target(edge)])
                    entries.append(CoverageEntry(
                        "edge", (normalize_edge(edge),), "fresh",
                        source_day=day,
                    ))

            pair_results = self._run_stage(
                engine, recorder, "pair_srb", "pair",
                plan.pair_experiments, context, checkpoint, degradation,
            )
            for experiment, value in zip(plan.pair_experiments, pair_results):
                if isinstance(value, TaskFailure):
                    failures.append(value)
                    entries.extend(self._degrade_pairs(
                        report, experiment, prior,
                    ))
                    continue
                rates, _counters = value
                for unit in experiment:
                    a, b = unit
                    report.record_conditional(a, b, rates[normalize_target(a)])
                    report.record_conditional(b, a, rates[normalize_target(b)])
                    entries.append(CoverageEntry(
                        "pair", (normalize_edge(a), normalize_edge(b)), "fresh",
                        source_day=day,
                    ))

        with recorder.span("merge") as span:
            if policy is CharacterizationPolicy.HIGH_ONLY and prior is not None:
                report = prior.merged_with(report)
                span.counters["campaign.merged_with_prior"] = 1.0

        coverage = CampaignCoverage(tuple(entries))
        checkpoint_hits = (checkpoint.hits - hits_before
                           if checkpoint is not None else 0)
        if not coverage.complete:
            degraded_units = len(coverage.stale) + len(coverage.missing)
            registry.inc("resilience.degraded_pairs", degraded_units)
            log_event(
                "campaign.degraded", policy=policy.value, day=day,
                device=fingerprint, **coverage.summary(),
            )

        trace = recorder.finish()
        registry.inc("campaign.runs")
        registry.inc("campaign.experiments", plan.num_experiments)
        registry.observe("campaign.run_seconds", trace.total_seconds)
        log_event(
            "campaign.end", policy=policy.value, day=day, device=fingerprint,
            experiments=plan.num_experiments,
            pairs_measured=plan.units_measured(),
            seconds=trace.total_seconds,
        )
        return CampaignOutcome(
            plan=plan,
            report=report,
            cost_model=cost_model or PAPER_COST_MODEL,
            trace=trace,
            coverage=coverage,
            failures=tuple(failures),
            checkpoint_hits=checkpoint_hits,
        )

    # ------------------------------------------------------------------
    # graceful degradation (paper Opt 3 reuse semantics)
    # ------------------------------------------------------------------
    @staticmethod
    def _degrade_independent(report: CrosstalkReport,
                             experiment: List[Unit],
                             prior: Optional[CrosstalkReport]
                             ) -> List[CoverageEntry]:
        """Fall back to the prior report for a failed independent-RB
        experiment; every unit becomes ``stale`` or ``missing``."""
        entries = []
        for unit in experiment:
            (edge,) = unit
            edge = normalize_edge(edge)
            if prior is not None and edge in prior.independent:
                report.record_independent(edge, prior.independent[edge])
                entries.append(CoverageEntry(
                    "edge", (edge,), "stale", source_day=prior.day,
                ))
            else:
                entries.append(CoverageEntry("edge", (edge,), "missing"))
        return entries

    @staticmethod
    def _degrade_pairs(report: CrosstalkReport, experiment: List[Unit],
                       prior: Optional[CrosstalkReport]
                       ) -> List[CoverageEntry]:
        """Fall back to the prior report for a failed SRB experiment."""
        entries = []
        for unit in experiment:
            a, b = (normalize_edge(g) for g in unit)
            copied = False
            if prior is not None:
                for key in ((a, b), (b, a)):
                    if key in prior.conditional:
                        report.record_conditional(
                            key[0], key[1], prior.conditional[key],
                        )
                        copied = True
            if copied:
                entries.append(CoverageEntry(
                    "pair", (a, b), "stale", source_day=prior.day,
                ))
            else:
                entries.append(CoverageEntry("pair", (a, b), "missing"))
        return entries
