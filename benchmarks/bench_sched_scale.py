"""Device-scale scheduling benchmark: heavy-hex wall time + objective gap.

Writes ``BENCH_sched_scale.json`` (repo root by default) as a
``repro.obs.manifest/v1`` run manifest whose ``results.workloads`` carry
one entry per workload::

    {"schema": "repro.obs.manifest/v1", "run_id": ..., "git": {...},
     "config": {"fast": ...}, "results": {"workloads": {
        "sched_65q": {"seconds": ..., "strategy": "windowed",
                      "decisions": ..., "objective": ...,
                      "interrupt": ..., "fallback": ...}, ...,
        "objective_gap": {"exact_objective": ..., "windowed_gap": ...,
                          "portfolio_gap": ...}}}}

Two workload families:

* **scale** — a supremacy-style circuit on the heavy-hex stress presets
  (``ibm_hummingbird_65q``; ``ibm_eagle_127q`` outside ``--fast``),
  scheduled with ``strategy="auto"`` under a real ``max_solve_seconds``
  budget.  The benchmark fails if the schedule does not complete (every
  candidate pair assigned), or if the solve was interrupted without the
  budget fallback reason being recorded — degradation must never be
  silent.
* **gap** — on a small model where exact B&B is reachable, the windowed
  and portfolio strategies must land within 5% of the exact objective
  (they match it on this model), and the windowed schedule must be
  repeat-run identical.

Run directly (not through pytest)::

    PYTHONPATH=src python benchmarks/bench_sched_scale.py --fast
    PYTHONPATH=src python benchmarks/bench_sched_scale.py --gate 5

``--gate N`` diffs this run against the last *N* history records of the
same name (``benchmarks/results/history.jsonl`` by default) with the
noise-aware comparator and exits nonzero on any regression.  Every run
appends its summary record to the history store unless ``--no-history``
is given; gating against a record produced on a dirty working tree
prints a warning.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks.harness import (  # noqa: E402
    add_history_arguments,
    record_and_gate,
)

from repro.circuit.circuit import QuantumCircuit  # noqa: E402
from repro.core.scheduling.xtalk import (  # noqa: E402
    STRATEGY_CODES,
    XtalkScheduler,
)
from repro.device import ibmq_poughkeepsie  # noqa: E402
from repro.device.presets import (  # noqa: E402
    ibm_eagle_127q,
    ibm_hummingbird_65q,
)
from repro.experiments.common import ground_truth_report  # noqa: E402
from repro.obs import (  # noqa: E402
    MetricsRegistry,
    RunManifest,
    RunRecord,
    push_registry,
    write_manifest,
)
from repro.workloads.supremacy import supremacy_circuit  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_sched_scale.json"

#: Windowed/portfolio must land within 5% of the exact objective.
GAP_TOLERANCE = 0.05


def bench_scale(factory, qubits: int, num_gates: int, budget: float,
                seed: int) -> dict:
    """Schedule a supremacy-style circuit on a heavy-hex preset."""
    device = factory()
    report = ground_truth_report(device)
    circuit = supremacy_circuit(
        device.coupling, qubits=range(qubits), num_gates=num_gates, seed=seed)
    scheduler = XtalkScheduler(
        device.calibration(), report, omega=0.5,
        max_solve_seconds=budget, strategy="auto")
    started = time.perf_counter()
    result = scheduler.schedule(circuit)
    seconds = time.perf_counter() - started
    return {
        "seconds": seconds,
        "budget_seconds": budget,
        "gates": num_gates,
        "qubits": qubits,
        "strategy": result.strategy,
        "strategy_code": float(STRATEGY_CODES.get(result.strategy, -1)),
        "decisions": len(result.candidate_pairs),
        "assigned": len(result.solution.assignment),
        "objective": result.solution.objective,
        "interrupt": result.solution.interrupt,
        "fallback": result.fallback_reason,
        "nodes": result.solution.nodes_explored,
    }


def _gap_circuit() -> QuantumCircuit:
    """Concurrent CNOT layers small enough for exact B&B."""
    circ = QuantumCircuit(20, 4)
    for pair in ((5, 10), (11, 12), (0, 1), (16, 17), (3, 4), (13, 14)):
        circ.cx(*pair)
    for i, q in enumerate((10, 11, 0, 16)):
        circ.measure(q, i)
    return circ


def bench_gap() -> dict:
    """Objective-vs-exact gap of windowed/portfolio on a small model."""
    device = ibmq_poughkeepsie()
    report = ground_truth_report(device)
    circuit = _gap_circuit()

    def run(strategy: str):
        scheduler = XtalkScheduler(
            device.calibration(), report, omega=0.5, strategy=strategy)
        return scheduler.schedule(circuit)

    exact = run("monolithic")
    windowed = run("windowed")
    portfolio = run("portfolio")
    repeat = run("windowed")
    reference = exact.solution.objective

    def gap(result) -> float:
        return abs(result.solution.objective - reference) / abs(reference)

    return {
        "exact_is_exact": exact.solution.exact,
        "exact_objective": reference,
        "windowed_objective": windowed.solution.objective,
        "portfolio_objective": portfolio.solution.objective,
        "windowed_gap": gap(windowed),
        "portfolio_gap": gap(portfolio),
        "windowed_repeat_identical": (
            windowed.solution.assignment == repeat.solution.assignment
            and windowed.solution.times == repeat.solution.times
        ),
    }


def check_workloads(workloads: dict) -> list:
    """The correctness gates: completion, recorded reasons, tight gaps."""
    failures = []
    for name, entry in workloads.items():
        if "decisions" not in entry:
            continue
        if entry["assigned"] != entry["decisions"]:
            failures.append(
                f"{name}: schedule incomplete "
                f"({entry['assigned']}/{entry['decisions']} decisions)")
        if entry["interrupt"] == "deadline" and \
                entry["fallback"] != "solve_budget:incumbent":
            failures.append(
                f"{name}: budget interrupt without a recorded fallback "
                f"reason (fallback={entry['fallback']!r})")
    gap = workloads.get("objective_gap")
    if gap is not None:
        if not gap["exact_is_exact"]:
            failures.append("objective_gap: reference solve was not exact")
        for key in ("windowed_gap", "portfolio_gap"):
            if gap[key] > GAP_TOLERANCE:
                failures.append(
                    f"objective_gap: {key} {gap[key]:.4f} exceeds "
                    f"{GAP_TOLERANCE:.2f}")
        if not gap["windowed_repeat_identical"]:
            failures.append(
                "objective_gap: windowed schedule differs across runs")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="65q only, smaller circuit and budget "
                             "(CI smoke mode)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    add_history_arguments(parser)
    args = parser.parse_args(argv)

    registry = MetricsRegistry()
    workloads = {}
    with push_registry(registry):
        print("[bench_sched] running objective_gap ...", flush=True)
        workloads["objective_gap"] = bench_gap()
        print(f"[bench_sched]   windowed gap "
              f"{workloads['objective_gap']['windowed_gap']:.4f}  "
              f"portfolio gap "
              f"{workloads['objective_gap']['portfolio_gap']:.4f}",
              flush=True)

        # 250 gates on the 65q preset crosses exact_decision_limit, so
        # even the fast CI case exercises the windowed path.
        scale_cases = [("sched_65q", ibm_hummingbird_65q, 65,
                        250 if args.fast else 350,
                        5.0 if args.fast else 10.0, 3)]
        if not args.fast:
            scale_cases.append(
                ("sched_127q", ibm_eagle_127q, 127, 500, 30.0, 7))
        for name, factory, qubits, gates, budget, seed in scale_cases:
            print(f"[bench_sched] running {name} "
                  f"({gates} gates, {budget:.0f}s budget) ...", flush=True)
            entry = bench_scale(factory, qubits, gates, budget, seed)
            workloads[name] = entry
            print(f"[bench_sched]   {entry['seconds']:.2f}s  "
                  f"strategy={entry['strategy']}  "
                  f"decisions={entry['decisions']}  "
                  f"interrupt={entry['interrupt']}  "
                  f"fallback={entry['fallback']}", flush=True)

    manifest = RunManifest.capture(
        name="bench_sched_scale",
        config={"fast": args.fast, "cpu_count": os.cpu_count()},
        results={"workloads": workloads},
    )
    write_manifest(manifest, str(args.out))
    print(f"[bench_sched] wrote {args.out} (run {manifest.run_id})")

    record = RunRecord.from_artifacts(manifest=manifest.to_dict(),
                                      metrics=registry.snapshot())
    gate_failures = record_and_gate(record, args, "bench_sched")

    failures = check_workloads(workloads)

    failures += gate_failures
    for failure in failures:
        print(f"[bench_sched] FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
