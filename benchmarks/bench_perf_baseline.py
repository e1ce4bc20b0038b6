"""Machine-readable perf baseline: serial vs parallel on the hot loops.

Writes ``BENCH_perf.json`` (repo root by default) as a
``repro.obs.manifest/v1`` run manifest whose ``results.workloads`` carry
one entry per workload::

    {"schema": "repro.obs.manifest/v1", "run_id": ..., "git": {...},
     "config": {"fast": ..., "cpu_count": ...}, "results": {"workloads": {
        "campaign_one_hop_packed": {"serial_seconds": ..., "parallel_seconds":
            ..., "workers": 4, "speedup": ...}, ...}}}

Every workload's *serial* leg is the pre-optimization configuration and
its *parallel* leg the shipped configuration, so the speedup reports what
the perf work delivers end-to-end:

* campaign — scalar exact estimator with per-experiment sequence
  regeneration (``estimate="exact-scalar"``, ``share_sequences=False``)
  @ 1 worker, vs the vectorized estimator with sweep-shared sequences
  @ N workers;
* trajectory_backend / tomography — the ``engine="scalar"`` trajectory
  simulator @ 1 worker, vs the batched engine @ N workers;
* live_overhead — the shipped campaign with the live telemetry plane
  off (``serial_seconds``) vs on (``parallel_seconds``), so the
  ``--check`` budget doubles as the exporter-overhead gate.

Cold-start cost is kept apart from these warm legs: ``results.cold``
holds the seconds to build the 1q and 2q Clifford groups in a fresh
interpreter (history series ``results.cold.clifford_build.seconds``),
so ``--gate`` tracks it without it leaking into any workload's legs.

Determinism spot-checks always compare the *shipped* configuration at 1
worker against N workers (bitwise), never serial-leg vs parallel-leg —
those are different configurations and agree only statistically.  On
single-core containers the pool contributes nothing (there is nothing to
fan out over), and vectorization + amortization carry the speedup;
``cpu_count`` is recorded so readers can tell which regime produced the
numbers.

Run directly (not through pytest)::

    PYTHONPATH=src python benchmarks/bench_perf_baseline.py --fast
    PYTHONPATH=src python benchmarks/bench_perf_baseline.py --check 1.2
    PYTHONPATH=src python benchmarks/bench_perf_baseline.py --gate 5

``--check X`` exits nonzero if any workload's parallel leg is
slower than ``X`` times its serial leg — the CI perf-smoke gate,
implemented as a :mod:`repro.obs.diff` against a synthetic budget
baseline.  ``--gate N`` diffs this run against the last *N* comparable
history records — same name, ``--workers`` and config (``fast``,
``cpu_count``) — in ``benchmarks/results/history.jsonl`` by default,
with the noise-aware comparator, and exits nonzero on any regression.  Every run appends its summary record to the history store
unless ``--no-history`` is given; gating against a record produced on a
dirty working tree prints a warning (regenerate the baseline from a
clean tree instead of committing drifting numbers).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks.harness import (  # noqa: E402
    add_history_arguments,
    record_and_gate,
    warn_if_dirty,
)

from repro.core.characterization.campaign import (  # noqa: E402
    CharacterizationCampaign,
    CharacterizationPolicy,
)
from repro.device import ibmq_poughkeepsie  # noqa: E402
from repro.device.backend import NoisyBackend  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ExperimentConfig,
    ground_truth_report,
    prepare_circuit,
    tomography_error,
)
from repro.obs import (  # noqa: E402
    DiffThresholds,
    LivePlane,
    MetricsRegistry,
    RunManifest,
    RunRecord,
    default_fleet_rules,
    diff_records,
    push_registry,
    write_manifest,
)
from repro.rb.clifford import clifford_group  # noqa: E402
from repro.rb.executor import RBConfig  # noqa: E402
from repro.workloads.swap import swap_benchmark  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def bench_campaign(workers: int, fast: bool) -> dict:
    """ONE_HOP_PACKED campaign: scalar serial vs vectorized parallel."""
    device = ibmq_poughkeepsie()
    rb = RBConfig.fast() if fast else RBConfig()
    clifford_group(2)  # build once, outside both timed legs

    serial_cfg = dataclasses.replace(rb, estimate="exact-scalar",
                                     share_sequences=False)
    serial_campaign = CharacterizationCampaign(device, rb_config=serial_cfg,
                                               seed=3)
    _, serial_seconds = _timed(lambda: serial_campaign.run(
        CharacterizationPolicy.ONE_HOP_PACKED, workers=1))

    campaign = CharacterizationCampaign(device, rb_config=rb, seed=3)
    pooled, parallel_seconds = _timed(lambda: campaign.run(
        CharacterizationPolicy.ONE_HOP_PACKED, workers=workers))

    # Determinism spot-check: the parallel report must equal the serial
    # run of the *same* (vectorized) configuration.
    single = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED, workers=1)
    deterministic = (
        single.report.independent == pooled.report.independent
        and single.report.conditional == pooled.report.conditional
    )
    return {
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "workers": workers,
        "speedup": serial_seconds / parallel_seconds,
        "experiments": pooled.plan.num_experiments,
        "deterministic_across_worker_counts": deterministic,
        "notes": "serial = exact-scalar estimator, unshared sequences @ 1 "
                 "worker (pre-change); parallel = vectorized estimator, "
                 "shared sequences @ N workers (shipped)",
    }


def bench_trajectories(workers: int, fast: bool) -> dict:
    """Trajectory simulation of a scheduled SWAP circuit."""
    device = ibmq_poughkeepsie()
    report = ground_truth_report(device)
    bench = swap_benchmark(device.coupling, 0, 8)
    prepared = prepare_circuit("ParSched", bench.circuit, device, report)
    backend = NoisyBackend(device, day=0, seed=11)
    scalar_backend = NoisyBackend(device, day=0, seed=11,
                                  sim_engine="scalar")
    trajectories = 96 if fast else 480

    _, serial_seconds = _timed(lambda: scalar_backend.run(
        prepared, shots=1024, trajectories=trajectories, workers=1))
    pooled, parallel_seconds = _timed(lambda: backend.run(
        prepared, shots=1024, trajectories=trajectories, workers=workers))
    # Determinism spot-check on the shipped configuration only.
    single = backend.run(prepared, shots=1024, trajectories=trajectories,
                         workers=1)
    return {
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "workers": workers,
        "speedup": serial_seconds / parallel_seconds,
        "trajectories": trajectories,
        "deterministic_across_worker_counts": bool(
            (single.probabilities == pooled.probabilities).all()
        ),
        "notes": "serial = scalar trajectory engine @ 1 worker (pre-change); "
                 "parallel = batched engine @ N workers (shipped)",
    }


def bench_tomography(workers: int, fast: bool) -> dict:
    """Two-qubit state tomography: 9 basis settings."""
    device = ibmq_poughkeepsie()
    report = ground_truth_report(device)
    bench = swap_benchmark(device.coupling, 0, 8)
    prepared = prepare_circuit("XtalkSched", bench.circuit, device, report)
    backend = NoisyBackend(device, day=0)
    scalar_backend = NoisyBackend(device, day=0, sim_engine="scalar")
    config = ExperimentConfig(shots=1024, trajectories=32 if fast else 160)

    _, serial_seconds = _timed(lambda: tomography_error(
        scalar_backend, prepared, bench.meeting_pair, config, workers=1))
    pooled, parallel_seconds = _timed(lambda: tomography_error(
        backend, prepared, bench.meeting_pair, config, workers=workers))
    # Determinism spot-check on the shipped configuration only.
    single = tomography_error(backend, prepared, bench.meeting_pair, config,
                              workers=1)
    return {
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "workers": workers,
        "speedup": serial_seconds / parallel_seconds,
        "deterministic_across_worker_counts": single == pooled,
        "notes": "serial = scalar trajectory engine @ 1 worker (pre-change); "
                 "parallel = batched engine @ N workers (shipped)",
    }


def bench_live_overhead(workers: int, fast: bool) -> dict:
    """Live-telemetry-plane overhead on the campaign path: off vs on.

    Unlike the other workloads, both legs run the *shipped*
    configuration; the only variable is an active
    :class:`~repro.obs.live.LivePlane` (snapshot thread + heartbeats +
    exporters) around the ``parallel_seconds`` leg.  The two reports must
    be identical — the live plane is a pure observer — and
    ``overhead_ratio`` (on/off) is the number the ``--check`` budget
    gates.
    """
    device = ibmq_poughkeepsie()
    rb = RBConfig.fast() if fast else RBConfig()
    clifford_group(2)

    off_campaign = CharacterizationCampaign(device, rb_config=rb, seed=3)
    off, off_seconds = _timed(lambda: off_campaign.run(
        CharacterizationPolicy.ONE_HOP_PACKED, workers=workers))

    on_campaign = CharacterizationCampaign(device, rb_config=rb, seed=3)
    with tempfile.TemporaryDirectory(prefix="repro-bench-live-") as tmp:
        with LivePlane(tmp, interval=0.05, rules=default_fleet_rules(),
                       source="bench_perf"):
            on, on_seconds = _timed(lambda: on_campaign.run(
                CharacterizationPolicy.ONE_HOP_PACKED, workers=workers))

    identical = (
        off.report.independent == on.report.independent
        and off.report.conditional == on.report.conditional
    )
    return {
        "serial_seconds": off_seconds,
        "parallel_seconds": on_seconds,
        "workers": workers,
        "speedup": off_seconds / on_seconds,
        "overhead_ratio": on_seconds / off_seconds,
        "deterministic_across_worker_counts": identical,
        "notes": "serial = live plane off; parallel = identical campaign "
                 "under a LivePlane (0.05s snapshots + heartbeats + "
                 "exporters); overhead_ratio = on/off",
    }


def bench_cold_clifford_build() -> dict:
    """Seconds to build both Clifford groups in a fresh interpreter.

    The cold leg: every process tree pays this once, before any RB.  The
    import is outside the timed region.
    """
    code = (
        "import time\n"
        "from repro.rb.clifford import clifford_group\n"
        "started = time.perf_counter()\n"
        "clifford_group(1)\n"
        "clifford_group(2)\n"
        "print(time.perf_counter() - started)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return {"seconds": float(out.stdout.split()[-1])}


WORKLOADS = {
    "campaign_one_hop_packed": bench_campaign,
    "trajectory_backend": bench_trajectories,
    "tomography": bench_tomography,
    "live_overhead": bench_live_overhead,
}


def check_budget_diff(workloads: dict, check: float):
    """The ``--check`` gate as a :mod:`repro.obs.diff`.

    Builds a synthetic *budget* baseline — every workload's parallel leg
    allowed ``check`` times its serial leg — and diffs the measured
    parallel legs against it with zero tolerance, so any leg over budget
    classifies as regressed.
    """
    budget = RunRecord(run_id="budget", name="bench_perf_budget", series={
        f"workloads.{name}.parallel_seconds":
            check * entry["serial_seconds"]
        for name, entry in workloads.items()
    })
    measured = RunRecord(run_id="measured", name="bench_perf_measured",
                         series={
                             f"workloads.{name}.parallel_seconds":
                                 entry["parallel_seconds"]
                             for name, entry in workloads.items()
                         })
    zero = DiffThresholds(rel=0.0, mad_scale=0.0, abs_floor=1e-9,
                          noise_floor_seconds=0.0)
    return diff_records(budget, measured, zero)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small protocol sizing (CI smoke mode)")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the parallel legs (default 4)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    parser.add_argument("--check", type=float, default=None, metavar="X",
                        help="exit nonzero if any workload's parallel leg "
                             "is slower than X times its serial leg")
    parser.add_argument("--floor", action="append", default=[],
                        metavar="NAME=X",
                        help="exit nonzero if workload NAME's speedup is "
                             "below X (repeatable; e.g. "
                             "--floor campaign_one_hop_packed=3)")
    add_history_arguments(parser)
    args = parser.parse_args(argv)

    print("[bench_perf] running cold clifford_build ...", flush=True)
    cold = {"clifford_build": bench_cold_clifford_build()}
    print(f"[bench_perf]   cold {cold['clifford_build']['seconds']:.3f}s",
          flush=True)

    registry = MetricsRegistry()
    workloads = {}
    with push_registry(registry):
        for name, fn in WORKLOADS.items():
            print(f"[bench_perf] running {name} ...", flush=True)
            entry = fn(args.workers, args.fast)
            workloads[name] = entry
            print(f"[bench_perf]   serial {entry['serial_seconds']:.2f}s  "
                  f"parallel {entry['parallel_seconds']:.2f}s  "
                  f"speedup {entry['speedup']:.2f}x", flush=True)

    manifest = RunManifest.capture(
        name="bench_perf_baseline",
        config={"fast": args.fast, "cpu_count": os.cpu_count()},
        workers=args.workers,
        results={"workloads": workloads, "cold": cold},
    )
    write_manifest(manifest, str(args.out))
    print(f"[bench_perf] wrote {args.out} (run {manifest.run_id})")

    record = RunRecord.from_artifacts(manifest=manifest.to_dict(),
                                      metrics=registry.snapshot())
    gate_failures = record_and_gate(record, args, "bench_perf")

    failures = []
    for name, entry in workloads.items():
        if not entry.get("deterministic_across_worker_counts", True):
            failures.append(f"{name}: results differ across worker counts")

    for spec in args.floor:
        name, _, floor_text = spec.partition("=")
        if not floor_text or name not in workloads:
            failures.append(f"--floor {spec!r}: unknown workload or missing "
                            f"value (workloads: {', '.join(WORKLOADS)})")
            continue
        floor = float(floor_text)
        speedup = workloads[name]["speedup"]
        if speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below floor {floor:.2f}x"
            )

    if args.check is not None:
        warn_if_dirty(record, "this run", "bench_perf")
        diff = check_budget_diff(workloads, args.check)
        for regression in diff.regressions:
            failures.append(
                f"{regression.name}: {regression.candidate:.2f}s exceeds "
                f"{args.check:.2f}x serial budget "
                f"({regression.baseline:.2f}s)"
            )

    failures += gate_failures
    for failure in failures:
        print(f"[bench_perf] FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
