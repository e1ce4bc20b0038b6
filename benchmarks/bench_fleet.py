"""Fleet benchmark: chaos-soak throughput and drift-tracking quality.

Runs the full :func:`repro.fleet.soak.run_soak` triple (fault-free
reference, chaos, kill-and-resume) and reports the fleet service's two
headline numbers:

* **throughput** — chaos-leg device-days per wall-clock second (how fast
  the online Opt-3 service re-characterizes a fleet under faults);
* **quality** — the chaos run's fleet scorecard: pooled recall/precision
  against the planted truth, worst-device ``drift_lag_days``, stable-day
  fraction, and the quarantine count.

A separate **live probe** then times an identical fault-free fleet with
the live telemetry plane off vs on (``fleet.live_off_seconds`` /
``fleet.live_on_seconds`` / ``fleet.live_overhead_ratio`` in the history
series) and fails outright if the two runs' published epochs are not
bitwise-identical — the exporter-overhead and pure-observer record for
every benchmarked revision.

Writes a ``repro.obs.manifest/v1`` document (check verdicts, injected
fault counts, scorecard) and appends a summary record to the shared
history store (``benchmarks/results/history.jsonl``) so fleet quality
diffs and gates like every other series.  Any failed soak check exits
nonzero regardless of gating — this benchmark *is* the acceptance
harness at benchmark size.

Run directly (not through pytest)::

    PYTHONPATH=src python benchmarks/bench_fleet.py --fast
    PYTHONPATH=src python benchmarks/bench_fleet.py --gate 5
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks.harness import (  # noqa: E402
    add_history_arguments,
    record_and_gate,
)

from repro.fleet.soak import SoakConfig, _controller, run_soak  # noqa: E402
from repro.obs import (  # noqa: E402
    LivePlane,
    MetricsRegistry,
    RunManifest,
    RunRecord,
    default_fleet_rules,
    push_registry,
)
from repro.rb.executor import RBConfig  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "results" / "BENCH_fleet.json"


def live_probe(config: SoakConfig) -> tuple:
    """Exporter overhead on a clean fleet: live plane off vs on.

    Two fresh fault-free controllers run the same ticks; the second runs
    under a :class:`LivePlane` (0.1s snapshots + per-tick publishes).
    Returns the timing series and whether the published epochs were
    bitwise-identical across the two runs (they must be: the plane is a
    pure observer).
    """
    started = time.perf_counter()
    off = _controller(config).run(config.days)
    off_seconds = time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-") as tmp:
        with LivePlane(tmp, interval=0.1, rules=default_fleet_rules(),
                       source="bench_fleet"):
            started = time.perf_counter()
            on = _controller(config).run(config.days)
            on_seconds = time.perf_counter() - started

    series = {
        "fleet.live_off_seconds": off_seconds,
        "fleet.live_on_seconds": on_seconds,
        "fleet.live_overhead_ratio": on_seconds / off_seconds,
    }
    return series, off.published_json() == on.published_json()


def run_benchmark(args) -> tuple:
    config = SoakConfig(
        devices=3 if args.fast else args.devices,
        days=4 if args.fast else args.days,
        qubits=5 if args.fast else args.qubits,
        seed=args.seed,
        workers=args.workers,
        fault_rate=args.fault_rate,
        rb_config=RBConfig(lengths=(2, 4, 8), num_sequences=2),
    )
    registry = MetricsRegistry()
    with push_registry(registry):
        result = run_soak(config)
        live_series, live_identical = live_probe(config)
    return config, result, registry, live_series, live_identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small fleet sizing (CI smoke mode)")
    parser.add_argument("--devices", type=int, default=6)
    parser.add_argument("--days", type=int, default=5)
    parser.add_argument("--qubits", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="per-campaign pool size (None: REPRO_WORKERS)")
    parser.add_argument("--fault-rate", type=float, default=0.22)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    add_history_arguments(parser)
    args = parser.parse_args(argv)

    print("[bench_fleet] running the soak triple "
          "(reference / chaos / kill-and-resume) ...", flush=True)
    config, result, registry, live_series, live_identical = \
        run_benchmark(args)
    print(result.format())
    print(f"[bench_fleet] live-plane overhead: "
          f"{live_series['fleet.live_overhead_ratio']:.3f}x "
          f"(off {live_series['fleet.live_off_seconds']:.2f}s, "
          f"on {live_series['fleet.live_on_seconds']:.2f}s), "
          f"epochs identical={live_identical}")

    metrics = result.scorecard.metrics
    series = {
        "fleet.device_days_per_sec": result.device_days_per_sec,
        "fleet.soak_seconds": result.seconds,
        "fleet.recall": metrics["recall"],
        "fleet.precision": metrics["precision"],
        "fleet.drift_lag_days": metrics["drift_lag_days"],
        "fleet.stable_days_fraction": metrics["stable_days_fraction"],
        "fleet.quarantined": metrics["quarantined"],
        "fleet.checks_failed": sum(
            1 for _n, passed, _d in result.checks if not passed
        ),
        **live_series,
    }
    manifest = RunManifest.capture(
        name="bench_fleet",
        config={
            "fast": args.fast, "devices": config.devices,
            "days": config.days, "qubits": config.qubits,
            "fault_rate": config.fault_rate,
            "cpu_count": os.cpu_count(),
        },
        workers=args.workers,
        results={
            "checks": {name: passed for name, passed, _d in result.checks},
            "injected": result.injected,
            "quarantined": list(result.quarantined),
            "scorecard": result.scorecard.to_dict(),
            **series,
        },
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    from repro.obs import write_manifest

    write_manifest(manifest, str(args.out))
    print(f"[bench_fleet] wrote {args.out} (run {manifest.run_id})")

    record = RunRecord.from_artifacts(
        manifest=manifest.to_dict(), metrics=registry.snapshot(),
        extra_series=series,
        documents={"scorecard": result.scorecard.to_dict()},
    )
    gate_failures = record_and_gate(record, args, "bench_fleet")

    failures = [
        f"soak check failed: {name} ({detail})"
        for name, passed, detail in result.checks if not passed
    ]
    if not live_identical:
        failures.append(
            "live probe: published epochs differ with the live plane "
            "enabled — the plane must be a pure observer"
        )

    failures += gate_failures
    for failure in failures:
        print(f"[bench_fleet] FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
