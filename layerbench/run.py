"""Layered benchmark of the Figure 2 flow and the Opt-3 fleet loop.

Usage (from the repository root)::

    python3 layerbench/run.py --workload fleet --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics: one untimed warm-up op,
then ``--seconds`` worth of whole cycles of the workload's mix (at its
nominal cycle time on the reference 2-core host), every output checked,
plus set-up time sampled in fresh processes.  ``--trace 1`` measures the
per-layer metrics: a fixed number of ops run untraced and then traced
(same ops, same worker count), with spans recorded by wrappers around
the program's entry points.  The last line of standard output is the
result object; the line before it carries environment data (host-speed
probe, tail percentile and sample count, layer coverage).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Every BLAS / OpenMP pool pinned to one thread: the host's OpenBLAS is
#: multithreaded and its two cores are shared with pool workers.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Fresh-process set-up samples per run (the run's own set-up is one more).
SETUP_CHILDREN = 2

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time, exit")
    return parser.parse_args(argv)


def pin_environment(pool_pass: bool) -> dict:
    """Set the workload's steadiness controls; returns what was set."""
    env = {name: "1" for name in THREAD_ENV}
    env["REPRO_WORKERS"] = "1"
    if pool_pass:
        # A timing probe must never decide between pool and serial.
        env["REPRO_MIN_PARALLEL_SECONDS"] = "0"
    os.environ.update(env)
    return env


def host_probe() -> float:
    """Milliseconds for a fixed pure-Python plus small-matmul kernel."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((24, 24))
    started = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    for _ in range(150):
        a = a @ a
        a /= np.abs(a).max()
    return (time.perf_counter() - started) * 1e3


class Probe:
    """Host-speed samples taken between cycles (environment data only)."""

    def __init__(self):
        self.samples = []

    def sample(self, count: int = 3) -> None:
        self.samples.extend(host_probe() for _ in range(count))

    def summary(self) -> dict:
        median = statistics.median(self.samples)
        q1, _, q3 = statistics.quantiles(self.samples, n=4)
        return {"median_ms": median, "iqr_share": (q3 - q1) / median,
                "samples": len(self.samples)}


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class PassResult:
    def __init__(self):
        self.latencies = []
        self.done = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []

    def record(self, workload, index, fn, keep: bool) -> None:
        from layerbench.checks import CheckFailed

        spec = workload.spec(index)
        self.attempted += 1
        started = time.perf_counter()
        try:
            output = fn(spec)
        except Exception as error:  # an op that raises is a failed op
            self.failed += 1
            self.errors.append(f"op {index}: {type(error).__name__}: {error}")
            return
        self.latencies.append(time.perf_counter() - started)
        try:
            workload.check(spec, output)
        except CheckFailed as error:
            self.failed += 1
            self.wrong += 1
            self.errors.append(f"op {index}: check failed: {error}")
            return
        if keep:
            self.done.append((spec, output))


def cycles_for(workload, seconds: float) -> int:
    """Whole cycles a run measures: ``seconds`` of work at the workload's
    nominal cycle time, and at least enough for the quality window and a
    tail percentile.

    The work is fixed rather than the duration, so the sample count (and
    with it the tail percentile) never depends on how fast the host is:
    stopping at the first cycle boundary after ``seconds`` made the cycle
    count, and the metrics with it, flip between runs.
    """
    minimum = max(workload.quality_ops, TAIL_BEYOND + 1)
    return max(math.ceil(minimum / workload.cycle),
               round(seconds / workload.cycle_seconds))


def timed_loop(workload, seconds: float, probe: Probe) -> PassResult:
    """Run the measured cycles, probing the host between them."""
    workload.reset()
    result = PassResult()
    index = 0
    for _ in range(cycles_for(workload, seconds)):
        for _ in range(workload.cycle):
            result.record(workload, index, workload.run,
                          keep=index < workload.quality_ops)
            index += 1
        probe.sample()
    return result


def fixed_pass(workload, ops: int, run) -> PassResult:
    workload.reset()
    result = PassResult()
    for index in range(ops):
        result.record(workload, index, lambda spec, i=index: run(spec, i),
                      keep=False)
    return result


def setup_samples(args) -> list:
    """Set-up seconds of fresh processes running this workload's set-up."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted
    average of all order statistics.  Unlike a single order statistic it
    moves smoothly when a mixed op set puts the rank at a gap between op
    kinds."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(w * x for w, x in zip(edges[1:] - edges[:-1], ordered)))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# legs
# ----------------------------------------------------------------------
def merged(passes) -> PassResult:
    """Op counts and errors of several passes (timings are not merged)."""
    total = PassResult()
    for part in passes:
        total.attempted += part.attempted
        total.failed += part.failed
        total.wrong += part.wrong
        total.errors += part.errors
    return total


def warmup_pass(workload) -> PassResult:
    """One untimed op first, so process-wide caches the program fills on
    first use are not charged to whichever op happens to run first."""
    return fixed_pass(workload, 1, lambda spec, i: workload.run(spec))


def untraced_leg(args, workload, setup_s: float, probe: Probe):
    warmup = warmup_pass(workload)
    result = timed_loop(workload, args.seconds, probe)
    latencies = sorted(result.latencies)
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"only {n} ops completed; need more than "
                           f"{TAIL_BEYOND} for a tail percentile")
    tail_q = (n - TAIL_BEYOND - 1) / (n - 1)
    quality = workload.quality(result.done) \
        if len(result.done) == workload.quality_ops else {}
    setups = [setup_s] + setup_samples(args)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "latency_ms": (harrell_davis(latencies, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (harrell_davis(latencies, tail_q) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for name in ("pair_recall", "xtalk_gain"):
        if name in quality:
            metrics[name] = (quality[name], "ratio")
    info = {
        "latency_tail": {"percentile": 100.0 * tail_q, "samples": n},
        "setup_samples_s": setups,
        "cycles": result.attempted // workload.cycle,
    }
    return merged([warmup, result]), metrics, info


def traced_leg(workload, stages: dict):
    from repro.obs import MetricsRegistry, push_registry

    from layerbench import layers
    from layerbench.tracer import Tracer

    ops = workload.trace_ops
    warmup = warmup_pass(workload)
    untraced = fixed_pass(workload, ops, lambda spec, i: workload.run(spec))
    tracer = Tracer()
    layers.install(tracer)
    registry = MetricsRegistry()
    try:
        with push_registry(registry):
            traced = fixed_pass(workload, ops, lambda spec, i: tracer.op_span(
                i, lambda: workload.run(spec)))
    finally:
        tracer.uninstall()
    passes = [warmup, untraced, traced]
    pool_tracer, pool_registry = tracer, registry
    if workload.pool_workers > 1:
        # Wrappers cannot report back from pool workers: the rb split
        # comes from the 1-worker passes above, the pool split from the
        # engine's merged histograms on a pass at the pool's width.
        os.environ["REPRO_WORKERS"] = str(workload.pool_workers)
        pool_tracer, pool_registry = Tracer(), MetricsRegistry()
        layers.install_pool_counters(pool_tracer)
        try:
            with push_registry(pool_registry):
                passes.append(fixed_pass(
                    workload, ops, lambda spec, i: pool_tracer.op_span(
                        i, lambda: workload.run(spec))))
        finally:
            pool_tracer.uninstall()
    metrics, info = layer_metrics(tracer, registry, pool_tracer,
                                  pool_registry, stages,
                                  sum(untraced.latencies))
    return merged(passes), metrics, info


def layer_metrics(tracer, registry, pool_tracer, pool_registry, stages,
                  untraced_seconds: float):
    layer_self, busy = tracer.self_times()
    counts = tracer.counts
    snap = registry.snapshot()
    pool = pool_registry.snapshot()["histograms"]
    exec_hist = pool.get("parallel.task.exec_seconds", {})
    queue_hist = pool.get("parallel.task.queue_seconds", {})
    counters = snap["counters"]
    tasks = counters.get("parallel.tasks", 0.0)
    wasted = counters.get("resilience.retries", 0.0) + \
        counters.get("resilience.task_failures", 0.0)
    op_seconds = tracer.op_seconds()
    s, n = "s", "count"
    values = {
        "rb.clifford.build_s": (stages.get("rb.clifford.build_s", 0.0), s),
        "rb.fit.calls": (counts["rb.fit.calls"], n),
        "rb.fit.busy_s": (busy.get("rb.fit", 0.0), s),
        "rb.estimate.calls": (counts["rb.estimate.calls"], n),
        "rb.estimate.busy_s": (busy.get("rb.estimate.self", 0.0), s),
        "characterization.experiments": (
            counts["characterization.experiments"], n),
        "characterization.self_s": (layer_self.get("characterization", 0.0),
                                    s),
        "parallel.tasks": (exec_hist.get("count", 0), n),
        "parallel.queue_wait_s": (queue_hist.get("sum", 0.0), s),
        "parallel.exec_s": (exec_hist.get("sum", 0.0), s),
        "parallel.pool_starts": (pool_tracer.counts["parallel.pool_start.calls"],
                                 n),
        "parallel.retries": (pool_tracer.counts["parallel.retry.calls"], n),
    }
    for step in ("layout", "routing", "decompose", "schedule"):
        values[f"pipeline.{step}.busy_s"] = (busy.get(f"pipeline.{step}", 0.0),
                                            s)
    values.update({
        "transpiler.swaps_inserted": (counts["transpiler.swaps_inserted"], n),
        "transpiler.gates_out": (counts["transpiler.gates_out"], n),
        "scheduling.self_s": (layer_self.get("scheduling", 0.0), s),
        "scheduling.candidate_pairs": (counts["scheduling.candidate_pairs"], n),
        "scheduling.serialized_pairs": (counts["scheduling.serialized_pairs"],
                                        n),
        "smt.solves": (counts["smt.solve.calls"], n),
        "smt.nodes": (counts["smt.nodes"], n),
        "smt.lp.calls": (counts["smt.lp.calls"], n),
        "smt.lp.busy_s": (busy.get("smt.lp", 0.0), s),
        "smt.feasibility.calls": (counts["smt.feasibility.calls"], n),
        "smt.feasibility.busy_s": (busy.get("smt.feasibility", 0.0), s),
        "smt.windows": (counts["smt.windows"], n),
        "backend.runs": (counts["backend.run.calls"], n),
        "backend.busy_s": (busy.get("backend.submit", 0.0), s),
        "sim.trajectories": (counts["sim.trajectories"], n),
        "sim.busy_s": (layer_self.get("sim", 0.0), s),
        "sim.gate_applications": (counts["sim.gate_applications"], n),
        "metrics.busy_s": (layer_self.get("metrics", 0.0), s),
        "fleet.epochs.fresh": (counts["fleet.epochs.fresh"], n),
        "fleet.epochs.degraded": (counts["fleet.epochs.degraded"], n),
        "fleet.epochs.carried": (counts["fleet.epochs.carried"], n),
        "fleet.self_s": (layer_self.get("fleet", 0.0), s),
        "resilience.retries": (counters.get("resilience.retries", 0.0), n),
        "resilience.checkpoint.records": (
            counts["resilience.checkpoint.append.calls"], n),
        "resilience.checkpoint.busy_s": (
            busy.get("resilience.checkpoint.append", 0.0)
            + busy.get("resilience.checkpoint.open", 0.0), s),
        "resilience.useful_ratio": (
            (tasks - wasted) / tasks if tasks else 1.0, "ratio"),
        "unattributed_s": (layer_self.get("op", 0.0), s),
        "trace_overhead_ratio": (op_seconds / untraced_seconds, "ratio"),
    })
    info = {
        "traced_op_s": op_seconds,
        "layer_self_s": {k: v for k, v in sorted(layer_self.items())},
        "layer_coverage": 1.0 - layer_self.get("op", 0.0) / op_seconds,
        "sim.gate_applications": "computed as trajectories x gates",
    }
    return values, info


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy is first imported, so its BLAS pool starts at 1 thread.
    os.environ.update({name: "1" for name in THREAD_ENV})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from layerbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    env = pin_environment(pool_pass=cls.pool_workers > 1)
    workdir = os.path.join(os.getcwd(), ".layerbench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = cls(args.seed, workdir)
        stages = workload.setup()
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, **stages}))
            return 0
        probe = Probe()
        probe.sample()
        if args.trace:
            result, metrics, info = traced_leg(workload, stages)
        else:
            result, metrics, info = untraced_leg(args, workload, setup_s,
                                                 probe)
        probe.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for error in result.errors[:20]:
        print(f"[layerbench] {error}", file=sys.stderr)
    info.update({"workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "env": env,
                 "cpu_count": os.cpu_count(), "host_probe": probe.summary()})
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
