"""Which program entry points each layer's spans wrap, and what they count.

Layer names follow the repository's modules: ``rb``, ``characterization``,
``parallel``, ``pipeline``, ``transpiler``, ``scheduling``, ``smt``,
``backend`` (``repro.device.backend``), ``sim``, ``metrics``,
``experiments`` (the shared Figure 2 glue in ``repro.experiments``),
``fleet`` and ``resilience``.
"""

from __future__ import annotations

from layerbench.tracer import Tracer


def _count_experiments(counts, args, kwargs, result):
    counts["characterization.experiments"] += result.num_experiments


def _count_routing(counts, args, kwargs, result):
    counts["transpiler.swaps_inserted"] += (result or {}).get(
        "routing.swaps_inserted", 0.0)


def _count_decompose(counts, args, kwargs, result):
    counts["transpiler.gates_out"] += (result or {}).get(
        "decompose.gates_out", 0.0)


def _count_schedule(counts, args, kwargs, result):
    counts["scheduling.candidate_pairs"] += len(result.candidate_pairs)
    counts["scheduling.serialized_pairs"] += len(result.serialized_pairs)


def _count_solve(counts, args, kwargs, result):
    counts["smt.nodes"] += result.nodes_explored


def _count_windows(counts, args, kwargs, result):
    counts["smt.windows"] += len(result)


def _count_trajectories(counts, args, kwargs, result):
    ops, trajectories = args[1], args[3]
    counts["sim.trajectories"] += trajectories
    counts["sim.gate_applications"] += trajectories * len(ops)


def _count_epochs(counts, args, kwargs, result):
    for epochs in result.epochs.values():
        for epoch in epochs:
            if result.start_day <= epoch.day < result.start_day + result.days:
                counts["fleet.epochs." + epoch.status] += 1


def install_pool_counters(tracer: Tracer) -> None:
    """Only the pool-start and task-retry hooks (cheap; for pool passes)."""
    tracer.patch_function("repro.parallel.engine", "ProcessPoolExecutor",
                          "parallel", "parallel.pool_start")
    tracer.patch_method("repro.parallel.engine", "ParallelEngine",
                        "_note_retry", "parallel", "parallel.retry")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    fn, method = tracer.patch_function, tracer.patch_method
    # rb
    fn("repro.rb.fitting", "fit_rb_decay", "rb", "rb.fit")
    method("repro.rb.executor", "RBExecutor", "run_units", "rb",
           "rb.estimate")
    # characterization
    method("repro.core.characterization.campaign",
           "CharacterizationCampaign", "run", "characterization",
           "characterization.run", _count_experiments)
    # parallel
    method("repro.parallel.engine", "ParallelEngine", "map", "parallel",
           "parallel.map")
    install_pool_counters(tracer)
    # pipeline / transpiler
    fn("repro.compiler", "compile_circuit", "pipeline", "pipeline.compile")
    method("repro.pipeline.runner", "Pipeline", "run", "pipeline",
           "pipeline.run")
    passes = "repro.pipeline.passes"
    method(passes, "LayoutPass", "run", "transpiler", "pipeline.layout")
    method(passes, "RoutingPass", "run", "transpiler", "pipeline.routing",
           _count_routing)
    method(passes, "DecomposePass", "run", "transpiler", "pipeline.decompose",
           _count_decompose)
    for cls in ("ParSchedulePass", "SerialSchedulePass", "XtalkSchedulePass"):
        method(passes, cls, "run", "scheduling", "pipeline.schedule")
    method(passes, "HardwareSchedulePass", "run", "transpiler",
           "pipeline.hardware_schedule")
    # scheduling / smt
    method("repro.core.scheduling.xtalk", "XtalkScheduler", "schedule",
           "scheduling", "scheduling.schedule", _count_schedule)
    method("repro.smt.solver", "OptimizingSolver", "solve", "smt",
           "smt.solve", _count_solve)
    fn("repro.smt.backends", "lp_minimize", "smt", "smt.lp")
    fn("repro.smt.feasibility", "difference_feasible", "smt",
       "smt.feasibility")
    fn("repro.smt.windows", "plan_windows", "smt", "smt.plan_windows",
       _count_windows)
    # backend / sim
    method("repro.device.backend", "NoisyBackend", "run", "backend",
           "backend.submit")
    method("repro.device.backend", "NoisyBackend", "run_schedule", "backend",
           "backend.run")
    method("repro.sim.trajectory", "BatchedTrajectorySimulator",
           "accumulate", "sim", "sim.accumulate", _count_trajectories)
    fn("repro.sim.statevector", "ideal_distribution", "sim", "sim.ideal")
    # metrics
    for name in ("expectations_from_distributions",
                 "density_from_expectations", "state_fidelity"):
        fn("repro.metrics.tomography", name, "metrics", "metrics." + name)
    for name in ("cross_entropy", "success_probability"):
        fn("repro.metrics.distributions", name, "metrics", "metrics." + name)
    fn("repro.metrics.readout", "mitigate_distribution", "metrics",
       "metrics.mitigate_distribution")
    # experiments glue
    fn("repro.experiments.common", "run_distribution", "experiments",
       "experiments.run_distribution")
    # fleet / resilience
    method("repro.fleet.controller", "FleetController", "run", "fleet",
           "fleet.run", _count_epochs)
    method("repro.resilience.checkpoint", "JsonlCheckpoint", "__init__",
           "resilience", "resilience.checkpoint.open")
    method("repro.resilience.checkpoint", "JsonlCheckpoint", "append",
           "resilience", "resilience.checkpoint.append")
    method("repro.resilience.retry", "RetryPolicy", "sleep", "resilience",
           "resilience.retry_sleep")
