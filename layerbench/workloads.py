"""The three benchmark workloads: inputs from a seed, one op, its check.

Each workload is a closed loop with one client: ops run one after
another, and the program sees only the generated inputs.  Ops come in
*cycles*: one cycle is every entry of the workload's input mix once, in
an order drawn from the seed.  Runs measure whole cycles, so every run
times the same mix however the seed orders it.

The quality metrics (``pair_recall``, ``xtalk_gain``) are computed over
the first ``quality_ops`` ops only, which makes them a pure function of
the seed.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from layerbench import checks

#: Solver budget far above the slowest schedule in any workload; a solve
#: that still hits it is counted as a failed op.
SOLVE_BUDGET_S = 600.0


class OpFailed(RuntimeError):
    """The program returned without a usable answer (e.g. a deadline)."""


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _geomean(values: Sequence[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


class Workload:
    """Base class; subclasses fill in the mix, the op and its check."""

    name = ""
    #: Pool width of the traced leg's extra pool pass (1: no pool pass).
    #: Every other pass runs at ``REPRO_WORKERS=1``.
    pool_workers = 1
    #: ops in the first part of a run that the quality metrics grade.
    quality_ops = 0
    #: ops timed by each pass of the traced leg.
    trace_ops = 0
    #: Nominal seconds per cycle, measured on the reference host (a
    #: shared 2-core x86 VM); sets how many cycles ``--seconds`` buys.
    cycle_seconds: float
    #: whether the workload runs RB (and so builds the Clifford groups).
    uses_rb = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.cycle = 0

    def setup(self) -> Dict[str, float]:
        """Build devices, reports and inputs; return timed set-up stages."""
        stages: Dict[str, float] = {}
        if self.uses_rb:
            from repro.rb.clifford import clifford_group

            started = time.perf_counter()
            clifford_group(1)
            clifford_group(2)
            stages["rb.clifford.build_s"] = time.perf_counter() - started
        self.build_inputs()
        return stages

    def build_inputs(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Fresh program state before a pass (stateless by default)."""

    def spec(self, index: int):
        """The input of op ``index`` (a pure function of seed and index)."""
        cycle, pos = divmod(index, self.cycle)
        order = _rng(self.seed, 1, cycle).permutation(self.cycle)
        return self.make_spec(int(order[pos]), index)

    def make_spec(self, entry: int, index: int):
        raise NotImplementedError

    def run(self, spec):
        raise NotImplementedError

    def check(self, spec, output) -> None:
        raise NotImplementedError

    def quality(self, done: List[Tuple[object, object]]) -> Dict[str, float]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _truth_report(device, day: int = 0):
    from repro.experiments.common import ground_truth_report

    return ground_truth_report(device, day)


def _predicted_error(circuit, calibration, truth) -> float:
    """``-ln`` of the predicted success of a circuit as the hardware would
    time it: ``1 - success`` to first order, and still informative on
    device-scale circuits whose success probability is near zero."""
    from repro.core.scheduling import predictor
    from repro.transpiler.scheduling import hardware_schedule

    schedule = hardware_schedule(circuit, calibration.durations)
    return -math.log(predictor.predict_success(schedule, calibration,
                                               truth).total)


def _predicted_gain(circuit, device, day: int, report) -> float:
    """ParSched / XtalkSched predicted error of ``circuit`` scheduled with
    ``report``, both graded by the device's hidden truth."""
    from repro.core.scheduling.xtalk import XtalkScheduler

    calibration = device.calibration(day)
    truth = _truth_report(device, day)
    scheduled = XtalkScheduler(calibration, report, omega=0.5,
                               max_solve_seconds=SOLVE_BUDGET_S
                               ).schedule(circuit)
    return (_predicted_error(circuit, calibration, truth)
            / _predicted_error(scheduled.circuit, calibration, truth))


def _swap_benches(device, count: int):
    """The first ``count`` Figure 5 SWAP circuits crossing a planted pair."""
    from repro.workloads.swap import (
        crosstalk_affected_endpoints, crosstalk_route, swap_benchmark,
    )

    high = _truth_report(device).high_pairs()
    benches = []
    for source, dest in crosstalk_affected_endpoints(device.coupling,
                                                     high)[:count]:
        route = crosstalk_route(device.coupling, source, dest, high)
        benches.append(swap_benchmark(device.coupling, source, dest,
                                      path=route))
    return benches


# ----------------------------------------------------------------------
# compile_execute
# ----------------------------------------------------------------------
POLICIES = ("xtalk", "par", "serial")
#: The Figure 8 experiment's ansatz angles and the Figure 9 shift.
#: Per-circuit gains vary widely with angles, shifts and simulator seeds
#: (160 trajectories): drawing any of them per seed spread ``xtalk_gain``
#: ~10% across seeds.  The circuits and the simulator seed are the figure
#: experiments'; the seed sets the order.
QAOA_ANGLE_SEED = 11
HIDDEN_SHIFT = "1010"


class CompileExecute(Workload):
    """Compile one circuit under one policy, execute it, score it.

    The mix is the first Figure 5 SWAP path of each 20q preset, the four
    Figure 8 QAOA regions and the four Figure 9 hidden-shift regions
    (redundant CNOTs) on Poughkeepsie, each under xtalk, par and serial.
    The seed sets the order.  The report is the ground truth, so no RB
    runs.
    """

    name = "compile_execute"
    cycle_seconds = 6.0

    def build_inputs(self) -> None:
        from repro.device.backend import NoisyBackend
        from repro.device.presets import all_devices
        from repro.sim import statevector
        from repro.workloads import hidden_shift, qaoa

        self.devices = list(all_devices())
        self.reports = [_truth_report(d) for d in self.devices]
        self.backends = [NoisyBackend(d) for d in self.devices]
        circuits = [("swap", k, bench.circuit, bench.meeting_pair)
                    for k, device in enumerate(self.devices)
                    for bench in _swap_benches(device, 1)]
        pough = self.devices[0]
        logical = qaoa.qaoa_ansatz(4, 3, QAOA_ANGLE_SEED)
        reference = checks.ideal_distribution(logical, 4)
        for region in qaoa.QAOA_REGIONS:
            circuit = qaoa.qaoa_on_region(pough.coupling, region,
                                          seed=QAOA_ANGLE_SEED)
            # The scoring reference is a property of the circuit, not of
            # the policy that runs it: a 20-qubit state-vector simulation
            # (~0.4 s), computed once here with the program's own function.
            # Re-simulated by each of the 12 ops per cycle that score
            # against it, it would be half the op time, and the most
            # memory-bound (so host-sensitive) part of it.
            ideal = statevector.ideal_distribution(circuit)
            checks.check_ideal(ideal, reference)
            circuits.append(("qaoa", 0, circuit, ideal))
        for region in qaoa.QAOA_REGIONS:
            circuits.append((
                "hs", 0,
                hidden_shift.hidden_shift_on_region(
                    pough.coupling, region, shift=HIDDEN_SHIFT,
                    redundant=True),
                hidden_shift.expected_output(HIDDEN_SHIFT),
            ))
        self.circuits = circuits
        self.cycle = len(circuits) * len(POLICIES)
        self.quality_ops = self.trace_ops = self.cycle

    def make_spec(self, entry: int, index: int):
        circuit, policy = divmod(entry, len(POLICIES))
        return circuit, POLICIES[policy]

    def run(self, spec):
        from repro import compiler
        from repro.experiments import common
        from repro.metrics import distributions, tomography

        entry, policy = spec
        kind, k, circuit, answer = self.circuits[entry]
        compiled = compiler.compile_circuit(
            circuit, self.devices[k], self.reports[k], scheduler=policy,
            max_solve_seconds=SOLVE_BUDGET_S,
        )
        scheduled = compiled.scheduled
        if scheduled is not None and scheduled.fallback_reason:
            raise OpFailed(f"scheduler fell back: {scheduled.fallback_reason}")
        config = common.ExperimentConfig(workers=1)
        backend = self.backends[k]
        if kind == "swap":
            dists = {
                setting: common.run_distribution(
                    backend, _with_rotations(compiled.circuit, answer,
                                             setting), config)
                for setting in tomography.tomography_settings()
            }
            rho = tomography.density_from_expectations(
                tomography.expectations_from_distributions(dists))
            error = 1.0 - tomography.state_fidelity(
                rho, tomography.bell_state_vector())
            return {"dists": dists, "error": error}
        dist = common.distribution_as_dict(
            common.run_distribution(backend, compiled.circuit, config))
        if kind == "hs":
            success = distributions.success_probability(dist, answer)
            return {"dist": dist, "success": success, "error": 1.0 - success}
        ce = distributions.cross_entropy(dist, answer)
        loss = ce - distributions.ideal_cross_entropy(answer)
        return {"dist": dist, "ce": ce, "error": loss}

    def check(self, spec, out) -> None:
        kind, _k, _circuit, answer = self.circuits[spec[0]]
        if kind == "swap":
            checks.check_swap(out["dists"], out["error"])
        elif kind == "hs":
            checks.check_hidden_shift(out["dist"], answer, out["success"])
        else:
            checks.check_qaoa(out["dist"], answer, out["ce"])

    def quality(self, done):
        errors = {(spec[0], spec[1]): out["error"] for spec, out in done}
        gains = [errors[(c, "par")] / errors[(c, "xtalk")]
                 for c in range(len(self.circuits))]
        found = planted = 0
        for report, device in zip(self.reports, self.devices):
            f, p = checks.pairs_found(report, device)
            found, planted = found + f, planted + p
        return {"pair_recall": found / planted, "xtalk_gain": _geomean(gains)}


def _with_rotations(circuit, pair: Tuple[int, int], setting):
    """``circuit`` with tomography basis rotations before its measures."""
    from repro.circuit.circuit import QuantumCircuit

    rotation = QuantumCircuit(circuit.num_qubits)
    for qubit, basis in zip(pair, setting):
        if basis == "X":
            rotation.h(qubit)
        elif basis == "Y":
            rotation.sdg(qubit)
            rotation.h(qubit)
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    inserted = False
    for instr in circuit:
        if instr.is_measure and not inserted:
            for rot in rotation:
                out.append(rot)
            inserted = True
        out.append(instr)
    return out


# ----------------------------------------------------------------------
# schedule_scale
# ----------------------------------------------------------------------
#: (device preset, qubits, gates, circuit seed).  A fixed corpus: solve
#: time varies up to 50x between random circuits of one size, so drawing
#: fresh circuits per seed would swamp any usable bound.  The mix spans
#: monolithic and windowed solves on both heavy-hex presets.
SCHEDULE_CORPUS = (
    ("ibm_hummingbird_65q", 16, 60, 2),
    ("ibm_hummingbird_65q", 16, 100, 2),
    ("ibm_hummingbird_65q", 24, 120, 1),
    ("ibm_hummingbird_65q", 65, 120, 2),
    ("ibm_eagle_127q", 16, 60, 1),
    ("ibm_eagle_127q", 16, 100, 2),
    ("ibm_eagle_127q", 65, 120, 1),
    ("ibm_eagle_127q", 127, 200, 2),
)


class ScheduleScale(Workload):
    """One ``XtalkScheduler.schedule`` per op on heavy-hex supremacy
    circuits; the seed sets the order of the fixed corpus."""

    name = "schedule_scale"
    cycle_seconds = 4.4
    quality_ops = len(SCHEDULE_CORPUS)
    trace_ops = len(SCHEDULE_CORPUS)

    def build_inputs(self) -> None:
        from repro.device import presets
        from repro.workloads.supremacy import supremacy_circuit

        self.devices = {name: getattr(presets, name)()
                        for name in sorted({c[0] for c in SCHEDULE_CORPUS})}
        self.reports = {name: _truth_report(d)
                        for name, d in self.devices.items()}
        self.circuits = [
            supremacy_circuit(self.devices[name].coupling,
                              qubits=range(qubits), num_gates=gates,
                              seed=seed)
            for name, qubits, gates, seed in SCHEDULE_CORPUS
        ]
        self.cycle = len(SCHEDULE_CORPUS)

    def make_spec(self, entry: int, index: int):
        return entry

    def _scheduler(self, entry: int):
        from repro.core.scheduling.xtalk import XtalkScheduler

        name = SCHEDULE_CORPUS[entry][0]
        return XtalkScheduler(self.devices[name].calibration(),
                              self.reports[name], omega=0.5,
                              max_solve_seconds=SOLVE_BUDGET_S)

    def run(self, entry):
        scheduled = self._scheduler(entry).schedule(self.circuits[entry])
        if scheduled.fallback_reason or \
                scheduled.solution.interrupt == "deadline":
            raise OpFailed(f"solve hit its budget: {scheduled.fallback_reason}")
        return scheduled

    def check(self, entry, scheduled) -> None:
        name = SCHEDULE_CORPUS[entry][0]
        checks.verify_schedule(self.circuits[entry], scheduled,
                               self.devices[name].calibration(),
                               self.reports[name], omega=0.5)

    def quality(self, done):
        gains = []
        for entry, scheduled in done:
            name = SCHEDULE_CORPUS[entry][0]
            calibration = self.devices[name].calibration()
            truth = self.reports[name]
            gains.append(
                _predicted_error(self.circuits[entry], calibration, truth)
                / _predicted_error(scheduled.circuit, calibration, truth))
        found = planted = 0
        for name, device in self.devices.items():
            f, p = checks.pairs_found(self.reports[name], device)
            found, planted = found + f, planted + p
        return {"pair_recall": found / planted, "xtalk_gain": _geomean(gains)}


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
class Fleet(Workload):
    """One simulated day per op on a continuing ``FleetController``.

    The chaos soak's ``simulated_fleet`` and deterministic fault mix (one
    always-failing device, one flaky staller, transient faults on the
    rest), checkpointing to the run's work directory.  Day 0 is a full
    sweep; later days are HIGH_ONLY refreshes.  Every pass runs at one
    worker but the traced leg's pool pass at ``nproc``, which gives the
    ``parallel`` pool its split (pool starts after worker deaths, queue
    waits).
    """

    name = "fleet"
    cycle_seconds = 0.33
    pool_workers = os.cpu_count() or 1
    quality_ops = 20
    trace_ops = 20
    uses_rb = True

    def build_inputs(self) -> None:
        from repro.device.presets import simulated_fleet
        from repro.fleet.soak import SoakConfig, soak_fault_plans

        # The soak's own fleet, faults and controller seed, whatever the
        # seed: which pairs the service re-measures depends on every RB
        # draw before, so a seeded fleet moved latency_ms by 8-20% and
        # pair_recall in 1/9 steps between seeds.
        self.config = SoakConfig(workers=1)
        self.devices = simulated_fleet(self.config.devices,
                                       qubits=self.config.qubits,
                                       seed=self.config.seed)
        self.plans = soak_fault_plans(self.config,
                                      [d.name for d in self.devices])
        self.probe = _line_probe(self.config.qubits)
        self.cycle = 1
        self.reset()

    def reset(self) -> None:
        from repro.fleet.controller import FleetController
        from repro.resilience.retry import RetryPolicy

        checkpoint = os.path.join(self.workdir, "fleet")
        shutil.rmtree(checkpoint, ignore_errors=True)
        self.controller = FleetController(
            self.devices, rb_config=self.config.rb_config,
            seed=self.config.seed,
            workers=int(os.environ["REPRO_WORKERS"]),
            checkpoint_dir=checkpoint, retry=RetryPolicy.fast(),
            fault_plans=self.plans,
        )

    def make_spec(self, entry: int, index: int):
        return index

    def run(self, day):
        return self.controller.run(1, start_day=day)

    def check(self, day, outcome) -> None:
        checks.check_epochs(outcome, self.devices, day,
                            always_fail=self.devices[0].name)

    def quality(self, done):
        found = planted = 0
        for day, outcome in done:
            for device in self.devices:
                f, p = checks.pairs_found(
                    outcome.epoch(device.name, day).report(), device)
                found, planted = found + f, planted + p
        last_day, outcome = done[-1]
        gains = [
            _predicted_gain(self.probe, device, last_day,
                            outcome.epoch(device.name, last_day).report())
            for device in self.devices
        ]
        return {"pair_recall": found / planted, "xtalk_gain": _geomean(gains)}


def _line_probe(qubits: int):
    """Three layers of CNOTs on every edge of a line, then measure all."""
    from repro.circuit.circuit import QuantumCircuit

    circuit = QuantumCircuit(qubits, qubits, name="fleet_probe")
    for _ in range(3):
        for start in (0, 1):
            for q in range(start, qubits - 1, 2):
                circuit.cx(q, q + 1)
    for q in range(qubits):
        circuit.measure(q, q)
    return circuit


WORKLOADS = {w.name: w for w in (CompileExecute, ScheduleScale, Fleet)}
