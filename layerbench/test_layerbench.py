"""Tests of the benchmark itself: every output check fails on a planted
bad output, the independent recomputations agree with the program on good
outputs, and two runs with one seed repeat their counts exactly.

Run from the repository root::

    python3 -m pytest layerbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from layerbench import checks  # noqa: E402
from layerbench.checks import CheckFailed  # noqa: E402
from layerbench.workloads import WORKLOADS  # noqa: E402


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scheduled_case():
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.scheduling.xtalk import XtalkScheduler
    from repro.device.presets import ibmq_poughkeepsie
    from repro.experiments.common import ground_truth_report

    device = ibmq_poughkeepsie()
    report = ground_truth_report(device)
    circuit = QuantumCircuit(20, 4)
    for pair in ((5, 10), (11, 12), (0, 1), (16, 17), (3, 4), (13, 14)):
        circuit.cx(*pair)
    circuit.cx(10, 11)
    for i, q in enumerate((10, 11, 0, 16)):
        circuit.measure(q, i)
    calibration = device.calibration()
    scheduled = XtalkScheduler(calibration, report, omega=0.5).schedule(
        circuit)
    assert scheduled.serialized_pairs, "case must exercise a serialization"
    return circuit, scheduled, calibration, report


def test_schedule_check_passes_on_program_output(scheduled_case):
    checks.verify_schedule(*scheduled_case, omega=0.5)


def test_schedule_check_catches_qubit_overlap(scheduled_case):
    from repro.transpiler.schedule import Schedule

    circuit, scheduled, calibration, report = scheduled_case
    intended = scheduled.intended_schedule
    starts = list(intended.start_times)
    # Gate 6 (cx 10,11) follows cx(5,10) and cx(11,12): start it at 0.
    starts[6] = 0.0
    bad = dataclasses.replace(scheduled, intended_schedule=Schedule(
        intended.circuit, intended.durations, starts))
    with pytest.raises(CheckFailed, match="overlaps"):
        checks.verify_schedule(circuit, bad, calibration, report, omega=0.5)


def test_schedule_check_catches_wrong_objective(scheduled_case):
    circuit, scheduled, calibration, report = scheduled_case
    solution = dataclasses.replace(
        scheduled.solution, objective=scheduled.solution.objective + 0.01)
    bad = dataclasses.replace(scheduled, solution=solution)
    with pytest.raises(CheckFailed, match="objective"):
        checks.verify_schedule(circuit, bad, calibration, report, omega=0.5)


def test_schedule_check_catches_lost_gate(scheduled_case):
    circuit, scheduled, calibration, report = scheduled_case
    from repro.circuit.circuit import QuantumCircuit

    original = scheduled.circuit
    submitted = QuantumCircuit(original.num_qubits, original.num_clbits)
    for instr in original:
        if not (instr.is_two_qubit and tuple(instr.qubits) == (3, 4)):
            submitted.append(instr)
    bad = dataclasses.replace(scheduled, circuit=submitted)
    with pytest.raises(CheckFailed, match="submitted"):
        checks.verify_schedule(circuit, bad, calibration, report, omega=0.5)


# ----------------------------------------------------------------------
# reports and epochs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def device_and_report():
    from repro.device.presets import ibmq_poughkeepsie
    from repro.experiments.common import ground_truth_report

    device = ibmq_poughkeepsie()
    return device, ground_truth_report(device)


def _report_copy(report):
    from repro.core.characterization.report import CrosstalkReport

    return CrosstalkReport.from_json(report.to_json())


def test_report_check_passes_on_truth(device_and_report):
    device, report = device_and_report
    checks.check_report(report, device)
    assert checks.pairs_found(report, device)[0] == \
        len(device.true_high_pairs())


def test_report_check_catches_missing_pair(device_and_report):
    device, report = device_and_report
    bad = _report_copy(report)
    a, b = sorted(device.coupling.one_hop_gate_pairs()[0])
    for key in list(bad.conditional):
        if set(key) == {a, b}:
            del bad.conditional[key]
    with pytest.raises(CheckFailed, match="no conditional rate"):
        checks.check_report(bad, device)


def test_report_check_catches_unphysical_rate(device_and_report):
    device, report = device_and_report
    bad = _report_copy(report)
    bad.record_independent(device.coupling.edges[0], 0.7)
    with pytest.raises(CheckFailed, match="independent rate"):
        checks.check_report(bad, device)


def _epoch(day, status, report):
    return SimpleNamespace(day=day, status=status,
                           good=status in ("fresh", "degraded"),
                           report=lambda: report)


def test_epoch_check(device_and_report):
    device, report = device_and_report
    other = SimpleNamespace(name="always_fail", coupling=device.coupling)
    good = SimpleNamespace(epochs={
        device.name: [_epoch(0, "fresh", report), _epoch(1, "fresh", report)],
        "always_fail": [_epoch(0, "missing", report),
                        _epoch(1, "missing", report)],
    })
    checks.check_epochs(good, [device, other], 1, always_fail="always_fail")

    lost = SimpleNamespace(epochs=dict(good.epochs))
    lost.epochs[device.name] = [_epoch(1, "fresh", report)]
    with pytest.raises(CheckFailed, match="epochs"):
        checks.check_epochs(lost, [device, other], 1,
                            always_fail="always_fail")

    wrong = SimpleNamespace(epochs=dict(good.epochs))
    wrong.epochs["always_fail"] = [_epoch(0, "missing", report),
                                   _epoch(1, "fresh", report)]
    with pytest.raises(CheckFailed, match="always-failing"):
        checks.check_epochs(wrong, [device, other], 1,
                            always_fail="always_fail")


# ----------------------------------------------------------------------
# execution scores
# ----------------------------------------------------------------------
def _bell_dists():
    """Exact tomography distributions of (|00> + |11>)/sqrt(2)."""
    dists = {}
    for a in "XYZ":
        for b in "XYZ":
            if a != b:
                dists[(a, b)] = np.full(4, 0.25)
            elif a == "Y":
                dists[(a, b)] = np.array([0.0, 0.5, 0.5, 0.0])
            else:
                dists[(a, b)] = np.array([0.5, 0.0, 0.0, 0.5])
    return dists


def test_bell_fidelity_matches_program_reconstruction():
    from repro.metrics import tomography

    rng = np.random.default_rng(5)
    good = _bell_dists()
    for _ in range(5):
        noisy = {k: 0.7 * v + 0.3 * rng.dirichlet(np.ones(4))
                 for k, v in good.items()}
        rho = tomography.density_from_expectations(
            tomography.expectations_from_distributions(noisy))
        program = tomography.state_fidelity(rho,
                                            tomography.bell_state_vector())
        assert checks.bell_fidelity(noisy) == pytest.approx(program,
                                                            abs=1e-12)


def test_swap_check():
    dists = _bell_dists()
    checks.check_swap(dists, 1.0 - checks.bell_fidelity(dists))
    with pytest.raises(CheckFailed, match="recomputed"):
        checks.check_swap(dists, 0.2)
    product = {k: np.array([1.0, 0.0, 0.0, 0.0]) if k == ("Z", "Z")
               else np.full(4, 0.25) for k in dists}
    with pytest.raises(CheckFailed, match="not entangled"):
        checks.check_swap(product, 1.0 - checks.bell_fidelity(product))


def test_hidden_shift_check():
    dist = {"0101": 0.7, "0000": 0.2, "1111": 0.1}
    checks.check_hidden_shift(dist, "0101", 0.7)
    with pytest.raises(CheckFailed, match="expected"):
        checks.check_hidden_shift(dist, "1010", 0.0)


def test_qaoa_ideal_matches_program_and_check_fails_on_bad_output():
    from repro.sim.statevector import ideal_distribution
    from repro.workloads.qaoa import qaoa_ansatz

    logical = qaoa_ansatz(4, 3, seed=11)
    measured = logical.copy()
    measured.num_clbits = 4
    for q in range(4):
        measured.measure(q, q)
    ours = checks.ideal_distribution(logical, 4)
    program = ideal_distribution(measured)
    for key in set(ours) | set(program):
        assert ours.get(key, 0.0) == pytest.approx(program.get(key, 0.0),
                                                   abs=1e-12)
    checks.check_ideal(program, ours)
    worst = min(ours, key=ours.get)
    shifted = dict(program)
    shifted[worst] = shifted[worst] + 0.01
    with pytest.raises(CheckFailed, match="ideal"):
        checks.check_ideal(shifted, ours)
    noisy = {k: 0.8 * p + 0.2 / 16 for k, p in ours.items()}
    ce = -sum(p * np.log(max(ours[k], 1e-12)) for k, p in noisy.items())
    checks.check_qaoa(noisy, ours, ce)
    with pytest.raises(CheckFailed, match="TVD"):
        checks.check_qaoa({worst: 1.0}, ours,
                          -np.log(max(ours[worst], 1e-12)))
    with pytest.raises(CheckFailed, match="cross entropy"):
        checks.check_qaoa(noisy, ours, ce + 0.1)


# ----------------------------------------------------------------------
# exact repeat
# ----------------------------------------------------------------------
def _run(workload: str, seed: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "layerbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True, cwd=ROOT,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, completed.stderr
    return result["metrics"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_repeats_counts_and_quality_exactly(workload):
    """Counts and quality are a pure function of the seed.

    A mismatch here is nondeterminism in the program or the benchmark,
    never host noise: none of these values depends on timing.
    """
    for trace, pick in ((1, lambda m: m["unit"] == "count"),
                        (0, lambda m: m["unit"] == "ratio")):
        first, second = _run(workload, 3, trace), _run(workload, 3, trace)
        picked = {k: v["value"] for k, v in first.items() if pick(v)}
        again = {k: second[k]["value"] for k in picked}
        assert picked, "no deterministic metrics to compare"
        assert picked == again, f"nondeterminism in {workload}: " + ", ".join(
            f"{k} {picked[k]} != {again[k]}" for k in picked
            if picked[k] != again[k])
