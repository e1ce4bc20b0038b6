"""Output checks that recompute each answer without the code under test.

Every check raises :class:`CheckFailed` with a one-line reason.  The
checks read the program's inputs (circuits, calibration data, the
characterization report the scheduler consumed, the devices' hidden
truth) but re-derive the answer with their own arithmetic: schedule
validity and the Section 7 objective from the returned start times,
tomography fidelity by linear inversion, ideal QAOA distributions by a
small state-vector simulation of the logical circuit, and report grades
by set arithmetic against the planted crosstalk pairs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

#: Clamp applied to gate error rates inside the log of the Section 7
#: objective (the scheduler's documented floor).
MIN_ERROR = 1e-6
#: A noisy QAOA distribution further than this (total variation) from the
#: ideal one is not a plausible execution of the circuit.
MAX_QAOA_TVD = 0.6


class CheckFailed(AssertionError):
    """An output did not match the independently computed answer."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


def _edge(qubits: Sequence[int]) -> Tuple[int, int]:
    a, b = qubits
    return (a, b) if a < b else (b, a)


def _gate_key(instr) -> tuple:
    return (instr.name, tuple(instr.qubits), tuple(instr.params), instr.clbit)


# ----------------------------------------------------------------------
# schedules (Section 7)
# ----------------------------------------------------------------------
def section7_objective(instrs: Sequence, starts: Sequence[float],
                       durations, calibration, report,
                       omega: float) -> float:
    """The Section 7 objective of a timed circuit, from first principles.

    ``omega * sum(log eps_g)`` over two-qubit gates, where ``eps_g`` is the
    gate's independent rate raised to the worst conditional rate of any
    high-crosstalk partner whose interval overlaps it, plus
    ``(1 - omega) * sum(lifetime_q / min(T1, T2))`` over active qubits.
    """
    ends = [s + durations.of(i) for s, i in zip(starts, instrs)]
    two = [k for k, instr in enumerate(instrs) if instr.is_two_qubit]
    eps: Dict[int, float] = {}
    for k in two:
        edge = _edge(instrs[k].qubits)
        try:
            eps[k] = report.independent_error(edge)
        except KeyError:
            eps[k] = calibration.cnot_error_of(*edge)
    for a, b in itertools.combinations(two, 2):
        edge_a, edge_b = _edge(instrs[a].qubits), _edge(instrs[b].qubits)
        if edge_a == edge_b or not report.is_high_pair(edge_a, edge_b):
            continue
        if starts[a] < ends[b] - 1e-9 and starts[b] < ends[a] - 1e-9:
            eps[a] = max(eps[a], report.conditional_error(edge_a, edge_b))
            eps[b] = max(eps[b], report.conditional_error(edge_b, edge_a))
    gate_term = omega * sum(math.log(max(e, MIN_ERROR)) for e in eps.values())
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}
    for k, instr in enumerate(instrs):
        for q in instr.qubits:
            first.setdefault(q, starts[k])
            last[q] = ends[k]
    decoherence = 0.0
    if omega < 1.0:
        decoherence = sum(
            (1.0 - omega) * (last[q] - first[q])
            / calibration.coherence_limit(q)
            for q in first
        )
    return gate_term + decoherence


def verify_schedule(circuit, scheduled, calibration, report,
                    omega: float) -> None:
    """Re-verify an XtalkSched result against its own input circuit.

    Checks that the intended schedule times exactly the input's gates in
    program order, that no qubit runs two operations at once and every
    qubit's operations keep program order, that the submitted circuit
    holds the same gates, and that the reported objective equals the
    Section 7 objective recomputed from the returned start times.
    """
    instrs = [i for i in circuit if not i.is_barrier]
    intended = scheduled.intended_schedule
    timed = list(intended.circuit)
    if [_gate_key(i) for i in timed] != [_gate_key(i) for i in instrs]:
        _fail("intended schedule does not time the input circuit's gates")
    starts = list(intended.start_times)
    submitted = Counter(_gate_key(i) for i in scheduled.circuit
                        if not i.is_barrier)
    if submitted != Counter(_gate_key(i) for i in instrs):
        _fail("submitted circuit gates differ from the input circuit")
    durations = calibration.durations
    free_at: Dict[int, float] = {}
    for k, instr in enumerate(instrs):
        if starts[k] < -1e-9:
            _fail(f"gate {k} starts before time zero")
        for q in instr.qubits:
            if starts[k] < free_at.get(q, 0.0) - 1e-6:
                _fail(f"gate {k} overlaps or precedes earlier work on "
                      f"qubit {q}")
        for q in instr.qubits:
            free_at[q] = starts[k] + durations.of(instr)
    objective = scheduled.solution.objective
    recomputed = section7_objective(instrs, starts, durations, calibration,
                                    report, omega)
    if not math.isclose(objective, recomputed, rel_tol=1e-6, abs_tol=1e-9):
        _fail(f"objective {objective!r} != recomputed {recomputed!r}")


# ----------------------------------------------------------------------
# characterization reports and fleet epochs
# ----------------------------------------------------------------------
def check_report(report, device) -> None:
    """A full 1-hop report: every rate present and physical.  Its grade
    against the hidden truth is :func:`pairs_found` (``pair_recall``)."""
    for edge in device.coupling.edges:
        try:
            rate = report.independent_error(edge)
        except KeyError:
            _fail(f"{device.name}: no independent rate for {edge}")
        if not 0.0 < rate < 0.5:
            _fail(f"{device.name}: independent rate {rate!r} on {edge}")
    for pair in device.coupling.one_hop_gate_pairs():
        a, b = sorted(map(_edge, pair))
        for x, y in ((a, b), (b, a)):
            # The report's accessor falls back to the independent rate for
            # unmeasured pairs, so read the measured table directly.
            rate = report.conditional.get((x, y))
            if rate is None:
                _fail(f"{device.name}: no conditional rate for {x}|{y}")
            if not 0.0 < rate < 1.0:
                _fail(f"{device.name}: conditional rate {rate!r} for {x}|{y}")


def pairs_found(report, device) -> Tuple[int, int]:
    """(planted pairs the report flags high, planted pairs)."""
    truth = {frozenset(map(_edge, p)) for p in device.true_high_pairs()}
    found = {frozenset(map(_edge, p)) for p in report.high_pairs()}
    return len(truth & found), len(truth)


def check_epochs(outcome, devices: Iterable, day: int,
                 always_fail: str) -> None:
    """One epoch per device per day so far; fresh reports complete."""
    for device in devices:
        epochs = outcome.epochs[device.name]
        if [e.day for e in epochs] != list(range(day + 1)):
            _fail(f"{device.name}: epochs {[e.day for e in epochs]} after "
                  f"day {day}")
        epoch = epochs[-1]
        if epoch.status not in ("fresh", "degraded", "failed", "carried",
                                "missing"):
            _fail(f"{device.name}: unknown epoch status {epoch.status!r}")
        if device.name == always_fail and epoch.good:
            _fail(f"{device.name}: always-failing device published a "
                  f"{epoch.status} epoch")
        if epoch.status == "fresh":
            # At the fleet's RB sizing (3 short lengths x 2 sequences) a
            # report's rates are 0.5x-5.4x the truth in geometric mean, so
            # its grade against the truth is the pair_recall metric.
            check_report(epoch.report(), device)


# ----------------------------------------------------------------------
# execution scores
# ----------------------------------------------------------------------
_PAULI = {
    "I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1.0, -1.0]),
}


def bell_fidelity(dists: Mapping[Tuple[str, str], np.ndarray]) -> float:
    """Bell-state fidelity from the 9 tomography distributions.

    Linear inversion over the 16 two-qubit Paulis (marginals averaged
    over the settings that share a basis), projected onto the physical
    states, then ``<Phi+| rho |Phi+>``.  Outcome index bit 0 is qubit a.
    """
    bases = ("X", "Y", "Z")
    outcomes = [(b0, b1) for b1 in (0, 1) for b0 in (0, 1)]
    parity = lambda dist, use_a, use_b: sum(  # noqa: E731
        p * (-1) ** ((b0 if use_a else 0) + (b1 if use_b else 0))
        for p, (b0, b1) in zip(dist, outcomes))
    exps = {("I", "I"): 1.0}
    for (ba, bb), dist in dists.items():
        exps[(ba, bb)] = parity(dist, True, True)
    for basis in bases:
        exps[(basis, "I")] = np.mean(
            [parity(dists[(basis, bb)], True, False) for bb in bases])
        exps[("I", basis)] = np.mean(
            [parity(dists[(ba, basis)], False, True) for ba in bases])
    rho = sum(value * np.kron(_PAULI[pb], _PAULI[pa])
              for (pa, pb), value in exps.items()) / 4.0
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    rho = (vecs * (vals / vals.sum())) @ vecs.conj().T
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return float(np.real(bell @ rho @ bell))


def check_swap(dists, error: float) -> None:
    """The SWAP circuit's reported error against the Bell target."""
    for setting, dist in dists.items():
        _check_distribution(dist, f"tomography setting {setting}")
    fidelity = bell_fidelity(dists)
    if not math.isclose(1.0 - fidelity, error, abs_tol=1e-9):
        _fail(f"SWAP error {error!r} != recomputed {1.0 - fidelity!r}")
    if fidelity < 0.5:
        _fail(f"SWAP output is not entangled (Bell fidelity {fidelity:.3f})")


def check_hidden_shift(dist: Mapping[str, float], expected: str,
                       success: float) -> None:
    """Hidden shift: the expected bitstring is the most likely outcome."""
    _check_distribution(list(dist.values()), "hidden shift")
    best = max(dist, key=dist.get)
    if best != expected:
        _fail(f"hidden shift measured {best!r}, expected {expected!r}")
    if not math.isclose(dist.get(expected, 0.0) / sum(dist.values()),
                        success, abs_tol=1e-12):
        _fail("hidden shift success probability does not match its counts")


def ideal_distribution(logical, num_qubits: int) -> Dict[str, float]:
    """Noise-free output of a logical ry/rz/cx circuit (own simulation).

    Qubit ``k`` is bit ``k`` of the outcome index; keys are bitstrings
    with clbit 0 rightmost.
    """
    state = np.zeros(2 ** num_qubits, dtype=complex)
    state[0] = 1.0
    state = state.reshape([2] * num_qubits)  # axis num_qubits-1-k = qubit k
    for instr in logical:
        if instr.is_measure or instr.is_barrier:
            continue
        axes = [num_qubits - 1 - q for q in instr.qubits]
        if instr.name == "cx":
            c, t = axes
            flipped = np.flip(state, axis=t)
            index = [slice(None)] * num_qubits
            index[c] = 1
            state = state.copy()
            state[tuple(index)] = flipped[tuple(index)]
            continue
        theta = instr.params[0]
        if instr.name == "ry":
            m = np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                          [math.sin(theta / 2), math.cos(theta / 2)]])
        elif instr.name == "rz":
            m = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        else:
            raise ValueError(f"unsupported gate {instr.name!r}")
        state = np.moveaxis(np.tensordot(m, state, axes=([1], [axes[0]])),
                            0, axes[0])
    probs = np.abs(state.reshape(-1)) ** 2
    return {format(i, f"0{num_qubits}b"): float(p)
            for i, p in enumerate(probs) if p > 1e-15}


def check_ideal(ideal: Mapping[str, float],
                reference: Mapping[str, float]) -> None:
    """The program's noise-free QAOA distribution matches ours."""
    for key in set(ideal) | set(reference):
        if abs(ideal.get(key, 0.0) - reference.get(key, 0.0)) > 1e-9:
            _fail(f"ideal QAOA probability of {key} differs")


def check_qaoa(dist: Mapping[str, float], reference: Mapping[str, float],
               cross_entropy: float) -> None:
    """QAOA: the output is near the ideal distribution, and the reported
    cross entropy is the one of the output."""
    _check_distribution(list(dist.values()), "QAOA")
    total = sum(dist.values())
    tvd = 0.5 * sum(abs(dist.get(k, 0.0) / total - reference.get(k, 0.0))
                    for k in set(dist) | set(reference))
    if tvd > MAX_QAOA_TVD:
        _fail(f"QAOA output is {tvd:.3f} (TVD) from the ideal distribution")
    recomputed = -sum(p / total * math.log(max(reference.get(k, 0.0), 1e-12))
                      for k, p in dist.items() if p > 0)
    if not math.isclose(recomputed, cross_entropy, rel_tol=1e-9):
        _fail(f"cross entropy {cross_entropy!r} != recomputed {recomputed!r}")


def _check_distribution(values, what: str) -> None:
    values = np.asarray(list(values), dtype=float)
    if values.size == 0 or np.any(values < -1e-9) or \
            not math.isclose(values.sum(), 1.0, abs_tol=1e-6):
        _fail(f"{what}: output is not a probability distribution")
