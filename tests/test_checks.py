"""Self-check suites: pass on the real circuits, fail under fault injection."""
import pytest

import qsalign.checks as checks
from qsalign.checks import (
    check_closed_form,
    check_entangler,
    check_popcount,
    check_reflections,
    run_checks,
)
from qsalign.registers import popcount_operator
from qsalign.simcore import Circuit, Gate, cnot, mcx, ry, rz


def test_quick_level_all_pass():
    results = run_checks("quick")
    assert [r.name for r in results] == [
        "popcount",
        "entangler",
        "initialisation",
        "closed-form",
        "reflections",
    ]
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"
        assert r.detail


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_checks("exhaustive")


def test_popcount_fault_injection():
    # an operator that flips a hamming bit unconditionally is not a popcount;
    # the check must catch it rather than report a vacuous pass
    def corrupted(layout):
        from qsalign.registers import popcount_operator

        circuit = popcount_operator(layout)
        stray = Gate("X", (layout.total - 1,))
        return Circuit(circuit.num_qubits, circuit.gates + (stray,))

    result = check_popcount((3,), operator_factory=corrupted)
    assert result.ok is False


@pytest.mark.parametrize(
    "stray",
    [
        # a trailing rotation on a distance qubit moves no basis state to
        # the wrong place as a whole: it mixes (RY) or re-phases (RZ)
        # amplitudes, which the labelled run must still see
        lambda layout: ry(layout.distance[0], 0.3),
        lambda layout: rz(layout.distance[0], 0.3),
        # a flip on the one input s = 101 alone: the run covers every input
        lambda layout: mcx([(q, (5 >> j) & 1) for j, q in enumerate(layout.sample)],
                           layout.distance[0]),
    ],
    ids=["ry", "rz", "one-input"],
)
def test_popcount_fault_injection_mixing_rephasing_or_on_one_input(stray):
    def corrupted(layout):
        circuit = popcount_operator(layout)
        return Circuit(circuit.num_qubits, circuit.gates + (stray(layout),))

    result = check_popcount((3,), operator_factory=corrupted)
    assert result.ok is False


def test_entangler_fault_injection(monkeypatch):
    # control and target swapped: |d>|s> goes to |d xor s>|s>
    def swapped(layout):
        gates = tuple(cnot(layout.n + j, j) for j in range(layout.n))
        return Circuit(layout.total, gates)

    monkeypatch.setattr(checks, "entangler", swapped)
    result = check_entangler((3,))
    assert result.ok is False


def test_closed_form_applies_one_layer_per_scored_step(monkeypatch):
    # p = 0..8 are scored, so each instance applies its layer 8 times and
    # builds no state past the last one scored; the worst error is pinned
    # to its last bit
    applied, got, predicted = [], [], []

    def spy(record, fn):
        def wrapper(*args):
            record.append(fn(*args))
            return record[-1]
        return wrapper

    monkeypatch.setattr(checks, "apply_circuit", spy(applied, checks.apply_circuit))
    monkeypatch.setattr(checks, "marked_probability", spy(got, checks.marked_probability))
    monkeypatch.setattr(checks, "success_probability", spy(predicted, checks.success_probability))
    result = check_closed_form((3,), per_size=2, seed=11)
    assert len(applied) == 2 * 8
    worst = max(abs(g - p) for g, p in zip(got, predicted))
    assert worst == float.fromhex("0x1.f000000000000p-49")
    assert result.detail == "max |simulated - predicted| 3.44e-15 over n=[3]"


def test_individual_checks_report_details():
    assert "amplitude error" in check_popcount((3,)).detail
    assert "amplitude error" in check_entangler((3,)).detail
    assert "predicted" in check_closed_form((3,), per_size=2, seed=11).detail
    assert "involution" in check_reflections(3, seed=12).detail
