"""Self-check suites behind the verify subcommand.

Each check returns a named pass/fail result with a one-line detail, so a
failure points at the component that broke rather than at a stack trace.
The quick level finishes in seconds; full adds the larger register sizes
and a Monte Carlo end-to-end optimality run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grover import (
    diffusion,
    grover_layer,
    marked_probability,
    phase_oracle,
    success_probability,
)
from .experiments import random_database, random_target
from .qsa import QsaConfig, classical_min_hamming, count_matches, run_qsa
from .registers import (
    RegisterLayout,
    entangler,
    exact_loader,
    hamming,
    initialisation_unitary,
    popcount_operator,
)
from .simcore import Statevector, apply_circuit, run_circuit


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


# the labels are fixed, so verify stays deterministic; any generic draw works
_LABEL_SEED = 0


def _permutation_error(circuit, inputs, images, rng) -> float:
    """Max amplitude error of one labelled run against a claimed basis map.

    Every input index gets its own random unit-modulus label, all in one
    state. The simulator is linear, so the output is the labelled sum of
    the inputs' images: a wrong image for any input leaves a nonzero error
    that generic labels cancel with probability zero, and each input is
    held to the same scale as a run on its basis state alone.
    """
    labels = np.exp(2j * np.pi * rng.random(len(inputs)))
    amps = np.zeros(1 << circuit.num_qubits, dtype=complex)
    amps[inputs] = labels
    out = apply_circuit(Statevector(circuit.num_qubits, amps), circuit)
    expected = np.zeros_like(amps)
    expected[images] = labels
    return float(np.abs(out.amplitudes - expected).max())


def check_popcount(sizes, operator_factory=popcount_operator) -> CheckResult:
    """Every |s>|0..0> maps to |s>|popcount(s)> exactly, exhaustively."""
    rng = np.random.default_rng(_LABEL_SEED)
    worst = 0.0
    for n in sizes:
        layout = RegisterLayout(n)
        s = np.arange(1 << n)
        weights = np.array([bin(v).count("1") for v in range(1 << n)])
        inputs = layout.pack_index(0, s, 0)
        images = layout.pack_index(0, s, weights)
        worst = max(worst, _permutation_error(operator_factory(layout), inputs, images, rng))
    ok = worst < 1e-12
    return CheckResult("popcount", ok, f"max amplitude error {worst:.2e} over n={list(sizes)}")


def check_entangler(sizes) -> CheckResult:
    """|d>|s> becomes |d>|s xor d> for every basis pair, exhaustively."""
    rng = np.random.default_rng(_LABEL_SEED)
    worst = 0.0
    for n in sizes:
        layout = RegisterLayout(n)
        d, s = np.divmod(np.arange(1 << (2 * n)), 1 << n)
        inputs = layout.pack_index(d, s, 0)
        images = layout.pack_index(d, s ^ d, 0)
        worst = max(worst, _permutation_error(entangler(layout), inputs, images, rng))
    ok = worst < 1e-12
    return CheckResult("entangler", ok, f"max amplitude error {worst:.2e} over n={list(sizes)}")


def check_initialisation(sizes, per_size: int, seed: int) -> CheckResult:
    """U|0..0> equals the analytic joint state on random instances."""
    rng = np.random.default_rng(seed)
    worst = 1.0
    for n in sizes:
        layout = RegisterLayout(n)
        for _ in range(per_size):
            db = random_database(n, "floor", rng)
            target = random_target(n, rng)
            state = run_circuit(initialisation_unitary(exact_loader(db), target, layout))
            expected = np.zeros(1 << layout.total, dtype=complex)
            for entry in db.entries:
                d = int(entry, 2)
                s = d ^ int(target.bits, 2)
                h = hamming(entry, target.bits)
                expected[layout.pack_index(d, s, h)] = 1 / np.sqrt(db.size)
            overlap = abs(np.vdot(expected, state.amplitudes)) ** 2
            worst = min(worst, overlap)
    ok = worst > 1 - 1e-10
    return CheckResult(
        "initialisation", ok, f"min fidelity {worst:.12f} over n={list(sizes)}"
    )


def check_closed_form(sizes, per_size: int, seed: int) -> CheckResult:
    """Marked probability tracks sin^2((2p+1) theta) through p = 8."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in sizes:
        layout = RegisterLayout(n)
        for _ in range(per_size):
            db = random_database(n, "floor", rng)
            target = random_target(n, rng)
            choices = [d for d in range(n + 1) if count_matches(db, target, d)]
            delta = int(choices[rng.integers(len(choices))])
            c = count_matches(db, target, delta)
            prep = initialisation_unitary(exact_loader(db), target, layout)
            layer = grover_layer(prep, phase_oracle(layout, delta))
            state = run_circuit(prep)
            for p in range(9):
                if p:  # a layer only between scores: no state past p = 8 is built
                    state = apply_circuit(state, layer)
                got = marked_probability(state, layout, delta)
                predicted = success_probability(p, db.size, c)
                worst = max(worst, abs(got - predicted))
    ok = worst < 1e-9
    return CheckResult(
        "closed-form", ok, f"max |simulated - predicted| {worst:.2e} over n={list(sizes)}"
    )


def check_reflections(n: int, seed: int) -> CheckResult:
    """Oracle and diffusion both square to the identity on random states."""
    rng = np.random.default_rng(seed)
    layout = RegisterLayout(n)
    db = random_database(n, "floor", rng)
    target = random_target(n, rng)
    prep = initialisation_unitary(exact_loader(db), target, layout)
    worst = 0.0
    for delta in (0, 1, n):
        amps = rng.normal(size=1 << layout.total) + 1j * rng.normal(size=1 << layout.total)
        amps /= np.linalg.norm(amps)
        state = Statevector(layout.total, amps)
        for circuit in (phase_oracle(layout, delta), diffusion(prep)):
            out = apply_circuit(apply_circuit(state, circuit), circuit)
            worst = max(worst, float(np.abs(out.amplitudes - amps).max()))
    ok = worst < 1e-10
    return CheckResult("reflections", ok, f"max involution error {worst:.2e} at n={n}")


def check_end_to_end(sizes, per_size: int, seed: int) -> CheckResult:
    """Returned distance equals the classical minimum in >= 95% of runs."""
    rng = np.random.default_rng(seed)
    rates = []
    for n in sizes:
        hits = 0
        for _ in range(per_size):
            db = random_database(n, "floor", rng)
            target = random_target(n, rng)
            d_min, _ = classical_min_hamming(db, target)
            config = QsaConfig(
                rng_seed=int(rng.integers(2**31)),
                layer_policy="best_integer",
                repeats=8,
            )
            result = run_qsa(exact_loader(db), db, target, config)
            hits += result.distance == d_min
        rates.append(hits / per_size)
    ok = all(rate >= 0.95 for rate in rates)
    detail = ", ".join(f"n={n}: {rate:.0%}" for n, rate in zip(sizes, rates))
    return CheckResult("end-to-end", ok, detail)


def run_checks(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verify level {level!r}")
    if level == "quick":
        return [
            check_popcount((3, 4)),
            check_entangler((3,)),
            check_initialisation((3, 4), per_size=10, seed=101),
            check_closed_form((3,), per_size=5, seed=202),
            check_reflections(3, seed=303),
        ]
    return [
        check_popcount((3, 4, 5, 6)),
        check_entangler((3, 4, 5, 6)),
        check_initialisation((3, 4, 5), per_size=25, seed=101),
        check_closed_form((3, 4, 5), per_size=10, seed=202),
        check_reflections(4, seed=303),
        check_end_to_end((3, 4), per_size=100, seed=404),
    ]
