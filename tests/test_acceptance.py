"""System-level acceptance: eight numbered requirements, each with pinned
tolerances and a runtime budget, printing one visible pass/fail line."""
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from qsalign.checks import (
    check_closed_form,
    check_end_to_end,
    check_initialisation,
    check_popcount,
)
from qsalign.cli import main
from qsalign.experiments import SweepConfig, fidelity_sweep, random_database
from qsalign.gasp import GaConfig, gasp_prepare, perturb_state
from qsalign.grover import success_probability
from qsalign.registers import database_state
from qsalign.simcore import Statevector


def _report(capsys, number, label, ok, detail, elapsed, budget=None):
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    with capsys.disabled():
        print(
            f"\ncriterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
            f" - {detail} [{elapsed:.1f}s{budget_note}]"
        )


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


def test_criterion_1_popcount_oracle_equivalence(capsys):
    t0 = time.time()
    result = check_popcount((3, 4, 5, 6))
    elapsed = time.time() - t0
    ok = result.ok and elapsed < 10
    _report(capsys, 1, "popcount oracle equivalence", ok, result.detail, elapsed, 10)
    assert result.ok, result.detail
    assert elapsed < 10


def test_criterion_2_initialisation_correctness(capsys):
    t0 = time.time()
    result = check_initialisation((3, 4, 5), per_size=50, seed=101)
    elapsed = time.time() - t0
    ok = result.ok and elapsed < 30
    _report(capsys, 2, "initialisation correctness", ok, result.detail, elapsed, 30)
    assert result.ok, result.detail
    assert elapsed < 30


def test_criterion_3_closed_form_agreement(capsys):
    t0 = time.time()
    result = check_closed_form((3, 4, 5), per_size=20, seed=202)
    # seven-entry single-match periodicity: probabilities repeat with
    # period about four layers, and one or two layers beat three or four
    probs = [success_probability(p, 7, 1) for p in range(9)]
    period_gap = max(abs(probs[p] - probs[p + 4]) for p in range(5))
    ordering = min(probs[1], probs[2]) > max(probs[3], probs[4])
    elapsed = time.time() - t0
    ok = result.ok and period_gap < 0.06 and ordering and elapsed < 60
    detail = f"{result.detail}; period gap {period_gap:.3f}"
    _report(capsys, 3, "closed-form agreement", ok, detail, elapsed, 60)
    assert result.ok, result.detail
    assert period_gap < 0.06
    assert ordering
    assert elapsed < 60


def test_criterion_4_end_to_end_optimality(capsys):
    t0 = time.time()
    result = check_end_to_end((3, 4, 5, 6), per_size=100, seed=404)
    elapsed = time.time() - t0
    ok = result.ok and elapsed < 600
    _report(capsys, 4, "end-to-end optimality", ok, result.detail, elapsed, 600)
    assert result.ok, result.detail
    assert elapsed < 600


def test_criterion_5_perturbation_calibration(capsys):
    t0 = time.time()
    requests = [round(0.05 * i, 2) for i in range(1, 21)]
    worst = 0.0
    for n in (3, 4, 5, 6):
        target = _random_state(n, seed=500 + n)
        for request in requests:
            perturbed, _ = perturb_state(target, request, seed=1000 * n + int(100 * request))
            achieved = abs(np.vdot(target.amplitudes, perturbed.amplitudes)) ** 2
            worst = max(worst, abs(achieved - request))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    detail = f"max |achieved - requested| {worst:.2e} over n=3..6 x {len(requests)} targets"
    _report(capsys, 5, "perturbation calibration", ok, detail, elapsed, 60)
    assert worst < 1e-4
    assert elapsed < 60


def test_criterion_6_synthesis_convergence(capsys):
    t0 = time.time()
    bell = Statevector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    hits = {}
    gate_counts = []
    cnot_counts = []
    for label, targets, needed in (
        ("bell", [bell] * 10, 8),
        ("n=3", [database_state(random_database(3, "floor", s)) for s in range(10)], 8),
        ("n=4", [database_state(random_database(4, "floor", s)) for s in range(10)], 6),
    ):
        converged = 0
        for seed, target in enumerate(targets):
            result = gasp_prepare(target, GaConfig(rng_seed=seed))
            if result.fidelity >= 0.99:
                converged += 1
                gate_counts.append(len(result.circuit.gates))
                # a synthesised circuit's controlled gates are its CNOTs
                cnot_counts.append(sum(1 for g in result.circuit.gates if g.controls))
        hits[label] = (converged, needed)
    elapsed = time.time() - t0
    ok = all(got >= needed for got, needed in hits.values()) and elapsed < 900
    detail = (
        ", ".join(f"{k}: {got}/10 (need {needed})" for k, (got, needed) in hits.items())
        + f"; median {int(np.median(gate_counts))} gates"
        + f" / {int(np.median(cnot_counts))} CNOT across converged runs"
    )
    _report(capsys, 6, "synthesis convergence", ok, detail, elapsed, 900)
    for label, (got, needed) in hits.items():
        assert got >= needed, f"{label}: {got}/10 below {needed}"
    assert elapsed < 900


def test_criterion_7_fidelity_sweep_trend(capsys):
    t0 = time.time()
    config = SweepConfig(
        qubit_sizes=(3, 4, 5, 6),
        fidelities=tuple(round(0.05 * i, 2) for i in range(1, 21)),
        trials_per_point=10,
        shots=4096,
        seed=0,
        db_size_rule="floor",
        layer_policy="paper_ceil",
    )
    result = fidelity_sweep(config, mode="fast")
    pooled = {}
    correlations = {}
    for n in config.qubit_sizes:
        rows = [r for r in result.summary if r.n == n]
        high = [r.mean_accuracy for r in rows if r.fidelity >= 0.8]
        pooled[n] = float(np.mean(high))
        rho, _ = spearmanr([r.fidelity for r in rows], [r.mean_accuracy for r in rows])
        correlations[n] = float(rho)
    elapsed = time.time() - t0
    ok = (
        all(v > 0.8 for v in pooled.values())
        and all(v > 0.5 for v in correlations.values())
        and elapsed < 1800
    )
    detail = ", ".join(
        f"n={n}: mean@fid>=0.8 {pooled[n]:.3f}, spearman {correlations[n]:.2f}"
        for n in config.qubit_sizes
    )
    _report(capsys, 7, "fidelity-sweep trend", ok, detail, elapsed, 1800)
    for n in config.qubit_sizes:
        assert pooled[n] > 0.8, f"n={n} pooled mean {pooled[n]}"
        assert correlations[n] > 0.5, f"n={n} spearman {correlations[n]}"
    assert elapsed < 1800


def test_criterion_8_determinism(capsys, tmp_path):
    t0 = time.time()
    db = tmp_path / "db.txt"
    db.write_text("101\n010\n")
    identical = []

    sweep = ["sweep", "--sizes", "3", "--fidelities", "0.5,1.0", "--trials", "2",
             "--shots", "256", "--seed", "5"]
    assert main(sweep + ["--out", str(tmp_path / "s1")]) == 0
    assert main(sweep + ["--out", str(tmp_path / "s2")]) == 0
    for name in ("records.jsonl", "summary.csv", "accuracy_n3.dat"):
        identical.append(
            (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()
        )

    for i, argv in enumerate((
        ["run", "--db", str(db), "--target", "100", "--seed", "9"],
        ["layers", "--n", "3", "--p-max", "2", "--shots", "256", "--seed", "4"],
    )):
        a, b = tmp_path / f"cmd{i}_a.txt", tmp_path / f"cmd{i}_b.txt"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        identical.append(a.read_bytes() == b.read_bytes())

    gasp = ["gasp", "--db", str(db), "--seed", "2"]
    assert main(gasp + ["--out", str(tmp_path / "g1.txt")]) == 0
    assert main(gasp + ["--out", str(tmp_path / "g2.txt")]) == 0
    identical.append(
        (tmp_path / "g1.txt").read_bytes() == (tmp_path / "g2.txt").read_bytes()
    )
    capsys.readouterr()

    elapsed = time.time() - t0
    ok = all(identical)
    detail = f"{sum(identical)}/{len(identical)} reruns byte-identical (sweep files, run, layers, gasp)"
    _report(capsys, 8, "determinism", ok, detail, elapsed)
    assert ok
