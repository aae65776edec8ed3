"""Genetic synthesis and fidelity-calibrated perturbation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import ks_2samp

from qsalign import gasp
from qsalign.gasp import (
    GaConfig,
    Genome,
    PerturbationSpec,
    gasp_prepare,
    genome_circuit,
    perturb_state,
)
from qsalign.experiments import random_database
from qsalign.registers import database_state
from qsalign.simcore import Statevector, cnot, fidelity, run_circuit, ry, rz, zero_state


def test_config_validation():
    GaConfig()
    # a population must hold the two elites and at least one child
    GaConfig(population_size=3)
    for size in (0, 2):
        with pytest.raises(ValueError):
            GaConfig(population_size=size)
    with pytest.raises(ValueError):
        GaConfig(fidelity_target=0.0)
    GaConfig(max_generations=0)
    with pytest.raises(ValueError):
        GaConfig(max_generations=-1)


def test_config_refuses_a_negative_seed():
    GaConfig(rng_seed=None)
    GaConfig(rng_seed=0)
    with pytest.raises(ValueError, match="rng_seed"):
        GaConfig(rng_seed=-1)


def test_genome_circuit_mapping():
    genes = [ry(0, 0.5), cnot(0, 1), rz(1, 1.25)]
    circuit = genome_circuit(Genome(genes), 2)
    assert circuit.num_qubits == 2
    assert circuit.gates == tuple(genes)
    assert all(built is gene for built, gene in zip(circuit.gates, genes))
    with pytest.raises(ValueError):
        genome_circuit(Genome(genes), 1)


def test_gasp_trajectory_pinned():
    # fidelities of the seeded runs, exact to the last bit: a change to the
    # kernel's arithmetic or to the order of the GA's random draws shows here
    bell = Statevector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    result = gasp_prepare(bell, GaConfig(rng_seed=0))
    assert (result.fidelity, result.generations) == (float.fromhex("0x1.fffe9f0413583p-1"), 5)
    floor_n3 = database_state(random_database(3, "floor", 0))
    result = gasp_prepare(floor_n3, GaConfig(rng_seed=0))
    assert (result.fidelity, result.generations) == (float.fromhex("0x1.fd534b173a48dp-1"), 18)
    floor_n4 = database_state(random_database(4, "floor", 0))
    result = gasp_prepare(floor_n4, GaConfig(rng_seed=0))
    assert (result.fidelity, result.generations) == (float.fromhex("0x1.fb1e8d71f7b03p-1"), 44)
    # the benchmark's longest synthesis: all 200 generations, short of the target
    floor_n4 = database_state(random_database(4, "floor", 1))
    result = gasp_prepare(floor_n4, GaConfig(rng_seed=1))
    assert (result.fidelity, result.generations) == (float.fromhex("0x1.f78d731d3d3c8p-1"), 200)
    assert result.converged is False


def test_gasp_trajectory_through_a_restart_pinned(monkeypatch):
    # the pins above converge by generation 44 without ever restarting;
    # this run stagnates once, so its fresh population of random genomes
    # (99 at the start, then 100 more) is pinned with the rest
    drawn = []

    def counted(*args):
        drawn.append(None)
        return random_genome(*args)

    random_genome = gasp._random_genome
    monkeypatch.setattr(gasp, "_random_genome", counted)
    floor_n4 = database_state(random_database(4, "floor", 3))
    result = gasp_prepare(floor_n4, GaConfig(rng_seed=3, max_generations=100))
    assert (result.fidelity, result.generations) == (float.fromhex("0x1.b2de12173390fp-1"), 100)
    assert len(drawn) == 199


def test_mutation_draws_repeat_the_generator_calls_they_replace():
    # the GA reads its coins off raw 64-bit draws and scales standard draws
    # itself; on one seeded stream each must take the same numbers, and give
    # the same result to the last bit, as the Generator call it stands for
    fast, plain = np.random.default_rng(2024), np.random.default_rng(2024)
    raw = fast.bit_generator.random_raw
    bounds = {p: gasp._coin_bound(p) for p in (0.2, 0.5, 0.7)}
    for p, bound in bounds.items():
        # random() is k * 2**-53: k = bound - 1 is the largest under p
        assert (bound - 1) * 2.0**-53 < p <= bound * 2.0**-53
    for _ in range(100_000):
        for p, bound in bounds.items():
            assert (raw() >> 11 < bound) == (plain.random() < p)
        polish = 0.0 + 0.1 * fast.standard_normal()
        assert polish.hex() == float(plain.normal(0.0, 0.1)).hex()
        angle = gasp._random_angle(fast)
        assert angle.hex() == float(plain.uniform(0, 2 * math.pi)).hex()
    assert fast.bit_generator.state == plain.bit_generator.state


def test_gasp_checks_batched_fitness_against_run_circuit(monkeypatch):
    bell = Statevector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))

    def off_by_a_phase_flip(circuit):
        out = run_circuit(circuit)
        out.amplitudes[3] *= -1
        return out

    monkeypatch.setattr(gasp, "run_circuit", off_by_a_phase_flip)
    with pytest.raises(RuntimeError):
        gasp_prepare(bell, GaConfig(rng_seed=0))


def test_gasp_trivial_target_converges_immediately():
    result = gasp_prepare(zero_state(2), GaConfig(rng_seed=0))
    assert result.converged
    assert result.fidelity == 1.0
    assert result.generations == 0  # the seeded empty genome already wins


def test_zero_generations_returns_the_first_population_best(monkeypatch):
    scored = []
    score = gasp._score

    def spy(genomes, target):
        score(genomes, target)
        scored.append([g.fitness for g in genomes])

    monkeypatch.setattr(gasp, "_score", spy)
    target = database_state(random_database(3, "floor", 0))
    result = gasp_prepare(target, GaConfig(max_generations=0, rng_seed=0))
    assert len(scored) == 1 and len(scored[0]) == 100
    assert result.generations == 0
    assert result.fidelity == max(scored[0])
    assert not result.converged


def test_gasp_bell_state():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    result = gasp_prepare(Statevector(2, amps), GaConfig(rng_seed=1))
    assert result.converged
    assert result.fidelity >= 0.99
    assert fidelity(run_circuit(result.circuit), Statevector(2, amps)) == result.fidelity
    # a Bell loader should stay far from the reference budget of dozens of gates
    assert len(result.circuit.gates) < 30


def test_gasp_validation():
    with pytest.raises(ValueError):
        gasp_prepare(Statevector(2, np.array([1, 1, 0, 0], dtype=complex)))
    with pytest.raises(ValueError):
        gasp_prepare(zero_state(9))


def test_perturbation_spec_validation():
    PerturbationSpec(0.5, 1, 0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(0.0, 1, 0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(1.2, 1, 0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(0.5, 1, -0.1)


def test_perturb_state_hits_requested_fidelity():
    rng = np.random.default_rng(31)
    for n in (2, 3):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        target = Statevector(n, amps)
        for requested in (0.9, 0.5, 0.12):
            perturbed, spec = perturb_state(target, requested, seed=77)
            assert abs(fidelity(perturbed, target) - requested) < 1e-12
            assert np.isclose(perturbed.norm(), 1.0)
            assert spec.target_fidelity == requested
            assert spec.epsilon > 0


def test_perturb_state_identity_at_full_fidelity():
    target = zero_state(3)
    perturbed, spec = perturb_state(target, 1.0, seed=5)
    assert spec.epsilon == 0.0
    assert np.array_equal(perturbed.amplitudes, target.amplitudes)


def test_perturb_state_deterministic():
    target = zero_state(3)
    a, spec_a = perturb_state(target, 0.7, seed=9)
    b, spec_b = perturb_state(target, 0.7, seed=9)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert spec_a == spec_b
    c, _ = perturb_state(target, 0.7, seed=10)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_perturb_state_validation():
    with pytest.raises(ValueError):
        perturb_state(zero_state(2), 0.0, seed=1)
    with pytest.raises(ValueError):
        perturb_state(zero_state(2), 1.1, seed=1)
    # a single amplitude has no orthogonal direction to move into
    with pytest.raises(ValueError):
        perturb_state(zero_state(0), 0.5, seed=1)
    assert perturb_state(zero_state(0), 1.0, seed=1)[0].amplitudes[0] == 1.0


def test_perturb_state_refuses_a_draw_parallel_to_the_target():
    # each target is the very Gaussian draw chi starts from, so projecting
    # psi out leaves only rounding noise; unchecked, n=1 and seed 0 gave a
    # state of norm 1.40 and fidelity 1.96 at a request of 0.5
    for n in (1, 2, 3, 5):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            target = Statevector(n, amps / np.linalg.norm(amps))
            with pytest.raises(ValueError, match=f"seed {seed} "):
                perturb_state(target, 0.5, seed)


def _random_state(n, seed):
    # uniform, not Gaussian, draws: with seed equal to perturb_state's, the
    # same Gaussian draws would make chi parallel to the target
    re, im = np.random.default_rng(seed).uniform(-1, 1, size=(2, 1 << n))
    amps = re + 1j * im
    return Statevector(n, amps / np.linalg.norm(amps))


def _check_perturbation(n, requested, seed, state_seed):
    target = _random_state(n, state_seed)
    out, spec = perturb_state(target, requested, seed)
    assert abs(abs(np.vdot(target.amplitudes, out.amplitudes)) ** 2 - requested) <= 1e-12
    assert abs(out.norm() - 1.0) <= 1e-12
    assert np.array_equal(out.amplitudes, perturb_state(target, requested, seed)[0].amplitudes)
    assert not np.array_equal(out.amplitudes, perturb_state(target, requested, seed + 1)[0].amplitudes)
    assert spec.hermitian_seed == seed
    assert spec.epsilon == math.acos(math.sqrt(requested))


# n is parametrised: drawn from 1..10 under the derandomised profile, half
# of 100 examples landed on n=1 and n=4 and n=5 came up once each
@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=10)
@given(
    requested=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**63),
    state_seed=st.integers(0, 2**32),
)
def test_perturb_state_exact_calibration(n, requested, seed, state_seed):
    _check_perturbation(n, requested, seed, state_seed)


def test_perturb_state_exact_calibration_14_qubits():
    # the width of a 7-symbol DNA entry, where a dense 2^14 x 2^14
    # generator would take 4 GiB
    _check_perturbation(14, 0.37, 2024, 14)


def _gue_perturbation(psi, requested, rng):
    """The random-Hermitian model perturb_state reproduces in distribution.

    Evolves psi under (A + A^dagger)/2, A complex Gaussian, for the epsilon
    at which the fidelity falls to the request: brentq on the first bracket
    of a doubling scan from 1e-3. A generator whose fidelity is still above
    the request at epsilon = 1e6 is redrawn.
    """
    dim = psi.size
    while True:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w, basis = np.linalg.eigh((a + a.conj().T) / 2)
        coeffs = basis.conj().T @ psi
        weights = np.abs(coeffs) ** 2

        def excess(eps):
            return abs(np.sum(weights * np.exp(-1j * eps * w))) ** 2 - requested

        lo, hi = 0.0, 1e-3
        while hi <= 1e6 and excess(hi) > 0:
            lo, hi = hi, 2 * hi
        if hi <= 1e6:
            return basis @ (np.exp(-1j * brentq(excess, lo, hi, xtol=1e-14) * w) * coeffs)


def test_perturb_state_matches_gue_model_in_distribution():
    # phase-blind statistics, since the two models differ by a global
    # phase: the probability of an index outside the database, of an entry,
    # and the largest probability
    target = database_state(random_database(3, "floor", 0))
    outside = int(np.argmin(target.probabilities()))
    entry = int(np.argmax(target.probabilities()))
    draws = 600
    rng = np.random.default_rng(606)
    for requested in (0.9, 0.5, 0.2):
        closed = np.array(
            [perturb_state(target, requested, seed)[0].probabilities() for seed in range(draws)]
        )
        gue = np.abs([_gue_perturbation(target.amplitudes, requested, rng) for _ in range(draws)]) ** 2
        for stat in (lambda p: p[:, outside], lambda p: p[:, entry], lambda p: p.max(axis=1)):
            assert ks_2samp(stat(closed), stat(gue)).pvalue >= 0.01
