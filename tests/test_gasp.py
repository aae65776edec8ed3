"""Genetic synthesis and fidelity-calibrated perturbation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import ks_2samp

from qsalign import gasp, simcore
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
from qsalign.simcore import (
    ROTATION_KINDS,
    Gate,
    Statevector,
    basis_state,
    cnot,
    fidelity,
    run_circuit,
    ry,
    rz,
)


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
    gates = [ry(0, 0.5), cnot(0, 1), rz(1, 1.25)]
    genome = Genome([gasp._gene(g) for g in gates])
    circuit = genome_circuit(genome, 2)
    assert circuit.num_qubits == 2
    assert circuit.gates == tuple(gates)
    # each gene's matrix bytes are the ones the batched scorer read
    assert [g._coefficients for g in circuit.gates] == [r[32:96] for r in genome.genes]
    with pytest.raises(ValueError):
        genome_circuit(genome, 1)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(ROTATION_KINDS)),
    st.integers(0, gasp.MAX_QUBITS - 1),
    st.floats(-4 * math.pi, 4 * math.pi),
    st.integers(0, gasp.MAX_QUBITS - 2),
)
def test_every_gene_carries_its_gates_bytes_and_reads_back_to_it(kind, qubit, angle, other):
    # a gene holds the 32 _select and 64 _coefficients bytes that the
    # batched scorer reads, then its angle and kind; genome_circuit builds
    # the very gate whose bytes those are
    control = other + (other >= qubit)
    template = gasp._ROTATION_TEMPLATES[kind, qubit]
    for gene, gate in (
        (template, Gate(kind, qubit, (), 0.0)),
        (gasp._reangle(template, angle), Gate(kind, qubit, (), angle)),
        (gasp._CNOTS[control, qubit], cnot(control, qubit)),
    ):
        assert len(gene) == 112
        assert gene[:96] == gate._select + gate._coefficients
        assert gasp._angle(gene) == (gate.angle or 0.0)
        assert gasp._gene(gate) == gene
        assert genome_circuit(Genome([gene]), gasp.MAX_QUBITS).gates == (gate,)


def test_evolution_builds_no_gate_but_the_returned_circuits(monkeypatch):
    # genes are packed bytes: breeding and scoring a generation build no Gate,
    # and only genome_circuit reads the archived best back, one Gate per gene
    built, reangled = [], []
    post_init, with_angle = Gate.__post_init__, Gate.with_angle

    def counted_post_init(gate):
        built.append(gate.kind)
        post_init(gate)

    def counted_with_angle(gate, angle):
        reangled.append(gate.kind)
        return with_angle(gate, angle)

    monkeypatch.setattr(Gate, "__post_init__", counted_post_init)
    monkeypatch.setattr(Gate, "with_angle", counted_with_angle)
    target = database_state(random_database(4, "floor", 0))
    result = gasp_prepare(target, GaConfig(rng_seed=0))
    assert result.generations == 1
    assert built == [g.kind for g in result.circuit.gates]
    assert reangled == []


def test_scoring_in_blocks_repeats_the_unblocked_synthesis(monkeypatch):
    # a budget of a few genes splits every generation into many blocks;
    # rows are independent, so the synthesis comes out the same to the bit
    target = database_state(random_database(3, "floor", 0))
    whole = gasp_prepare(target, GaConfig(rng_seed=0))
    monkeypatch.setattr(simcore, "_BLOCK_BYTES", 50 * (16 * 8 + 256))
    blocked = gasp_prepare(target, GaConfig(rng_seed=0))
    assert (blocked.fidelity, blocked.generations) == (whole.fidelity, whole.generations)
    assert blocked.circuit == whole.circuit


def _pinned_runs():
    """(fidelity, generations, converged) of the four seeded syntheses the tests pin."""
    bell = Statevector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    runs = [(bell, 0)] + [
        (database_state(random_database(n, "floor", s)), s) for n, s in ((3, 0), (4, 0), (4, 1))
    ]
    results = [gasp_prepare(target, GaConfig(rng_seed=s)) for target, s in runs]
    return [(r.fidelity, r.generations, r.converged) for r in results]


def _restart_run(monkeypatch):
    """(fidelity, generations, genomes drawn) of a seeded run that restarts once."""
    drawn = []

    def counted(*args):
        drawn.append(None)
        return random_genome(*args)

    random_genome = gasp._random_genome
    monkeypatch.setattr(gasp, "_random_genome", counted)
    floor_n4 = database_state(random_database(4, "floor", 3))
    result = gasp_prepare(floor_n4, GaConfig(rng_seed=3, max_generations=100))
    return result.fidelity, result.generations, len(drawn)


def test_gasp_trajectory_pinned():
    # fidelities of the seeded runs, exact to the last bit: a change to the
    # kernel's arithmetic, to the angle fit or to the order of the GA's
    # random draws shows here. The fit takes the first population's best
    # to the target at Bell; the benchmark's longest synthesis, n=4 seed
    # 1, converges at generation 112
    assert _pinned_runs() == [
        (float.fromhex("0x1.ffffffffffffep-1"), 0, True),
        (1.0, 2, True),
        (1.0, 1, True),
        (float.fromhex("0x1.ff87ebe405c3ep-1"), 112, True),
    ]


def test_gasp_trajectory_through_a_restart_pinned(monkeypatch):
    # the pins above never restart; this run stagnates once, so its fresh
    # population of random genomes (99 at the start, then 100 more) is
    # pinned with the rest
    assert _restart_run(monkeypatch) == (float.fromhex("0x1.b4fd01debd49fp-1"), 100, 199)


def test_without_the_angle_fit_every_synthesis_repeats_the_plain_search(monkeypatch):
    # the fitted genome never joins the population and the fit draws no
    # random numbers, so with the fit returning its genes unchanged, every
    # draw and generation is the plain search's: these are its pins, taken
    # before the fit was added
    monkeypatch.setattr(gasp, "_fit_angles", lambda genes, target: genes)
    assert _pinned_runs() == [
        (float.fromhex("0x1.fffe9f0413583p-1"), 5, True),
        (float.fromhex("0x1.fd534b173a48dp-1"), 18, True),
        (float.fromhex("0x1.fb1e8d71f7b03p-1"), 44, True),
        (float.fromhex("0x1.f78d731d3d3c8p-1"), 200, False),
    ]
    assert _restart_run(monkeypatch) == (float.fromhex("0x1.b2de12173390fp-1"), 100, 199)


def test_a_fitted_copy_that_scores_no_higher_is_discarded(monkeypatch):
    # a "fit" to the empty genome scores |<0|target>|^2 = 0.5 on the Bell
    # target, below every archived best, so the run is the plain search's
    monkeypatch.setattr(gasp, "_fit_angles", lambda genes, target: [])
    bell = Statevector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    result = gasp_prepare(bell, GaConfig(rng_seed=0))
    assert (result.fidelity, result.generations) == (float.fromhex("0x1.fffe9f0413583p-1"), 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_angle_fit_beats_every_grid_angle_and_never_lowers_fitness(n, seed):
    # the sweep fits gene k with the genes before it already fitted and
    # those after it as they were; given those, its closed-form angle must
    # score at least as high as every angle on a 64-point grid
    genes = gasp._random_genome(np.random.default_rng(seed), n).genes
    target = _random_state(n, seed)
    fitted = gasp._fit_angles(genes, target)
    assert len(fitted) == len(genes)
    grid = 2 * math.pi * np.arange(64) / 64
    for k, gene in enumerate(genes):
        if gasp._gene_gate(gene).kind not in ROTATION_KINDS:
            assert fitted[k] == gene
            continue
        assert fitted[k][:32] == gene[:32]
        angles = [gasp._angle(fitted[k]), *grid.tolist()]
        trials = [Genome(fitted[:k] + [gasp._reangle(gene, a)] + genes[k + 1 :]) for a in angles]
        gasp._score(trials, target)
        assert trials[0].fitness >= max(t.fitness for t in trials[1:]) - 1e-12
    before, after = Genome(genes), Genome(fitted)
    gasp._score([before, after], target)
    assert after.fitness >= before.fitness - 1e-12


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
    result = gasp_prepare(basis_state(2, 0), GaConfig(rng_seed=0))
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
    # the population, then the angle-fitted copy of its best, which scores
    # higher and is returned
    assert [len(fitnesses) for fitnesses in scored] == [100, 1]
    assert result.generations == 0
    assert max(scored[0]) < result.fidelity == scored[1][0]
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
    with pytest.raises(ValueError, match="a 9-qubit target"):
        gasp_prepare(basis_state(9, 0))
    # a 0-qubit target is refused before any draw, not inside numpy
    with pytest.raises(ValueError, match="1 to 8 qubits, got a 0-qubit target"):
        gasp_prepare(basis_state(0, 0))


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
    target = basis_state(3, 0)
    perturbed, spec = perturb_state(target, 1.0, seed=5)
    assert spec.epsilon == 0.0
    assert np.array_equal(perturbed.amplitudes, target.amplitudes)


def test_perturb_state_deterministic():
    target = basis_state(3, 0)
    a, spec_a = perturb_state(target, 0.7, seed=9)
    b, spec_b = perturb_state(target, 0.7, seed=9)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert spec_a == spec_b
    c, _ = perturb_state(target, 0.7, seed=10)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_perturb_state_validation():
    with pytest.raises(ValueError):
        perturb_state(basis_state(2, 0), 0.0, seed=1)
    with pytest.raises(ValueError):
        perturb_state(basis_state(2, 0), 1.1, seed=1)
    # a single amplitude has no orthogonal direction to move into
    with pytest.raises(ValueError):
        perturb_state(basis_state(0, 0), 0.5, seed=1)
    assert perturb_state(basis_state(0, 0), 1.0, seed=1)[0].amplitudes[0] == 1.0


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
