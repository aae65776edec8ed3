"""Genetic-algorithm circuit synthesis and fidelity-targeted perturbation.

Two ways to reach a state with a prescribed fidelity: evolve a gate list
whose output state matches a target (gasp_prepare), and mix a target state
with a random state orthogonal to it, in closed form, so that the overlap
with the original is exactly a requested value (perturb_state). Composing
the two yields database loaders with a tunable a-priori fidelity
(experiments.calibrated_loader).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .simcore import Circuit, Gate, Statevector, cnot, fidelity, run_circuit, run_sequences

logger = logging.getLogger(__name__)

# widest state gasp_prepare synthesises; the CLI and experiments.check_size
# hold database entries to the same width, which keeps the 2n + k qubit
# search register at 2^20 amplitudes or fewer
MAX_QUBITS = 8

_ROTATIONS = ("RX", "RY", "RZ")
# every gene a synthesis draws comes from these tables, built once: a
# rotation is its template re-angled by Gate.with_angle, which skips the
# constructor's validation, and a CNOT is immutable, so genomes share it
_ROTATION_TEMPLATES = {
    (kind, q): Gate(kind, q, (), 0.0) for kind in _ROTATIONS for q in range(MAX_QUBITS)
}
_CNOTS = {(c, t): cnot(c, t) for c in range(MAX_QUBITS) for t in range(MAX_QUBITS) if c != t}


@dataclass
class Genome:
    """A gate list under evolution.

    genes: the circuit's gates in order, single-qubit rotations and CNOTs.
    Gates are immutable, so children share their parents' gates and a
    mutation replaces a gene with a new gate rather than editing it.
    """

    genes: list[Gate]
    fitness: float | None = None


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 100
    max_generations: int = 200
    fidelity_target: float = 0.99
    rng_seed: int | None = None

    def __post_init__(self):
        if self.population_size <= _ELITISM_COUNT:
            raise ValueError(f"population_size must be > {_ELITISM_COUNT}, the elite count")
        # zero generations scores the first population and returns its best
        if self.max_generations < 0:
            raise ValueError("max_generations must be >= 0")
        if not 0.0 < self.fidelity_target <= 1.0:
            raise ValueError("fidelity_target must lie in (0, 1]")
        if self.rng_seed is not None and self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Record of one perturbation: enough to rebuild it exactly.

    hermitian_seed is the seed perturb_state used; it keeps the name of the
    random-Hermitian model the closed form reproduces. epsilon = acos(sqrt(F)).
    """

    target_fidelity: float
    hermitian_seed: int | None
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.target_fidelity <= 1.0:
            raise ValueError("target_fidelity must lie in (0, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


@dataclass(frozen=True)
class GaspResult:
    circuit: Circuit
    fidelity: float
    converged: bool
    generations: int


def genome_circuit(genome: Genome, num_qubits: int) -> Circuit:
    return Circuit(num_qubits, tuple(genome.genes))


def _coin_bound(p: float) -> int:
    """The bound under which a raw 64-bit draw's top 53 bits make a p-coin.

    On ``default_rng``'s PCG64, ``Generator.random()`` returns
    ``(raw >> 11) * 2**-53`` for the bit generator's next raw draw, so ``random() < p`` exactly when
    ``raw >> 11 < ceil(p * 2**53)``. Comparing the raw draw takes the same
    number from the stream without building the double.
    """
    return math.ceil(p * (1 << 53))


def _random_angle(rng: np.random.Generator) -> float:
    # exactly rng.uniform(0, 2 * math.pi), which computes low + (high - low) * random()
    return 0.0 + 2 * math.pi * rng.random()


def _random_rotation(rng: np.random.Generator, kind: str, qubit: int) -> Gate:
    return _ROTATION_TEMPLATES[kind, qubit].with_angle(_random_angle(rng))


def _random_gene(rng: np.random.Generator, num_qubits: int) -> Gate:
    # "CNOT" names a draw here, not a gate kind: it yields a one-control X
    kinds = _ROTATIONS + (("CNOT",) if num_qubits >= 2 else ())
    kind = kinds[rng.integers(len(kinds))]
    if kind == "CNOT":
        control = int(rng.integers(num_qubits))
        target = int(rng.integers(num_qubits - 1))
        if target >= control:
            target += 1
        return _CNOTS[control, target]
    return _random_rotation(rng, kind, int(rng.integers(num_qubits)))


def _layered_genome(rng: np.random.Generator, num_qubits: int) -> Genome:
    # rotation layer + CNOT chain, repeated: a generic preparation skeleton
    # whose angles the search then has to discover
    genes: list[Gate] = []
    for _ in range(int(rng.integers(1, 4))):
        for q in range(num_qubits):
            genes.append(_random_rotation(rng, "RY", q))
            genes.append(_random_rotation(rng, "RZ", q))
        for q in range(num_qubits - 1):
            genes.append(_CNOTS[q, q + 1])
    return Genome(genes[:_MAX_GENES])


def _random_genome(rng: np.random.Generator, num_qubits: int) -> Genome:
    if num_qubits >= 2 and rng.bit_generator.random_raw() >> 11 < _HALF_COIN:
        return _layered_genome(rng, num_qubits)
    length = int(rng.integers(1, min(_MAX_GENES, 4 * num_qubits) + 1))
    return Genome([_random_gene(rng, num_qubits) for _ in range(length)])


def _score(genomes: list[Genome], target: Statevector) -> None:
    """Set each genome's fitness, its output's fidelity to the target.

    One batched simulation covers every genome; each row's fitness is
    ``fidelity``'s own expression, |<row|target>|^2 clipped to 1, so it
    equals ``fidelity`` of ``run_circuit``'s output.
    """
    psi = target.amplitudes
    for genome, row in zip(genomes, run_sequences(target.num_qubits, [g.genes for g in genomes])):
        genome.fitness = float(min(1.0, abs(np.vdot(row, psi)) ** 2))


def _pick_parents(
    rng: np.random.Generator, population: list[Genome], rank: list[int], k: int = 5
) -> tuple[Genome, Genome]:
    """Two tournament winners, each the fittest of k uniform picks.

    rank[i] is genome i's place in fitness order. One call draws both
    tournaments' picks: numpy fills a bounded-integer array one draw after
    another, so this takes the same numbers as two calls of k each.
    """
    picks = rng.integers(len(population), size=2 * k).tolist()
    first, second = min(picks[:k], key=rank.__getitem__), min(picks[k:], key=rank.__getitem__)
    return population[first], population[second]


def _crossover(rng: np.random.Generator, a: Genome, b: Genome):
    ca = int(rng.integers(len(a.genes) + 1))
    cb = int(rng.integers(len(b.genes) + 1))
    child1 = a.genes[:ca] + b.genes[cb:]
    child2 = b.genes[:cb] + a.genes[ca:]
    return Genome(child1[:_MAX_GENES]), Genome(child2[:_MAX_GENES])


def _mutate(rng: np.random.Generator, genome: Genome, num_qubits: int):
    genes = genome.genes
    bound = _MUTATION_COIN
    raw = rng.bit_generator.random_raw
    normal = rng.standard_normal
    # angle polish is gentle, so it may run per gene; the destructive moves
    # (angle resample, whole-gene swap) fire at most once per genome each,
    # otherwise tuned parents rarely produce viable children; of the genes,
    # only rotations carry an angle. A polish step 0.0 + 0.1 * normal() is
    # exactly rng.normal(0.0, 0.1), which computes loc + scale * normal()
    for i, gene in enumerate(genes):
        if gene.angle is not None and raw() >> 11 < bound:
            genes[i] = gene.with_angle(gene.angle + (0.0 + 0.1 * normal()))
    if genes and raw() >> 11 < bound:
        i = int(rng.integers(len(genes)))
        if genes[i].kind in _ROTATIONS:
            genes[i] = genes[i].with_angle(_random_angle(rng))
    if genes and raw() >> 11 < bound:
        genes[int(rng.integers(len(genes)))] = _random_gene(rng, num_qubits)
    if len(genes) < _MAX_GENES and raw() >> 11 < bound:
        # grow structure without a fitness cliff: rotations enter near the
        # identity, CNOTs enter as an adjacent cancelling pair that later
        # mutations can pull apart
        position = int(rng.integers(len(genes) + 1))
        gene = _random_gene(rng, num_qubits)
        if gene.controls:  # only a CNOT gene has controls
            if len(genes) + 2 <= _MAX_GENES:
                genes.insert(position, gene)
                genes.insert(position, gene)
        else:
            genes.insert(position, gene.with_angle(0.0 + 0.1 * normal()))
    if genes and raw() >> 11 < bound:
        del genes[int(rng.integers(len(genes)))]


# fixed search settings: crossover and mutation chances per child, genomes
# carried over unchanged per generation, and the genome length cap
_CROSSOVER_RATE = 0.7
_MUTATION_RATE = 0.2
_ELITISM_COUNT = 2
_MAX_GENES = 64
_STAGNATION_LIMIT = 20
_STAGNATION_GAIN = 2e-3
# the coins' bounds on a raw draw (see _coin_bound): mutation, crossover,
# and a fresh genome's choice of the layered skeleton
_MUTATION_COIN = _coin_bound(_MUTATION_RATE)
_CROSSOVER_COIN = _coin_bound(_CROSSOVER_RATE)
_HALF_COIN = _coin_bound(0.5)


def gasp_prepare(target: Statevector, config: GaConfig = GaConfig()) -> GaspResult:
    """Evolve a circuit whose output approximates the target state.

    Tournament selection, single-point crossover on gene lists, per-gene
    mutation with structural insert/delete, elitism. Fitness is the exact
    statevector fidelity. The best genome ever seen is archived, and if
    the best fitness gains less than _STAGNATION_GAIN over
    _STAGNATION_LIMIT consecutive generations the population is
    considered trapped and restarts from fresh random genomes; the
    archive is what gets returned. converged is False if the fidelity
    target was not reached within max_generations.
    """
    n = target.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"synthesis supported up to {MAX_QUBITS} qubits")
    if abs(target.norm() - 1.0) > 1e-8:
        raise ValueError("target state must be normalized")
    rng = np.random.default_rng(config.rng_seed)

    population = [Genome([])]
    while len(population) < config.population_size:
        population.append(_random_genome(rng, n))
    _score(population, target)

    best = max(population, key=lambda g: g.fitness)
    anchor = best.fitness
    stagnant = 0
    generations = 0
    for generation in range(1, config.max_generations + 1):
        order = sorted(range(len(population)), key=lambda i: (-population[i].fitness, i))
        leader = population[order[0]]
        if leader.fitness > best.fitness:
            best = leader
        if leader.fitness > anchor + _STAGNATION_GAIN:
            anchor = leader.fitness
            stagnant = 0
        else:
            stagnant += 1
        if best.fitness >= config.fidelity_target:
            break
        generations = generation
        if stagnant >= _STAGNATION_LIMIT:
            population = [_random_genome(rng, n) for _ in range(config.population_size)]
            _score(population, target)
            # re-anchor below any fitness so the fresh climb is not judged
            # against the archived best it has yet to catch up with
            anchor = -1.0
            stagnant = 0
            continue
        survivors = [population[i] for i in order[:_ELITISM_COUNT]]
        rank = [0] * len(order)
        for place, i in enumerate(order):
            rank[i] = place
        children: list[Genome] = []
        while len(survivors) + len(children) < config.population_size:
            a, b = _pick_parents(rng, population, rank)
            if rng.bit_generator.random_raw() >> 11 < _CROSSOVER_COIN:
                c1, c2 = _crossover(rng, a, b)
            else:
                c1, c2 = Genome(list(a.genes)), Genome(list(b.genes))
            for child in (c1, c2):
                if len(survivors) + len(children) < config.population_size:
                    _mutate(rng, child, n)
                    children.append(child)
        # scoring draws no random numbers, so a generation's children are
        # all bred first and then simulated together
        _score(children, target)
        population = survivors + children

    final = max(population, key=lambda g: g.fitness)
    if final.fitness > best.fitness:
        best = final
    converged = best.fitness >= config.fidelity_target
    if not converged:
        logger.warning(
            "synthesis stopped at fidelity %.6f after %d generations (target %.6f)",
            best.fitness,
            generations,
            config.fidelity_target,
        )
    circuit = genome_circuit(best, n)
    # the batched fitness must equal the single-state simulation bit for bit
    reference = fidelity(run_circuit(circuit), target)
    if reference != best.fitness:
        raise RuntimeError(
            f"batched fitness {best.fitness!r} differs from run_circuit's {reference!r}"
        )
    return GaspResult(circuit, best.fitness, converged, generations)


def perturb_state(
    target: Statevector, target_fidelity: float, seed: int | None = None
) -> tuple[Statevector, PerturbationSpec]:
    """Return sqrt(F) psi + sqrt(1 - F) chi, chi Haar-random orthogonal to psi.

    |<psi|out>|^2 = F to rounding. GUE is unitarily invariant, so up to a
    global phase this is how psi evolved under a random GUE Hermitian is
    distributed once the evolution time brings its fidelity down to F.
    A seed whose draw is parallel to psi, so that only rounding noise is
    left of it once psi is projected out, raises ValueError.
    """
    if not 0.0 < target_fidelity <= 1.0:
        raise ValueError("target fidelity must lie in (0, 1]")
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1)[0])
    if target_fidelity == 1.0:
        return target.copy(), PerturbationSpec(1.0, seed, 0.0)
    if target.num_qubits == 0:
        raise ValueError("a 0-qubit state has no state orthogonal to it")
    psi = target.amplitudes
    rng = np.random.default_rng(seed)
    chi = rng.normal(size=psi.shape) + 1j * rng.normal(size=psi.shape)
    chi -= np.vdot(psi, chi) * psi
    chi /= np.linalg.norm(chi)
    if abs(np.vdot(psi, chi)) > 1e-12:
        raise ValueError(f"seed {seed} draws a direction parallel to the target state")
    out = math.sqrt(target_fidelity) * psi + math.sqrt(1.0 - target_fidelity) * chi
    spec = PerturbationSpec(target_fidelity, seed, math.acos(math.sqrt(target_fidelity)))
    return Statevector(target.num_qubits, out), spec
