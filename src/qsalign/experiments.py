"""Random instances, fidelity-calibrated loaders, and the two headline studies.

layer_study traces accuracy and marked-subspace probability as the layer
count grows on a fixed exact-match instance. fidelity_sweep measures how
alignment accuracy degrades as the database loader's preparation fidelity
drops, over fresh random instances per point, and persists raw records, a
summary, and per-size plot files whose bytes depend only on the seed.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import functools
import json
import logging
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .gasp import GaConfig, gasp_prepare
from .grover import LAYER_POLICIES, grover_layer, marked_probability, phase_oracle
from .qsa import QsaConfig, accuracy, classical_min_hamming, run_qsa
from .registers import (
    MAX_QUBITS,
    Database,
    RegisterLayout,
    TargetSequence,
    database_state,
    exact_loader,
    initialisation_unitary,
    state_preparation_circuit,
)
from .simcore import (
    Circuit,
    Statevector,
    apply_circuit,
    fidelity,
    run_circuit,
    sample_counts,
)

logger = logging.getLogger(__name__)

DEFAULT_FIDELITIES = tuple(round(0.05 * i, 2) for i in range(1, 21))


def check_size(n: int) -> None:
    """Refuse an entry width outside the [3, MAX_QUBITS] range the studies cover."""
    if not 3 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit size {n} outside [3, {MAX_QUBITS}]")


@dataclass(frozen=True)
class SweepConfig:
    qubit_sizes: tuple[int, ...] = (3, 4, 5, 6)
    fidelities: tuple[float, ...] = DEFAULT_FIDELITIES
    trials_per_point: int = 10
    shots: int = 4096
    seed: int = 0
    db_size_rule: str = "floor"
    layer_policy: str = "paper_ceil"

    def __post_init__(self):
        object.__setattr__(self, "qubit_sizes", tuple(self.qubit_sizes))
        object.__setattr__(self, "fidelities", tuple(self.fidelities))
        if not self.qubit_sizes:
            raise ValueError("at least one qubit size is required")
        if not self.fidelities:
            raise ValueError("fidelities must name at least one fidelity")
        if len(set(self.qubit_sizes)) != len(self.qubit_sizes):
            # a repeated size reruns its trials on the same trial seeds
            raise ValueError(f"qubit_sizes must be distinct, got {list(self.qubit_sizes)}")
        for n in self.qubit_sizes:
            check_size(n)
        for f in self.fidelities:
            if not 0.0 < f <= 1.0:
                raise ValueError(f"fidelity {f} outside (0, 1]")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.db_size_rule not in ("floor", "ceil"):
            raise ValueError(f"unknown db size rule {self.db_size_rule!r}")
        if self.layer_policy not in LAYER_POLICIES:
            raise ValueError(f"unknown layer policy {self.layer_policy!r}")
        # every file a sweep writes depends only on the seed, so it must be set
        if self.seed is None or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")


@dataclass(frozen=True)
class SweepRecord:
    """One trial's outcome; every result field is None when error is set.

    degraded is run_qsa's flag: the distance found is above the classical
    minimum, or is the fallback's after no probe accepted. optimal says
    whether it is the minimum, so every suboptimal trial is degraded.
    magnitude_fidelity is (sum_d |psi_d| |phi_d|)^2 between the database
    state and the loaded one: the part of achieved_fidelity the search can
    see, since no outcome probability depends on the loaded phases.
    """

    n: int
    N: int
    target_fidelity: float
    achieved_fidelity: float | None
    trial: int
    accuracy: float | None
    distance_found: int | None
    d_min_classical: int
    layers: int | None
    seed: int
    error: str | None = None
    degraded: bool | None = None
    optimal: bool | None = None
    magnitude_fidelity: float | None = None


@dataclass(frozen=True)
class SummaryRow:
    n: int
    N: int
    fidelity: float
    mean_accuracy: float
    std_accuracy: float
    trials: int
    suboptimal: int
    degraded: int


@dataclass(frozen=True)
class LayerPoint:
    p: int
    accuracy: float
    marked_probability: float


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]
    summary: tuple[SummaryRow, ...]


def database_size_for(n: int, rule: str = "floor") -> int:
    if rule == "floor":
        return (1 << n) // n
    if rule == "ceil":
        return -((1 << n) // -n)
    raise ValueError(f"unknown db size rule {rule!r}")


def random_database(n: int, rule: str, seed) -> Database:
    """Distinct uniform-random n-bit entries, count set by the size rule."""
    check_size(n)
    size = database_size_for(n, rule)
    rng = np.random.default_rng(seed)
    values = rng.choice(1 << n, size=size, replace=False)
    return Database(n, tuple(format(int(v), f"0{n}b") for v in values))


def random_target(n: int, seed) -> TargetSequence:
    """Uniform n-bit target, independent of any database."""
    check_size(n)
    rng = np.random.default_rng(seed)
    return TargetSequence(format(int(rng.integers(1 << n)), f"0{n}b"))


def layer_study(n: int, p_max: int, seed: int, shots: int = 4096) -> list[LayerPoint]:
    """Accuracy and marked probability for p = 0..p_max at a fixed instance.

    The instance has the target planted in the database so exactly one
    entry matches at distance zero. Accuracy is scored against the fully
    amplified reference (all probability on the matching branch), so it
    cycles with the layer count instead of saturating; the p = 0 row is
    the unamplified baseline. The p = 0 state is ``run_circuit`` of the
    preparation, and each later row applies one more layer to the last.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    root = np.random.SeedSequence([seed, n])
    db_seed, target_seed, *shot_seeds = root.spawn(3 + p_max)
    db = random_database(n, "ceil", db_seed)
    target = random_target(n, target_seed)
    if target.bits not in db.entries:
        db = Database(n, (target.bits,) + db.entries[1:])

    layout = RegisterLayout(n)
    loader = exact_loader(db)
    prep = initialisation_unitary(loader, target, layout)
    reference = {layout.pack_index(int(target.bits, 2), 0, 0): 1.0}

    layer = grover_layer(prep, phase_oracle(layout, 0))
    state = run_circuit(prep)
    points = []
    for p, shot_seed in enumerate(shot_seeds):
        if p:
            state = apply_circuit(state, layer)
        counts = sample_counts(state, shots, shot_seed)
        points.append(
            LayerPoint(p, accuracy(counts, reference), marked_probability(state, layout, 0))
        )
    return points


def sub_seed(*entropy: int) -> int:
    """Seed of an independent stream derived from a tuple of integers.

    ``sub_seed(seed, purpose)`` gives one purpose of a seed its own stream;
    a sweep trial's seed is ``sub_seed(master, n, fidelity_index, trial)``.
    """
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class PerturbationSpec:
    """Record of one perturbation: enough to rebuild it exactly.

    hermitian_seed is the seed perturb_state used; it keeps the name of the
    random-Hermitian model the closed form reproduces. epsilon = acos(sqrt(F)).
    """

    target_fidelity: float
    hermitian_seed: int
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.target_fidelity <= 1.0:
            raise ValueError("target_fidelity must lie in (0, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


def perturb_state(
    target: Statevector, target_fidelity: float, seed: int
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


def calibrated_loader(
    db: Database, target_fidelity: float, perturb_seed: int, ga_config: GaConfig | None = None
) -> Circuit:
    """Database loader whose fidelity to the database state is near a request.

    The database state is perturbed to the requested fidelity. With no
    ga_config the perturbed state is synthesized exactly, so the loader's
    infidelity is precisely the calibrated one; otherwise a circuit is
    evolved against it and inherits its synthesis gap.
    """
    perturbed, _ = perturb_state(database_state(db), target_fidelity, perturb_seed)
    if ga_config is None:
        return state_preparation_circuit(perturbed)
    return gasp_prepare(perturbed, ga_config).circuit


def run_sweep_trial(
    n: int,
    target_fidelity: float,
    trial_seed: int,
    trial: int,
    shots: int = 4096,
    db_size_rule: str = "floor",
    layer_policy: str = "paper_ceil",
    mode: str = "fast",
) -> SweepRecord:
    """One sweep point: fresh instance, calibrated loader, full search.

    fast mode synthesizes the perturbed database state exactly; full mode
    evolves its loader genetically (see calibrated_loader). Past the
    instance draw, a failure comes back as the record's error with no
    results, so one bad trial does not stop a sweep.
    """
    if mode not in ("fast", "full"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    db = random_database(n, db_size_rule, sub_seed(trial_seed, 0))
    target = random_target(n, sub_seed(trial_seed, 1))
    d_min, _ = classical_min_hamming(db, target)
    record = SweepRecord(
        n=n,
        N=db.size,
        target_fidelity=target_fidelity,
        achieved_fidelity=None,
        trial=trial,
        accuracy=None,
        distance_found=None,
        d_min_classical=d_min,
        layers=None,
        seed=trial_seed,
    )
    try:
        ga_config = GaConfig(rng_seed=sub_seed(trial_seed, 3)) if mode == "full" else None
        loader = calibrated_loader(db, target_fidelity, sub_seed(trial_seed, 2), ga_config)
        ideal, loaded = database_state(db), run_circuit(loader)
        achieved = fidelity(ideal, loaded)
        magnitude = fidelity(
            Statevector(n, np.abs(ideal.amplitudes)), Statevector(n, np.abs(loaded.amplitudes))
        )
        result = run_qsa(
            loader,
            db,
            target,
            QsaConfig(shots=shots, layer_policy=layer_policy, rng_seed=sub_seed(trial_seed, 4)),
        )
    except Exception as exc:
        return replace(record, error=f"{type(exc).__name__}: {exc}")
    return replace(
        record,
        achieved_fidelity=achieved,
        accuracy=result.accuracy,
        distance_found=result.distance,
        layers=result.layers_used,
        degraded=result.degraded,
        optimal=result.distance == d_min,
        magnitude_fidelity=magnitude,
    )


def summarize(records: tuple[SweepRecord, ...] | list[SweepRecord]) -> tuple[SummaryRow, ...]:
    """Accuracy mean and standard deviation per (n, fidelity) point.

    Each row also counts the point's trials that missed the classical
    minimum (suboptimal) and that run_qsa flagged degraded. Error
    records count in none of the row's figures.
    """
    groups: dict[tuple[int, float], list[SweepRecord]] = {}
    for r in records:
        groups.setdefault((r.n, r.target_fidelity), []).append(r)
    rows = []
    for (n, fid), group in sorted(groups.items()):
        done = [r for r in group if r.error is None]
        if not done:
            continue
        scores = [r.accuracy for r in done]
        rows.append(
            SummaryRow(
                n=n,
                N=group[0].N,
                fidelity=fid,
                mean_accuracy=float(np.mean(scores)),
                std_accuracy=float(np.std(scores)),
                trials=len(scores),
                suboptimal=sum(r.optimal is False for r in done),
                degraded=sum(r.degraded is True for r in done),
            )
        )
    return tuple(rows)


def fidelity_sweep(
    config: SweepConfig,
    mode: str = "fast",
    jobs: int = 1,
    progress=None,
) -> SweepResult:
    """Accuracy versus preparation fidelity over the configured grid.

    Every trial draws its own database, target, and perturbation from a
    seed derived from (master seed, n, fidelity index, trial), so results
    do not depend on execution order or worker count; records come back
    sorted by that same key and reruns return identical records.
    """
    if mode not in ("fast", "full"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    grid = [
        (n, target_fidelity, sub_seed(config.seed, n, fidelity_index, trial), trial)
        for n in config.qubit_sizes
        for fidelity_index, target_fidelity in enumerate(config.fidelities)
        for trial in range(config.trials_per_point)
    ]
    # looked up here, not at import, so a wrapper around the module's
    # run_sweep_trial sees every trial
    trial_fn = functools.partial(
        run_sweep_trial,
        shots=config.shots,
        db_size_rule=config.db_size_rule,
        layer_policy=config.layer_policy,
        mode=mode,
    )
    records: list[SweepRecord] = []
    # a forked pool starts every worker on its first task, so no more than
    # there are trials or cores
    workers = min(jobs, len(grid), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=workers))
            mapper = functools.partial(pool.map, chunksize=4)
        for record in mapper(trial_fn, *zip(*grid)):
            records.append(record)
            if progress is not None:
                progress(len(records), len(grid), record)
    for record in records:
        if record.error is not None:
            logger.warning(
                "trial failed (n=%d fidelity=%.2f trial=%d): %s",
                record.n, record.target_fidelity, record.trial, record.error,
            )
    return SweepResult(tuple(records), summarize(records))


def write_sweep_files(result: SweepResult, out_dir: str | Path) -> list[Path]:
    """records.jsonl + summary.csv + one plot-ready .dat file per size."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    records_path = out / "records.jsonl"
    with records_path.open("w") as fh:
        for r in result.records:
            fh.write(json.dumps(r.__dict__, separators=(",", ":")) + "\n")
    written.append(records_path)

    summary_path = out / "summary.csv"
    with summary_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "N", "fidelity", "mean_accuracy", "std_accuracy", "trials",
             "suboptimal", "degraded"]
        )
        for row in result.summary:
            writer.writerow(
                [row.n, row.N, repr(row.fidelity), repr(row.mean_accuracy),
                 repr(row.std_accuracy), row.trials, row.suboptimal, row.degraded]
            )
    written.append(summary_path)

    for n in sorted({row.n for row in result.summary}):
        plot_path = out / f"accuracy_n{n}.dat"
        with plot_path.open("w") as fh:
            fh.write("# fidelity mean_accuracy std_accuracy\n")
            for row in result.summary:
                if row.n == n:
                    fh.write(f"{row.fidelity!r} {row.mean_accuracy!r} {row.std_accuracy!r}\n")
        written.append(plot_path)
    return written
