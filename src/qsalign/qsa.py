"""End-to-end minimum-distance search driver and its accuracy score.

The driver walks probe distances delta = 0, 1, ..., n, amplifies the
branches at each attempted delta, samples the full register, and accepts
the data-register value of the most frequent outcome once its classical
Hamming distance to the target equals the probe. Candidate verification is
classical and exact, so every returned (match, distance) pair is sound by
construction.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .grover import LAYER_POLICIES, OracleSpec, make_plan, search_circuit
from .registers import (
    Database,
    RegisterLayout,
    TargetSequence,
    exact_loader,
    hamming,
    initialisation_unitary,
)
from .simcore import Circuit, Statevector, run_circuit, sample_counts

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QsaConfig:
    """Knobs for one driver invocation.

    repeats is the number of sampling attempts at each probe distance
    before moving on. blind disables classical match counting: every delta
    is attempted with a single amplification layer.
    """

    shots: int = 4096
    repeats: int = 1
    layer_policy: str = "paper_ceil"
    rng_seed: int | None = None
    blind: bool = False

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.layer_policy not in LAYER_POLICIES:
            raise ValueError(f"unknown layer policy {self.layer_policy!r}")


@dataclass(frozen=True)
class QsaResult:
    match: str
    distance: int
    layers_used: int
    delta_trace: tuple[int, ...]
    counts: dict[str, int]
    accuracy: float
    degraded: bool = False


def classical_min_hamming(db: Database, target: TargetSequence) -> tuple[int, set[str]]:
    """Brute-force minimum distance and the set of entries attaining it."""
    distances = {e: hamming(e, target.bits) for e in db.entries}
    d_min = min(distances.values())
    return d_min, {e for e, d in distances.items() if d == d_min}


def count_matches(db: Database, target: TargetSequence, delta: int) -> int:
    """Number of database entries at Hamming distance exactly delta."""
    if not 0 <= delta <= db.n:
        raise ValueError(f"probe distance {delta} outside [0, {db.n}]")
    return sum(1 for e in db.entries if hamming(e, target.bits) == delta)


def accuracy(counts: dict[str, int], ideal: Statevector) -> float:
    """Cosine similarity between normalized counts and ideal probabilities.

    Both vectors live over all basis outcomes; outcomes absent from the
    histogram contribute zero. Scale-invariant in the counts.
    """
    if not counts:
        raise ValueError("counts histogram is empty")
    dim = 1 << ideal.num_qubits
    u = np.zeros(dim)
    for outcome, c in counts.items():
        if len(outcome) != ideal.num_qubits:
            raise ValueError(
                f"outcome {outcome!r} is not {ideal.num_qubits} bits wide"
            )
        u[int(outcome, 2)] = c
    total = u.sum()
    if total <= 0:
        raise ValueError("counts histogram sums to zero")
    u /= total
    v = ideal.probabilities()
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def _top_outcome(counts: dict[str, int]) -> str:
    """Most frequent outcome; ties broken toward the smallest bit string."""
    best = max(counts.values())
    return min(o for o, c in counts.items() if c == best)


def run_qsa(
    db_loader: Circuit,
    db: Database,
    target: TargetSequence,
    config: QsaConfig = QsaConfig(),
) -> QsaResult:
    """Search for the database entry nearest the target.

    Probes delta in increasing order, skipping values with zero classical
    matches unless config.blind. Accepts the first candidate whose true
    distance equals the probe. If every probe is exhausted the result is
    flagged degraded and carries the best database entry observed in any
    sample (the nearest entry overall if none was ever observed).

    The accuracy score compares the accepted attempt's histogram against
    the final statevector of the same circuit built on an exact database
    loader, so preparation infidelity lowers it.
    """
    layout = RegisterLayout(db.n)
    seed_root = np.random.SeedSequence(config.rng_seed)
    # refuses a loader or target of another width before any simulation
    prep = initialisation_unitary(db_loader, target, layout)
    entry_set = set(db.entries)

    delta_trace: list[int] = []
    best_entry: str | None = None
    best_entry_distance = db.n + 1
    last_counts: dict[str, int] = {}
    last_layers = 0
    last_delta = 0

    def finish(match, distance, layers, delta, counts, degraded):
        ideal_prep = initialisation_unitary(exact_loader(db), target, layout)
        ideal = run_circuit(search_circuit(ideal_prep, OracleSpec(delta, layout), layers))
        return QsaResult(
            match=match,
            distance=distance,
            layers_used=layers,
            delta_trace=tuple(delta_trace),
            counts=counts,
            accuracy=accuracy(counts, ideal),
            degraded=degraded,
        )

    for delta in range(db.n + 1):
        if config.blind:
            layers = 1
        else:
            c = count_matches(db, target, delta)
            if c == 0:
                continue
            layers = make_plan(db.size, c, config.layer_policy).layers
        final = run_circuit(search_circuit(prep, OracleSpec(delta, layout), layers))
        for _ in range(config.repeats):
            delta_trace.append(delta)
            counts = sample_counts(final, config.shots, seed_root.spawn(1)[0])
            last_counts, last_layers, last_delta = counts, layers, delta
            candidate = layout.data_bits(_top_outcome(counts))
            for outcome in counts:
                seen = layout.data_bits(outcome)
                if seen in entry_set:
                    d_seen = hamming(seen, target.bits)
                    if d_seen < best_entry_distance:
                        best_entry, best_entry_distance = seen, d_seen
            if hamming(candidate, target.bits) == delta:
                return finish(candidate, delta, layers, delta, counts, degraded=False)
        logger.debug("no acceptance at delta=%d after %d attempts", delta, config.repeats)

    if best_entry is None:
        best_entry = min(db.entries, key=lambda e: (hamming(e, target.bits), e))
        best_entry_distance = hamming(best_entry, target.bits)
    logger.warning(
        "probe distances exhausted; returning best observed entry at distance %d",
        best_entry_distance,
    )
    return finish(
        best_entry, best_entry_distance, last_layers, last_delta, last_counts, degraded=True
    )


def result_record(
    result: QsaResult,
    db: Database,
    target: TargetSequence,
    config: QsaConfig,
) -> dict:
    """One flat JSON-friendly record describing a finished run."""
    d_min, _ = classical_min_hamming(db, target)
    return {
        "n": db.n,
        "N": db.size,
        "target": target.bits,
        "d_min_classical": d_min,
        "match": result.match,
        "distance": result.distance,
        "layers": result.layers_used,
        "shots": config.shots,
        "accuracy": result.accuracy,
        "seed": config.rng_seed,
        "degraded": result.degraded,
    }
