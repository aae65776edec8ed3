"""Sequence encoding and construction of the alignment initialisation circuit.

The full register is laid out as three blocks over ``2n + k`` qubits,
``k = ceil(log2(n + 1))``:

- data register, qubits ``[0, n)``: holds database entries in superposition
- sample register, qubits ``[n, 2n)``: holds the target, later XORed in place
- distance register, qubits ``[2n, 2n + k)``: holds the per-branch Hamming
  distance as a k-bit number

A full-register basis index, and so a measurement outcome, is
``data | sample << n | distance << 2n`` (``RegisterLayout.pack_index``).
Bit strings enter only as entries and targets, and read most-significant
bit first: "101" is the value 5, and its rightmost bit sits on the
block's lowest qubit.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .simcore import (
    Circuit,
    Gate,
    Statevector,
    cnot,
    concat,
    x,
)

logger = logging.getLogger(__name__)

_ZERO_PROB = 1e-14


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol set; symbols map to their position as a fixed-width code."""

    letters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if len(self.letters) < 2:
            raise ValueError("alphabet needs at least 2 letters")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")

    @property
    def bits_per_letter(self) -> int:
        return math.ceil(math.log2(len(self.letters)))

    def code(self, letter: str) -> str:
        try:
            i = self.letters.index(letter)
        except ValueError:
            raise ValueError(f"symbol {letter!r} not in alphabet {self.letters}") from None
        return format(i, f"0{self.bits_per_letter}b")


def encode_sequence(text: str, alphabet: Alphabet) -> str:
    """Concatenate the per-symbol codes; '' encodes to ''."""
    return "".join(alphabet.code(ch) for ch in text)


def _check_bits(s: str, what: str) -> None:
    if not s or set(s) - {"0", "1"}:
        raise ValueError(f"{what} must be a nonempty 0/1 string, got {s!r}")


@dataclass(frozen=True)
class Database:
    """Distinct n-bit strings to align against."""

    n: int
    entries: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("database must contain at least one entry")
        for e in self.entries:
            _check_bits(e, "database entry")
            if len(e) != self.n:
                raise ValueError(f"entry {e!r} is not {self.n} bits wide")
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("database entries must be distinct")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_bitstrings(cls, entries: Iterable[str]) -> "Database":
        """Database as wide as its first entry; duplicates collapse, with a warning."""
        entries = list(entries)
        distinct = tuple(dict.fromkeys(entries))
        if len(distinct) < len(entries):
            logger.warning("collapsed %d duplicate database entries", len(entries) - len(distinct))
        if not distinct:
            raise ValueError("cannot infer width from an empty entry list")
        return cls(len(distinct[0]), distinct)


@dataclass(frozen=True)
class TargetSequence:
    """The n-bit string to align the database against."""

    bits: str

    def __post_init__(self):
        _check_bits(self.bits, "target sequence")

    @property
    def n(self) -> int:
        return len(self.bits)


def hamming(a: str, b: str) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {a!r} vs {b!r}")
    return sum(p != q for p, q in zip(a, b))


@dataclass(frozen=True)
class RegisterLayout:
    """Index bookkeeping for the data / sample / distance blocks."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("data width must be >= 1")

    @property
    def k(self) -> int:
        return math.ceil(math.log2(self.n + 1))

    @property
    def total(self) -> int:
        return 2 * self.n + self.k

    @property
    def data(self) -> range:
        return range(0, self.n)

    @property
    def sample(self) -> range:
        return range(self.n, 2 * self.n)

    @property
    def distance(self) -> range:
        return range(2 * self.n, 2 * self.n + self.k)

    def pack_index(self, data_index: int, sample_index: int, distance_index: int) -> int:
        return data_index | (sample_index << self.n) | (distance_index << (2 * self.n))

    def data_index(self, index: int) -> int:
        return index & ((1 << self.n) - 1)


def database_state(db: Database) -> Statevector:
    """Uniform superposition over the database entries, on n qubits."""
    amps = np.zeros(1 << db.n, dtype=np.complex128)
    amps[[int(e, 2) for e in db.entries]] = 1.0 / math.sqrt(db.size)
    return Statevector(db.n, amps)


def state_preparation_circuit(state: Statevector) -> Circuit:
    """Exact circuit mapping |0...0> to the given state, up to global phase.

    Magnitudes come from a tree of prefix-controlled RY rotations (one
    multiplexor level per qubit, most-significant first); amplitude phases,
    if any, from a tree of prefix-controlled RZ gates. Gate count is linear
    in the number of nonzero amplitude branches, at most 2^(n+1).
    """
    n = state.num_qubits
    amps = state.amplitudes
    probs = np.abs(amps) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"state is not normalized (sum of probabilities {total})")

    gates: list[Gate] = []
    for j in range(n - 1, -1, -1):
        # marginal[v] = (P(top bits = v, bit j = 0), the same at bit j = 1),
        # lower bits summed out
        marginal = probs.reshape(1 << (n - 1 - j), 2, 1 << j).sum(axis=2).tolist()
        for v, (p0, p1) in enumerate(marginal):
            if p0 + p1 <= _ZERO_PROB or p1 <= _ZERO_PROB:
                continue
            theta = 2.0 * math.atan2(math.sqrt(p1), math.sqrt(p0))
            gates.append(_tree_gate("RY", n, j, v).with_angle(theta))

    phases = np.where(np.abs(amps) > 1e-12, np.angle(amps), 0.0)
    if np.max(np.abs(phases)) > 1e-12:
        level = phases.copy()
        for j in range(n):
            pairs = level.reshape(-1, 2)
            for v, delta in enumerate((pairs[:, 1] - pairs[:, 0]).tolist()):
                if abs(delta) > 1e-12:
                    gates.append(_tree_gate("RZ", n, j, v).with_angle(delta))
            level = pairs.mean(axis=1)  # common phase, pushed one level up

    return Circuit(n, tuple(gates))


# a tree rotation is fixed by its level and prefix up to its angle, so each
# is validated once, at angle 0, and re-angled for every state after that;
# a width has at most 2^n - 1 of each kind
@functools.lru_cache(maxsize=None)
def _tree_gate(kind: str, n: int, j: int, v: int) -> Gate:
    """Rotation on qubit j, controlled by the n-1-j qubits above it at prefix v."""
    controls = [(j + 1 + t, (v >> t) & 1) for t in range(n - 1 - j)]
    return Gate(kind, j, controls, 0.0)


def exact_loader(db: Database) -> Circuit:
    """Circuit preparing the database superposition exactly from |0...0>."""
    return state_preparation_circuit(database_state(db))


def target_loader(target: TargetSequence, layout: RegisterLayout) -> Circuit:
    """X gates writing the target into the sample register."""
    if target.n != layout.n:
        raise ValueError(f"target is {target.n} bits but layout expects {layout.n}")
    gates = []
    for j in range(layout.n):
        # character position n-1-j of the bitstring lands on sample qubit n+j
        if target.bits[layout.n - 1 - j] == "1":
            gates.append(x(layout.n + j))
    return Circuit(layout.total, tuple(gates))


# the layout-fixed circuits are built once per layout: keys are frozen
# layouts, few in any run, and a Circuit is immutable
@functools.lru_cache(maxsize=None)
def entangler(layout: RegisterLayout) -> Circuit:
    """CNOTs from each data qubit onto its sample partner: |d>|s> -> |d>|s XOR d>."""
    gates = [cnot(j, layout.n + j) for j in range(layout.n)]
    return Circuit(layout.total, tuple(gates))


@functools.lru_cache(maxsize=None)
def popcount_operator(layout: RegisterLayout) -> Circuit:
    """Writes popcount(sample) into the distance register.

    One controlled +1 incrementer per sample qubit, each a descending
    carry-style chain of controlled X gates. Assumes the distance
    register starts in |0>^k; the count never overflows since
    popcount <= n < 2^k. A carry into bit m needs the count's low m bits
    all 1, so a count of at least 2^m - 1. Before the i-th incrementer
    (i from 1) the count is at most i - 1, so that happens only where
    2^m <= i, and each chain stops below bit i.bit_length(): the operator
    has sum_i min(k, bitlen(i)) gates instead of n k. That is exact on
    every |s, 0> input, the only inputs the search gives it; on a nonzero
    count it is some other permutation.
    """
    gates = []
    dist = list(layout.distance)
    for i, s in enumerate(layout.sample, start=1):
        for m in range(min(layout.k, i.bit_length()) - 1, -1, -1):
            controls = [(s, 1)] + [(dist[t], 1) for t in range(m)]
            gates.append(x(dist[m], controls))
    return Circuit(layout.total, tuple(gates))


def initialisation_unitary(
    db_loader: Circuit, target: TargetSequence, layout: RegisterLayout
) -> Circuit:
    """Full state preparation: target load, database load, XOR, popcount.

    ``db_loader`` acts on the n data qubits; it may prepare the database
    superposition exactly or approximately (a synthesized loader). The
    target load acts on the sample qubits alone, so it commutes with the
    loader; it comes first so that ``grover.diffusion`` can fold its X
    gates into the reflection's sign flip.
    """
    if db_loader.num_qubits != layout.n:
        raise ValueError(
            f"database loader acts on {db_loader.num_qubits} qubits, layout expects {layout.n}"
        )
    embedded = Circuit(layout.total, db_loader.gates)
    return concat(
        target_loader(target, layout),
        embedded,
        entangler(layout),
        popcount_operator(layout),
    )


def loaded_state(
    db_loader: Circuit, target: TargetSequence, layout: RegisterLayout, loaded: Statevector
) -> tuple[Statevector, int]:
    """The state ``initialisation_unitary``'s target load and loader leave on |0...0>.

    ``loaded`` is ``run_circuit(db_loader)``, on the loader's own n qubits.
    The target load writes |0, t, 0>, and the loader then acts on the data
    qubits alone, so the state is zero outside the 2^n amplitudes from
    ``pack_index(0, t, 0)`` on, which hold ``loaded``. Each of the kernel's
    updates on the full register repeats its n-qubit arithmetic on that
    block and leaves zeros elsewhere, so the state equals the gate-by-gate
    one, up to the sign of a zero. Returns the state and how many leading
    gates of ``initialisation_unitary(db_loader, target, layout)`` it
    stands for.
    """
    if target.n != layout.n:
        raise ValueError(f"target is {target.n} bits but layout expects {layout.n}")
    if not db_loader.num_qubits == loaded.num_qubits == layout.n:
        raise ValueError(
            f"loader on {db_loader.num_qubits} qubits and loaded state on "
            f"{loaded.num_qubits}, layout expects {layout.n}"
        )
    amps = np.zeros(1 << layout.total, dtype=np.complex128)
    start = layout.pack_index(0, int(target.bits, 2), 0)
    amps[start:start + (1 << layout.n)] = loaded.amplitudes
    # target_loader writes one X gate per 1 bit
    return Statevector(layout.total, amps), target.bits.count("1") + len(db_loader.gates)
