"""Dense statevector simulator: gates, circuits, sampling, fidelity.

Conventions used throughout the package:

- Qubit 0 is the least-significant bit of the basis-state index, and a
  measurement outcome is that index.
- Global phase is never observable; state comparisons go through
  ``fidelity`` rather than amplitude equality.

Statevectors and circuits are plain values. Every operation returns a new
object and never mutates its inputs, so independent instances can be used
concurrently without coordination.
"""
from __future__ import annotations

import ast
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby
from math import cos, sin
from operator import attrgetter

import numpy as np

ROTATION_KINDS = frozenset({"RX", "RY", "RZ"})
# X permutes amplitudes, Z flips signs, the rest mix; every kind takes controls
GATE_KINDS = frozenset({"X", "Z", "H", "RX", "RY", "RZ"})

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_PACK_SELECT = struct.Struct("4q").pack
_WHOLE_AXIS = slice(None)
_MAX_QUBIT = attrgetter("max_qubit")


def _normalize_controls(controls) -> tuple[tuple[int, int], ...]:
    """The (qubit, polarity) pairs as a tuple of int pairs."""
    out = []
    for c in controls:
        if not isinstance(c, (tuple, list)) or len(c) != 2:
            raise ValueError(f"a control is a (qubit, polarity) pair, got {c!r}")
        q, pol = int(c[0]), int(c[1])
        if pol not in (0, 1):
            raise ValueError(f"control polarity must be 0 or 1, got {pol}")
        out.append((q, pol))
    return tuple(out)


@dataclass(frozen=True)
class Gate:
    """One gate: a kind, one target qubit, optional polarity-aware controls.

    ``controls`` is a tuple of (qubit, polarity) pairs; the gate acts only
    on basis states where every control qubit matches its polarity. All
    kinds accept controls (rotations included, which the state-preparation
    circuits rely on). ``angle`` is required for RX/RY/RZ and forbidden
    otherwise.

    Construction also fixes what applying the gate needs, none of it
    compared: the 2x2 matrix on the target as 64 packed bytes, the highest
    qubit touched (``max_qubit``), the index of the target's 0-half and
    1-half in a (2,)*q tensor view of the amplitudes, and the packed
    (target, max_qubit, control mask, control value) that
    ``run_sequences`` and ``apply_circuit``'s run test read. The
    read-only ``matrix`` array is a view of those bytes, built on first
    use and kept on the gate: ``run_sequences`` reads the bytes alone, so
    a synthesis builds one only for the gates of the circuit it returns.
    """

    kind: str
    target: int
    controls: tuple[tuple[int, int], ...] = ()
    angle: float | None = None
    max_qubit: int = field(init=False, repr=False, compare=False)
    _halves: tuple[tuple, tuple] = field(init=False, repr=False, compare=False)
    _select: bytes = field(init=False, repr=False, compare=False)
    _coefficients: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = self.kind
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        target = int(self.target)
        controls = _normalize_controls(self.controls)
        angle = self.angle
        if kind in ROTATION_KINDS:
            if angle is None:
                raise ValueError(f"{kind} requires an angle")
            angle = float(angle)
        elif angle is not None:
            raise ValueError(f"{kind} does not take an angle")
        touched = (target, *(q for q, _ in controls))
        if len(set(touched)) != len(touched):
            raise ValueError(f"controls and target must be disjoint: {list(touched)}")
        if min(touched) < 0:
            raise ValueError(f"qubit indices must be >= 0, got {list(touched)}")
        top = max(touched)
        # qubit k is axis -(k + 1): an index over the trailing axes fits
        # every register wider than the gate's highest qubit
        index = [_WHOLE_AXIS] * (top + 1)
        for q, pol in controls:
            index[top - q] = pol
        axis = top - target
        index[axis] = 0
        half0 = (Ellipsis, *index)
        index[axis] = 1
        # a basis index meets the controls when (index & mask) == value;
        # no register run_sequences can allocate reaches qubit 63, so a gate
        # that does keeps mask = value = 0 and fails its range check on top
        mask = value = 0
        if top < 63:
            for q, pol in controls:
                mask |= 1 << q
                value |= pol << q
        # one write for every field: the class is frozen, and this runs for
        # each gate a synthesis mutation or a circuit inversion creates
        vars(self).update(
            target=target,
            controls=controls,
            angle=angle,
            max_qubit=top,
            _halves=(half0, (Ellipsis, *index)),
            _select=_PACK_SELECT(target, top, mask, value),
            _coefficients=_pack_coefficients(kind, angle),
        )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 2x2 complex128 matrix on the target, a read-only view of its bytes."""
        return np.ndarray((2, 2), np.complex128, self._coefficients)

    def __reduce__(self):
        # rebuild through the constructor, so copies and unpickled gates get
        # the same coefficients and kernel index as the original
        return Gate, (self.kind, self.target, self.controls, self.angle)

    def qubits(self) -> tuple[int, ...]:
        return (self.target, *(q for q, _ in self.controls))

    def with_angle(self, angle: float) -> "Gate":
        """The same rotation on the same qubits and controls, at another angle.

        Equal in every field to ``Gate(kind, target, controls, angle)``,
        but reuses this gate's validated fields and kernel index and packs
        only the new coefficients; it builds its own ``matrix`` on first
        use, never sharing this gate's.
        """
        if self.kind not in ROTATION_KINDS:
            raise ValueError(f"{self.kind} does not take an angle")
        angle = float(angle)
        gate = object.__new__(Gate)
        fields = vars(gate)
        fields.update(vars(self))
        fields.pop("matrix", None)
        fields["angle"] = angle
        fields["_coefficients"] = _pack_coefficients(self.kind, angle)
        return gate

    def inverse(self) -> "Gate":
        if self.kind in ROTATION_KINDS:
            return self.with_angle(-self.angle)
        return self  # X, Z and H are self-inverse


def x(target: int, controls=()) -> Gate:
    return Gate("X", target, controls)


def z(target: int, controls=()) -> Gate:
    return Gate("Z", target, controls)


def h(target: int) -> Gate:
    return Gate("H", target)


def rx(target: int, angle: float, controls=()) -> Gate:
    return Gate("RX", target, controls, angle)


def ry(target: int, angle: float, controls=()) -> Gate:
    return Gate("RY", target, controls, angle)


def rz(target: int, angle: float, controls=()) -> Gate:
    return Gate("RZ", target, controls, angle)


def cnot(control: int, target: int) -> Gate:
    return x(target, ((control, 1),))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed qubit count."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        # one C-level pass for the common, valid case; the loop runs only to
        # name the offending gate
        if gates and max(map(_MAX_QUBIT, gates)) >= self.num_qubits:
            _raise_out_of_range(
                next(g for g in gates if g.max_qubit >= self.num_qubits), self.num_qubits
            )

    def __len__(self) -> int:
        return len(self.gates)


def _raise_out_of_range(gate: Gate, num_qubits: int):
    bad = [q for q in gate.qubits() if q >= num_qubits]
    raise ValueError(f"gate {gate.kind} touches qubits {bad} outside [0, {num_qubits})")


def concat(*circuits: Circuit) -> Circuit:
    """Join circuits acting on the same register, in order."""
    widths = {c.num_qubits for c in circuits}
    if len(widths) != 1:
        raise ValueError(f"cannot concatenate circuits of differing widths {sorted(widths)}")
    gates: list[Gate] = []
    for c in circuits:
        gates.extend(c.gates)
    return Circuit(circuits[0].num_qubits, tuple(gates))


def invert(circuit: Circuit) -> Circuit:
    """Exact adjoint: reversed order, each gate inverted."""
    return Circuit(circuit.num_qubits, tuple(g.inverse() for g in reversed(circuit.gates)))


@dataclass
class Statevector:
    """Dense complex amplitudes over the 2^num_qubits computational basis."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for {self.num_qubits} qubits, "
                f"got shape {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.amplitudes.copy())


def zero_state(num_qubits: int) -> Statevector:
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(num_qubits, amps)


def basis_state(num_qubits: int, index: int) -> Statevector:
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(num_qubits, amps)


_PACK_2X2 = struct.Struct("8d").pack

# the 2x2 matrices as the row-major (real, imag) parts of their entries,
# packed as 8 doubles: a real entry takes imaginary part +0.0, as numpy's
# conversion of a float does
_FIXED_COEFFICIENTS = {
    "H": _PACK_2X2(_SQRT2_INV, 0.0, _SQRT2_INV, 0.0, _SQRT2_INV, 0.0, -_SQRT2_INV, 0.0),
    "X": _PACK_2X2(0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    "Z": _PACK_2X2(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0),
}


def _pack_coefficients(kind: str, angle: float | None) -> bytes:
    """The gate's 2x2 complex128 matrix, packed row-major as 64 bytes."""
    fixed = _FIXED_COEFFICIENTS.get(kind)
    if fixed is not None:
        return fixed
    c, s = cos(angle / 2.0), sin(angle / 2.0)
    if kind == "RX":
        off = -1j * s
        return _PACK_2X2(c, 0.0, off.real, off.imag, off.real, off.imag, c, 0.0)
    if kind == "RY":
        return _PACK_2X2(c, 0.0, -s, 0.0, s, 0.0, c, 0.0)
    # RZ
    u00, u11 = np.exp(-0.5j * angle), np.exp(0.5j * angle)
    return _PACK_2X2(u00.real, u00.imag, 0.0, 0.0, 0.0, 0.0, u11.real, u11.imag)


def _apply_gate_inplace(tensor: np.ndarray, gate: Gate) -> None:
    """Apply one gate to amplitudes viewed as a (2,)*q tensor, in place.

    The gate's precomputed halves fix every control at its polarity and
    the target at 0 or 1, so each half is a strided view of the basis
    states the gate pairs up; the stride-based single-qubit update of
    standard statevector simulators (Jones et al., 2019, QuEST).
    """
    half0, half1 = gate._halves
    if gate.kind == "Z":
        tensor[half1] *= -1.0
        return
    a = tensor[half0].copy()
    if gate.kind == "X":
        tensor[half0] = tensor[half1]
        tensor[half1] = a
        return
    b = tensor[half1]
    u = gate.matrix
    # 0-d views of the entries: numpy multiplies by these without the
    # per-call conversion that a Python or numpy scalar costs
    tensor[half0] = u[0, 0, ...] * a + u[0, 1, ...] * b
    tensor[half1] = u[1, 0, ...] * a + u[1, 1, ...] * b


# a run's key names the gates that move amplitudes (x) and those that negate
# them (z); their packed _select bytes say on which basis states
_RUN_CLASS = {"X": "x", "Z": "z"}
_FUSED_RUN_MIN_GATES = 3


class _SignedPermutations:
    """Least-recently-used cache of the signed permutations runs apply.

    An entry maps (width, class string, joined ``_select`` bytes) to the
    run's gather indices and the basis indices it then negates: read-only
    intp arrays, None where the run moves no amplitude or negates none.
    The key costs two joins, not a hash of every gate's fields.

    The entries take at most ``MAX_BYTES``, 32 MiB, room for four 8 MiB
    gathers on the n = 8 search register (2n + k = 20 qubits); past it the
    least recently used go. An entry takes at most 16 bytes per amplitude,
    so ``fits`` admits runs on at most 21 qubits; wider ones go gate by
    gate.
    """

    MAX_BYTES = 32 << 20

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def fits(self, num_qubits: int) -> bool:
        return 16 << num_qubits <= self.MAX_BYTES

    def lookup(self, num_qubits: int, classes: str, run: list[Gate]):
        key = (num_qubits, classes, b"".join([gate._select for gate in run]))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        entry = _signed_permutation(num_qubits, run)
        with self._lock:
            if key not in self._entries:  # another thread may have built it
                self._entries[key] = entry
                self.nbytes += _entry_bytes(entry)
            while self.nbytes > self.MAX_BYTES:
                self.nbytes -= _entry_bytes(self._entries.popitem(last=False)[1])
        return entry


def _entry_bytes(entry) -> int:
    return sum(a.nbytes for a in entry if a is not None)


def _signed_permutation(num_qubits: int, run: list[Gate]):
    """The gather indices (None for the identity) and negated indices of a run.

    Applied gate by gate to signed labels 1..2^q, the run leaves label
    +-(j + 1) at index i exactly when it moves amplitude j to i, times that
    sign.
    """
    labels = np.arange(1.0, (1 << num_qubits) + 1.0)
    tensor = labels.reshape((2,) * num_qubits)
    for gate in run:
        _apply_gate_inplace(tensor, gate)
    negated = np.flatnonzero(labels < 0.0)
    source = np.abs(labels, out=labels).astype(np.intp)
    source -= 1
    if np.array_equal(source, np.arange(1 << num_qubits)):
        source = None
    else:
        source.flags.writeable = False
    if not len(negated):
        negated = None
    else:
        negated.flags.writeable = False
    return source, negated


_RUNS = _SignedPermutations()


def _apply_run(tensor: np.ndarray, run: list[Gate]) -> np.ndarray:
    """Apply a maximal run of X and Z gates; return the amplitudes' tensor.

    The result is ``tensor`` itself, updated in place, unless the run is
    gathered into a new array.
    """
    if len(run) >= _FUSED_RUN_MIN_GATES and _RUNS.fits(tensor.ndim):
        classes = "".join([_RUN_CLASS[gate.kind] for gate in run])
        if "x" in classes and any(gate.controls for gate in run):
            source, negated = _RUNS.lookup(tensor.ndim, classes, run)
            flat = tensor.reshape(-1)
            if source is not None:
                flat = flat[source]
            if negated is not None:
                flat[negated] *= -1.0
            return flat.reshape(tensor.shape)
    _apply_live_rows(tensor, run)
    return tensor


def _signed(gate: Gate) -> bool:
    return gate.kind in _RUN_CLASS


def _apply_live_rows(tensor: np.ndarray, run: list[Gate]) -> None:
    """Apply a run of gates one at a time, in place.

    Every gate of the run acts within rows of 2^w consecutive amplitudes,
    w the run's highest qubit plus one. When some rows are all zero, the
    run is applied to a gathered copy of the live rows alone, which are
    then written back; otherwise, or when w spans the whole register, to
    ``tensor`` itself. ``tensor`` is C-contiguous, so its rows are a view.
    """
    width = max(map(_MAX_QUBIT, run)) + 1
    if width < tensor.ndim:
        rows = tensor.reshape(-1, 1 << width)
        live = np.flatnonzero(rows.any(axis=1))
        if len(live) < len(rows):
            block = rows[live].reshape((len(live),) + (2,) * width)
            for gate in run:
                _apply_gate_inplace(block, gate)
            rows[live] = block.reshape(len(live), -1)
            return
    for gate in run:
        _apply_gate_inplace(tensor, gate)


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    """Apply every gate in order, returning a new statevector.

    The gates fall into maximal runs of X and Z gates, with any controls,
    and maximal runs of the other kinds, which mix amplitudes.

    A run of three or more X and Z gates, with an X gate and a controlled
    gate among them, is applied as one signed permutation: one gather
    ``out[source]``, skipped where the run moves no amplitude, then one
    indexed negation. Both index arrays are found once per distinct run,
    by applying its gates to signed index labels, and kept in a cache
    bounded in bytes (see ``_SignedPermutations``). Moving a value and
    multiplying it by -1.0 are both exact, so every amplitude equals its
    gate-by-gate value; only the sign of a zero can differ. No other X
    and Z run is cached: a run of uncontrolled gates is a per-target
    load, which would add a cache entry per target; a run of Z gates
    alone moves nothing; and a run of one or two gates costs about what
    the gather does.

    Every other run goes gate by gate. A run that touches qubits below w
    alone maps each row of 2^w consecutive amplitudes into itself, so it
    is applied only to the rows that hold a nonzero amplitude when it
    starts, gathered into one block and scattered back (see
    ``_apply_live_rows``). A search's loader, CNOTs and all, thus touches
    the one 2^n row its state lives in. This is exact too: a live row
    gets the same elementwise arithmetic as in place, and a row of zeros
    would only have been rewritten with zeros.
    """
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit acts on {circuit.num_qubits} qubits but state has {state.num_qubits}"
        )
    # C-contiguous, so the reshape is a view
    tensor = state.amplitudes.copy().reshape((2,) * state.num_qubits)
    for signed, run in groupby(circuit.gates, _signed):
        run = list(run)
        if signed:
            tensor = _apply_run(tensor, run)
        else:
            _apply_live_rows(tensor, run)
    return Statevector(state.num_qubits, tensor.reshape(-1))


def leading_basis(circuit: Circuit) -> tuple[int, int]:
    """The basis index a circuit's leading uncontrolled X gates write, and their count.

    A qubit's bit is the parity of its X gates in that run on |0...0>; a
    circuit that opens with any other gate gives (0, 0).
    """
    index = count = 0
    for gate in circuit.gates:
        if gate.kind != "X" or gate.controls:
            break
        index ^= 1 << gate.target
        count += 1
    return index, count


def run_circuit(circuit: Circuit) -> Statevector:
    """Apply the circuit to |0...0>.

    The circuit's leading uncontrolled X gates only move the one nonzero
    amplitude, so the run starts from the basis state they write
    (``leading_basis``) and applies the rest, with the gate-by-gate
    amplitudes. A search circuit's target load thus never enters the run
    cache, and its loader starts on one live row.
    """
    index, count = leading_basis(circuit)
    rest = Circuit(circuit.num_qubits, circuit.gates[count:])
    return apply_circuit(basis_state(circuit.num_qubits, index), rest)


def run_sequences(num_qubits: int, sequences) -> np.ndarray:
    """Apply each of P gate sequences to |0...0>, all in one lockstep pass.

    Returns a (P, 2^num_qubits) array whose row i equals, element for
    element, ``run_circuit`` on sequence i; only a zero's sign can differ,
    since X and Z gates go through their matrices here rather than
    a swap or a negation. Step j applies every row's
    j-th gate at once: each row gathers the 0-half ``a`` and 1-half ``b``
    of its target's pairs and takes ``u00*a + u01*b`` and ``u10*a + u11*b``,
    the single-state kernel's elementwise arithmetic, with the row's
    matrix entries broadcast over its pairs. Pairs that fail the row's
    controls, and rows whose sequence has ended, keep their amplitudes.
    For many short sequences on a narrow register this replaces per-gate
    numpy calls on a handful of amplitudes with a few calls per step.
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    dim = 1 << num_qubits
    count = len(sequences)
    states = np.zeros((count, dim), dtype=np.complex128)
    states[:, 0] = 1.0
    lengths = np.array([len(seq) for seq in sequences], dtype=np.intp)
    depth = int(lengths.max(initial=0))
    if depth == 0:
        return states
    flat = list(chain.from_iterable(sequences))

    selects = np.frombuffer(b"".join([gate._select for gate in flat]), np.int64)
    target, top, mask, value = selects.reshape(-1, 4).T
    if top.max() >= num_qubits:
        _raise_out_of_range(next(g for g in flat if g.max_qubit >= num_qubits), num_qubits)

    # pairs[t, h]: the basis indices whose bit t is h, ascending
    half = np.arange(dim >> 1)
    zero = np.array([(half >> t << (t + 1)) | (half & ((1 << t) - 1)) for t in range(num_qubits)])
    pairs = np.stack([zero, zero | (1 << np.arange(num_qubits))[:, None]], axis=1)

    # the grids are step-major, so that step j reads the contiguous block
    # [j]: the gate at step j of row p lands in slot j * P + p, and
    # np.nonzero lists the live (row, step) cells in the flattened
    # sequences' order. The padding after a sequence ends meets no pair,
    # so its row keeps its amplitudes
    rows, steps = np.nonzero(np.arange(depth) < lengths[:, None])
    slots = steps * count + rows
    target_grid = np.zeros(depth * count, dtype=np.intp)
    target_grid[slots] = target
    met = np.zeros((depth * count, dim >> 1), dtype=bool)
    met[slots] = (zero[target] & mask[:, None]) == value[:, None]
    coef = np.zeros((depth * count, 2, 2), dtype=np.complex128)
    # every gate's coefficients are its 2x2 complex128 matrix as 64 packed
    # bytes, so one join holds every matrix in order
    coef[slots] = np.frombuffer(
        b"".join([gate._coefficients for gate in flat]), np.complex128
    ).reshape(-1, 2, 2)

    # index[j, p, h] holds row p's basis indices with its target bit equal
    # to h at step j; first[j] and second[j] are column 0 and column 1 of
    # every row's matrix, shaped (P, 2, 1); met[j] is (P, 1, 2^(n-1))
    index = pairs[target_grid.reshape(depth, count)]
    index += (np.arange(count) * dim)[:, None, None]
    coef = coef.reshape(depth, count, 2, 2)
    first, second = coef[..., :1], coef[..., 1:]
    met = met.reshape(depth, count, 1, dim >> 1)

    amps = states.reshape(-1)
    for j in range(depth):
        pair = amps[index[j]]
        new = first[j] * pair[:, :1] + second[j] * pair[:, 1:]
        amps[index[j]] = np.where(met[j], new, pair)
    return states


def sample_counts(state: Statevector, shots: int, rng_seed: int) -> dict[int, int]:
    """Sample measurement outcomes; basis-index keys, counts summing to shots.

    Deterministic for a fixed seed. Only outcomes with nonzero count
    appear, in ascending index order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = state.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(rng_seed)
    drawn = rng.multinomial(shots, probs)
    hits = np.flatnonzero(drawn)
    return dict(zip(hits.tolist(), drawn[hits].tolist()))


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>|^2, clipped to [0, 1] against roundoff."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return float(min(1.0, abs(overlap) ** 2))


# --- serialization -----------------------------------------------------------
# Line-oriented text: header "qubits=<q>", then one gate per line,
#   KIND targets=[t] controls=[(q,pol),...] angle=<radians>
# with the angle field present only on rotation gates. An X with exactly
# one control is written CNOT; the reader also takes the MCX and MCZ of
# older files, as X and Z.
_LEGACY_KINDS = {"CNOT": "X", "MCX": "X", "MCZ": "Z"}


def serialize_circuit(circuit: Circuit) -> str:
    lines = [f"qubits={circuit.num_qubits}"]
    for g in circuit.gates:
        kind = "CNOT" if g.kind == "X" and len(g.controls) == 1 else g.kind
        controls = "[" + ",".join(f"({q},{pol})" for q, pol in g.controls) + "]"
        line = f"{kind} targets=[{g.target}] controls={controls}"
        if g.angle is not None:
            line += f" angle={g.angle!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits="):
        raise ValueError("circuit text must start with a 'qubits=<q>' header")
    num_qubits = int(lines[0].split("=", 1)[1])
    gates = []
    for ln in lines[1:]:
        fields = ln.split()
        kind = _LEGACY_KINDS.get(fields[0], fields[0])
        parts = dict(f.split("=", 1) for f in fields[1:])
        targets = ast.literal_eval(parts["targets"])
        if len(targets) != 1:
            raise ValueError(f"a gate takes exactly one target, got {ln!r}")
        controls = tuple(ast.literal_eval(parts.get("controls", "[]")))
        angle = float(parts["angle"]) if "angle" in parts else None
        gates.append(Gate(kind, targets[0], controls, angle))
    return Circuit(num_qubits, tuple(gates))
