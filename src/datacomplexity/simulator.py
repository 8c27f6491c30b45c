"""Dense statevector simulator with feature-map encodings.

Qubit ordering convention (pinned): qubit q is the q-th least-significant bit
of the amplitude index, so |b_{n-1} ... b_1 b_0> sits at index
sum_q b_q 2^q. All partial traces, Pauli strings, and encodings follow this
ordering. Pauli strings are written with character j acting on qubit j
("ZI" is Z on qubit 0).

Capped at 14 qubits: exact desk-scale simulation, no shot noise, no noise
channels (the gate-error model is a closed-form expression elsewhere).
require_qubits is the one register rule (InvalidConfig) and qubit_subset the
one qubit-subset rule (InvalidSubset).

Circuits run on one batched engine, run_batch, and every circuit starts
from |0...0>. A block holds B states as a (2^n, B) complex array with the
sample axis last and contiguous; the B circuits share one gate layout
(ParameterizedCircuit.layout) and differ only in the axis and angle of each
rotation. Rotations are a two-term elementwise update with per-column
(2, 2, B) coefficients, computed per chunk from the (R, B) axis and angle
arrays in row slices of at most COEFF_BYTES. The update (_rotate) has two
forms with the same products in the same order, so the same bits: at low
qubits a gather of the pair partners plus whole-period diagonal and flip
patterns, at high qubits an update of the two half views; either way numpy's
inner loops are about _INNER_RUN amplitudes long, and a rotation costs about
the same at every qubit. Each maximal run of
consecutive CNOT/CZ gates is folded into one cached index permutation and
sign mask, so the CNOT ladder of a layered-ansatz layer is one gather;
Z-string expectations are signs @ |amps|^2 over a cached parity table.
Columns run in chunks whose block and spare buffer together hold CHUNK_BYTES
(1 MiB) of amplitudes, so a chunk stays in L2 cache. The block never leaves
the engine: run_batch passes each checked chunk to the caller's reader and
returns the readers' values joined in column order. One circuit's (R,) axes
pass as (R, 1) and broadcast over the columns. run_with_angles is a
one-column call into it.

A layout without CNOT/CZ (is_entangling is False) leaves |0...0> a product
state, and run_product_batch runs it qubit by qubit: each qubit's gates act
on its own (2, B) block with the same two-term update, so no 2^n array is
formed. run_batch does the same for the leading gates of any layout
(_product_prefix; the first rotation layer of the layered ansatz) and fills
the block from the product of those factors, bit-equal to running the gates
on the block.

Feature maps encode a whole data matrix at once, one state per row: angle
and basis rows into (n, 2, N) per-qubit factors (encode_factors), any map
into an (N, 2^n) array (encode_rows), of which encode is a one-row call.
bipartition reshapes amplitudes into (kept qubits) x (other qubits)
matrices; it holds the pinned qubit order for partial_trace,
partial_trace_density and the batched Schmidt spectra in qmetrics.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ArityError,
    CapacityError,
    InvalidConfig,
    InvalidState,
    InvalidSubset,
    ParseError,
    ZeroVector,
)

MAX_QUBITS = 14
NORM_TOL = 1e-10
# Amplitude bytes run_batch works on per chunk: the block of states and the
# spare buffer its kernels write, half each. 1 MiB stays in L2 cache; a block
# of 400 states at n=12 costs three times as much per state.
CHUNK_BYTES = 1 << 20
# Amplitudes per numpy inner loop in a rotation; see _rotate.
_INNER_RUN = 1024
# Bytes of rotation coefficients run_batch holds at once (_coefficient_rows):
# one row slice of a chunk's (R, 2, 2, B) table. 16 KiB is one row at
# B = 400 (n <= 6 in the barren study), so peak memory stays where one table
# per rotation kept it, and 32 rows at B = 8 (n = 12).
COEFF_BYTES = 1 << 14

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

FIXED_GATES = {
    "H": np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

ROTATION_GATES = ("RX", "RY", "RZ")
TWO_QUBIT_GATES = ("CNOT", "CZ")


def require_qubits(n) -> int:
    """The register rule: n as an int in 1..MAX_QUBITS, else InvalidConfig."""
    try:
        count = operator.index(n)
    except TypeError:
        count = 0
    if not 1 <= count <= MAX_QUBITS:
        raise InvalidConfig(f"n_qubits must be an integer in 1..{MAX_QUBITS}, got {n!r}")
    return count


def qubit_subset(qubits, n: int) -> list[int]:
    """The subset rule: the distinct qubits of a non-empty set of integers in
    0..n-1, in ascending order, else InvalidSubset."""
    try:
        subset = sorted({operator.index(q) for q in qubits})
    except TypeError:
        subset = []
    if not subset or subset[0] < 0 or subset[-1] >= n:
        raise InvalidSubset(f"a qubit subset is a non-empty set of integers in 0..{n - 1}, got {qubits!r}")
    return subset


def _require_unit_norms(norms: np.ndarray) -> None:
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))  # NaN fails too
    if bad.size:
        raise InvalidState(f"state norm {norms[bad[0]]} deviates from 1 beyond tolerance")


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", require_qubits(self.n_qubits))
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ArityError(f"expected {2**self.n_qubits} amplitudes, got {amps.shape}")
        _require_unit_norms(np.array([np.vdot(amps, amps).real]))
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits=n_qubits, amplitudes=amps)


@dataclass(frozen=True)
class DensityMatrix:
    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", require_qubits(self.n_qubits))
        v = np.asarray(self.values, dtype=complex)
        dim = 2**self.n_qubits
        if v.shape != (dim, dim):
            raise ArityError(f"expected {dim}x{dim} density matrix, got {v.shape}")
        if not np.max(np.abs(v - v.conj().T)) <= 1e-10:  # NaN fails too
            raise InvalidState("density matrix is not Hermitian within tolerance")
        if not abs(np.trace(v).real - 1.0) <= 1e-10:
            raise InvalidState(f"trace {np.trace(v).real} deviates from 1")
        v = 0.5 * (v + v.conj().T)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def eigenvalues(self) -> np.ndarray:
        ev = np.linalg.eigvalsh(self.values)
        if np.any(ev < -1e-9):
            raise InvalidState(f"negative eigenvalue {ev.min()} beyond tolerance")
        return np.clip(ev, 0.0, None)


@dataclass(frozen=True)
class Gate:
    """One gate of a circuit; `qubits` is stored as a tuple of ints (any
    sequence of integers is accepted, anything else raises ArityError)."""

    name: str
    qubits: tuple[int, ...]
    param_slot: int | None = None
    angle: float | None = None

    def __post_init__(self):
        try:
            qubits = tuple(operator.index(q) for q in self.qubits)
        except TypeError:
            raise ArityError(f"gate {self.name} needs a sequence of integer qubits, got {self.qubits!r}") from None
        object.__setattr__(self, "qubits", qubits)


@dataclass(frozen=True)
class ParameterizedCircuit:
    """A gate list and its rotation table, built once with the circuit.

    `layout` is the gate list with every rotation named "R"; circuits with
    equal layouts run in one batch. Rotation r, in gate order, has axis code
    axes[r] (an index into ROTATION_GATES) and reads parameter slots[r], or
    the fixed angle fixed_angles[r] where slots[r] is -1.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    n_params: int
    layout: tuple = field(init=False, repr=False, compare=False)
    axes: np.ndarray = field(init=False, repr=False, compare=False)
    slots: np.ndarray = field(init=False, repr=False, compare=False)
    fixed_angles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", require_qubits(self.n_qubits))
        layout, rotations = [], []
        for g in self.gates:
            if g.name not in (*FIXED_GATES, *ROTATION_GATES, *TWO_QUBIT_GATES):
                raise ParseError(f"unknown gate {g.name!r}")
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ArityError(f"gate {g.name} addresses qubit out of range: {g.qubits}")
            if g.name in TWO_QUBIT_GATES:
                if len(g.qubits) != 2 or g.qubits[0] == g.qubits[1]:
                    raise ArityError(f"{g.name} needs two distinct qubits")
            elif len(g.qubits) != 1:
                raise ArityError(f"{g.name} is a single-qubit gate")
            if g.name in ROTATION_GATES:
                if (g.param_slot is None) == (g.angle is None):
                    raise ArityError("rotation gates need exactly one of param_slot/angle")
                slot = -1 if g.param_slot is None else g.param_slot
                rotations.append((ROTATION_GATES.index(g.name), slot, 0.0 if g.angle is None else g.angle))
            elif g.param_slot is not None or g.angle is not None:
                raise ArityError(f"{g.name} takes no parameter")
            layout.append(("R" if g.name in ROTATION_GATES else g.name, g.qubits))
        used = {slot for _, slot, _ in rotations if slot >= 0}
        if used and used != set(range(self.n_params)):
            raise ArityError("parameter slots must be contiguous 0..n_params-1")
        if not used and self.n_params != 0:
            raise ArityError("n_params > 0 but no parameterized gate present")
        axes, slots, angles = zip(*rotations) if rotations else ((), (), ())
        object.__setattr__(self, "layout", tuple(layout))
        for name, values, dtype in (("axes", axes, np.int8), ("slots", slots, np.int64), ("fixed_angles", angles, float)):
            table = np.array(values, dtype=dtype)
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def rotation_angles(self, theta) -> np.ndarray:
        """The angle of every rotation for parameters theta of shape (P,) or
        (P, B): (R,) or (R, B), slot rotations read from theta and fixed ones
        broadcast. The one check of theta's length against n_params."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim not in (1, 2) or theta.shape[0] != self.n_params:
            raise ArityError(f"circuit takes {self.n_params} parameters, got theta of shape {theta.shape}")
        free = self.slots >= 0
        angles = np.empty(self.slots.shape + theta.shape[1:])
        angles[free] = theta[self.slots[free]]
        angles[~free] = self.fixed_angles[~free].reshape((-1,) + (1,) * (theta.ndim - 1))
        return angles

    def slot_rows(self, k) -> np.ndarray:
        """The rotations that read parameter slot k, in gate order; the one
        check of k against n_params."""
        rows = np.flatnonzero((self.slots == k) & (self.slots >= 0))  # empty unless k is in 0..n_params-1
        if not rows.size:
            raise ArityError(f"parameter index {k} out of range (n_params={self.n_params})")
        return rows


# R(theta) = cos(theta/2) I + sin(theta/2) G for the axis's G = -i P:
# -iX for RX, -iY for RY, -iZ for RZ, in ROTATION_GATES order.
_ROTATION_GENERATORS = np.array([[[0, -1j], [-1j, 0]], [[0, -1], [1, 0]], [[-1j, 0], [0, 1j]]])


def _rotation_coefficients(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(R, 2, 2, B) matrices of the rotations with axis codes and angles (R, B)."""
    half = angles[:, None, None, :] / 2.0
    return _ROTATION_GENERATORS[axes].transpose(0, 2, 3, 1) * np.sin(half) + np.eye(2)[:, :, None] * np.cos(half)


def _coefficient_rows(axes: np.ndarray, angles: np.ndarray):
    """Yield the (2, 2, B) matrix of each rotation of (R, B) axes and angles in
    turn, computed a slice of rows at a time so that one slice holds at most
    COEFF_BYTES (at least one row)."""
    step = max(1, COEFF_BYTES // (64 * axes.shape[1]))
    for lo in range(0, axes.shape[0], step):
        yield from _rotation_coefficients(axes[lo : lo + step], angles[lo : lo + step])


def _gate_matrix(name: str, coeffs) -> np.ndarray:
    """(2, 2, B) matrix of a single-qubit gate: the next of `coeffs` for a
    rotation ("R"), a broadcastable (2, 2, 1) for a fixed gate."""
    return next(coeffs) if name == "R" else FIXED_GATES[name][:, :, None]


@lru_cache(maxsize=64)
def _fused_permutation(n: int, run: tuple[tuple[str, tuple[int, ...]], ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """One gather for a run of CNOT/CZ gates: the run maps a block to
    sign * block[perm], with sign a (2^n, 1) column or None without CZ."""
    idx = np.arange(2**n)
    perm = idx.copy()
    sign = np.ones(2**n)
    for name, (a, b) in run:
        if name == "CNOT":
            flip = idx ^ (((idx >> a) & 1) << b)
            perm, sign = perm[flip], sign[flip]
        else:
            sign = sign * (1.0 - 2.0 * ((idx >> a) & (idx >> b) & 1))
    perm.setflags(write=False)
    if np.all(sign == 1.0):
        return perm, None
    sign = sign[:, None]
    sign.setflags(write=False)
    return perm, sign


def _program(n: int, layout) -> list[tuple]:
    """Kernel steps of a layout: ("gate", name, qubit) per single-qubit gate
    and ("perm", perm, sign) per maximal CNOT/CZ run."""
    steps: list[tuple] = []
    run: list = []
    for name, qubits in layout:
        if name in TWO_QUBIT_GATES:
            run.append((name, qubits))
            continue
        if run:
            steps.append(("perm", *_fused_permutation(n, tuple(run))))
            run = []
        steps.append(("gate", name, qubits[0]))
    if run:
        steps.append(("perm", *_fused_permutation(n, tuple(run))))
    return steps


@lru_cache(maxsize=64)
def _pair_tables(q: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit q of rows 0..rows-1 and the row of each one's pair partner (read-only)."""
    idx = np.arange(rows)
    bit, partner = (idx >> q) & 1, idx ^ (1 << q)
    bit.setflags(write=False)
    partner.setflags(write=False)
    return bit, partner


def _rotate(block: np.ndarray, u: np.ndarray, q: int, n: int, spare: np.ndarray) -> None:
    """In place: the two-term update of every (bit q = 0, bit q = 1) pair,
    a0' = a0 u00 + a1 u01 and a1' = a1 u11 + a0 u10, with per-column 2x2
    coefficients u (2, 2, B) or (2, 2, 1). `spare`, a buffer of the block's
    size, holds the temporaries.

    Both forms keep numpy's inner loops about _INNER_RUN amplitudes long
    rather than B (2 columns at n=14), and both give the same bits: each
    product is amplitude times coefficient, in that operand order (numpy's
    complex product need not round the same with its operands swapped), and
    the same products are added in the same order. Where 2^q rows of equal bit q hold fewer amplitudes than that,
    `spare` takes the pair partners in one gather, and the block times the
    diagonal pattern (u00 | u11) plus the partners times the flip pattern
    (u01 | u10) is formed with both patterns tiled over whole periods of
    2^(q+1) rows. Above that, the two halves of each period are updated as
    views, with u tiled along rows of equal bit q.
    """
    width = block.shape[1]
    if u.shape[2] != width:
        u = np.broadcast_to(u, (2, 2, width))
    diag, flip = u[[0, 1], [0, 1]], u[[0, 1], [1, 0]]  # (2, B): (u00, u11), (u01, u10)
    tile = 1 << max(0, (_INNER_RUN // width).bit_length() - 1)  # rows in one inner loop
    if 2**q * width < _INNER_RUN:
        rows = min(2**n, max(2 ** (q + 1), tile))
        bit, partner = _pair_tables(q, rows)
        view, partners = block.reshape(-1, rows, width), spare.reshape(-1, rows, width)
        # mode="raise" would buffer `out` in a copy; partner is in range
        np.take(view, partner, axis=1, out=partners, mode="clip")
        view *= diag[bit]
        partners *= flip[bit]
        view += partners
    else:
        shape = (2 ** (n - 1 - q), 2, 2**q // tile, tile * width)
        view, products = block.reshape(shape), spare.reshape(shape)
        diag, flip = (pattern[:, None].repeat(tile, axis=1).reshape(2, 1, -1) for pattern in (diag, flip))
        np.multiply(view[:, 1], flip[0], out=products[:, 0])
        np.multiply(view[:, 0], flip[1], out=products[:, 1])
        view *= diag
        view += products


def _squared_norms(block: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """sum_i weights[i] |block[i, b]|^2 for every column b (weights default to 1)."""
    flat = block.view(np.float64).reshape(block.shape[0], -1)
    if weights is None:
        sums = np.einsum("ij,ij->j", flat, flat)
    else:
        sums = np.einsum("i,ij,ij->j", weights, flat, flat)
    return sums.reshape(-1, 2).sum(axis=1)


def _product_prefix(layout) -> tuple[int, int]:
    """(gates, qubits) of the leading gates of `layout` that _fill_product
    reproduces bit for bit: any gates on qubit 0, then one gate on each of
    qubits 1, 2, ... in turn. A CNOT/CZ ends the run, and so does any other
    gate: on the block, a second gate on a qubit acts on amplitudes that
    already carry other qubits' factors, which rounds differently."""
    qubits = 0
    for i, (name, targets) in enumerate(layout):
        q = targets[0]
        if name in TWO_QUBIT_GATES or not (q == qubits or (q == 0 and qubits == 1)):
            return i, qubits
        qubits = max(qubits, q + 1)
    return len(layout), qubits


def _product_factors(n_qubits: int, layout, coeffs, width: int) -> np.ndarray:
    """(n_qubits, 2, width) factors of single-qubit gates run on |0...0>:
    each gate acts on its qubit's (2, width) block with the two-term update
    of _rotate; `coeffs` yields the (2, 2, width) matrix of each rotation in
    turn, and a qubit with no gate stays [1, 0]."""
    factors = np.zeros((n_qubits, 2, width), dtype=complex)
    factors[:, 0] = 1.0
    for name, (q,) in layout:
        u = _gate_matrix(name, coeffs)
        s0, s1 = factors[q]
        # state times coefficient, as in _rotate: numpy's complex product
        # need not round the same with its operands swapped
        factors[q] = s0 * u[:, 0] + s1 * u[:, 1]
    return factors


def _fill_product(block: np.ndarray, factors: np.ndarray) -> None:
    """Set a (2^n, B) block to the product state of the (k, 2, B) factors of
    qubits 0..k-1, the others |0>: the factors multiply in qubit order, one
    doubling of the filled rows per qubit."""
    filled = 1 << factors.shape[0]
    block[filled:] = 0.0
    block[0] = 1.0
    for q, (f0, f1) in enumerate(factors):
        low = block[: 1 << q]
        np.multiply(low, f1, out=block[1 << q : 2 << q])
        low *= f0


def run_batch(n_qubits: int, layout, axes: np.ndarray, angles: np.ndarray, read, group: int = 1) -> np.ndarray:
    """Run B circuits of one gate layout from |0...0>; return read's values
    of every chunk, joined in column order.

    `angles` is (R, B) and `axes` broadcasts against it ((R, 1) for one
    circuit): rotation r of column b is ROTATION_GATES[axes[r, b]] by
    angles[r, b]. The leading single-qubit gates of _product_prefix run on
    per-qubit (2, B) factors and the block is filled from their product,
    bit-equal to running them on the block. Columns run in chunks of a
    multiple of `group` columns, so a group of related states (a
    parameter-shift pair, a fidelity pair) lands in one block; a block and a
    spare buffer of the same size, CHUNK_BYTES together, serve every chunk.
    Once every state of a chunk's (2^n, b) block passes the StateVector norm
    check, read(block) returns an array whose first axis runs over the
    chunk's columns or groups; it is copied out before the buffer is reused.
    """
    n = n_qubits
    axes, angles = np.broadcast_arrays(axes, angles)
    steps = _program(n, layout)
    prefix, prefix_qubits = _product_prefix(layout)
    total = angles.shape[1]
    width = min(total, max(1, CHUNK_BYTES // (32 * 2**n) // group) * group)
    buffers = np.empty((2, 2**n * width), dtype=complex)
    values = []
    for lo in range(0, total, width):
        b = min(width, total - lo)
        block, spare = (buf[: 2**n * b].reshape(2**n, b) for buf in buffers)
        coeffs = _coefficient_rows(axes[:, lo : lo + b], angles[:, lo : lo + b])
        _fill_product(block, _product_factors(prefix_qubits, layout[:prefix], coeffs, b))
        for kind, a, c in steps[prefix:]:  # a prefix has no CNOT/CZ: one step per gate
            if kind == "perm":
                # mode="raise" would buffer `out` in a copy; perm is in range
                np.take(block, a, axis=0, out=spare, mode="clip")
                if c is not None:
                    spare *= c
                block, spare = spare, block
            else:
                _rotate(block, _gate_matrix(a, coeffs), c, n, spare)
        _require_unit_norms(_squared_norms(block))
        values.append(np.array(read(block)))
    return np.concatenate(values)


def is_entangling(layout) -> bool:
    """Whether a gate layout holds a CNOT/CZ; without one it makes product states."""
    return any(name in TWO_QUBIT_GATES for name, _ in layout)


def run_product_batch(n_qubits: int, layout, axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Run B circuits of one layout without CNOT/CZ, qubit by qubit.

    Such a circuit leaves |0...0> a product state, so each qubit's gates act
    on its own (2, B) block with the same two-term update as run_batch
    (_product_factors). Returns the (n, 2, B) factors: [q, :, b] is qubit q of
    column b, and a qubit with no gate stays [1, 0]. `axes` and `angles` are
    as in run_batch.
    """
    if is_entangling(layout):
        raise ArityError("a layout with CNOT/CZ does not make product states")
    axes, angles = np.broadcast_arrays(axes, angles)
    factors = _product_factors(n_qubits, layout, _coefficient_rows(axes, angles), angles.shape[1])
    _require_unit_norms(np.sum(np.abs(factors) ** 2, axis=1).ravel())
    return factors


def run_with_angles(c: ParameterizedCircuit, angles: np.ndarray) -> StateVector:
    """The state the gate list makes from |0...0> with rotation r by angles[r],
    (R,): one column through run_batch."""
    amps = run_batch(c.n_qubits, c.layout, c.axes[:, None], angles[:, None], np.transpose)
    return StateVector(n_qubits=c.n_qubits, amplitudes=amps[0])


def run_circuit(c: ParameterizedCircuit, theta) -> StateVector:
    """The state the circuit makes from |0...0> at parameters theta."""
    return run_with_angles(c, c.rotation_angles(theta))


@dataclass(frozen=True)
class FeatureMap:
    """Classical-to-quantum encoding: basis, angle, or amplitude.

    Angle encoding applies RY(pi * x_j) on qubit j to features clipped to
    [0, 1]; embed_dataset min-max scales a dataset's columns into that range
    first. Basis encoding thresholds each feature at > 0. The amplitude map
    L2-normalizes and zero-pads the row into the amplitudes.
    """

    kind: str
    n_qubits: int

    def __post_init__(self):
        if self.kind not in ("basis", "angle", "amplitude"):
            raise InvalidConfig(f"unknown feature map kind {self.kind!r}")
        object.__setattr__(self, "n_qubits", require_qubits(self.n_qubits))


def required_qubits(kind: str, n_features: int) -> int:
    """Minimum qubit count for one encoded row."""
    if kind == "amplitude":
        return max(1, math.ceil(math.log2(max(2, n_features))))
    return n_features


def encoding_circuit(fm: FeatureMap, n_features: int) -> ParameterizedCircuit:
    """The parameterized gate circuit of an angle map (one RY slot per feature)."""
    if fm.kind != "angle":
        raise InvalidConfig("only angle maps have a fixed encoding circuit")
    gates = tuple(Gate(name="RY", qubits=(j,), param_slot=j) for j in range(n_features))
    return ParameterizedCircuit(n_qubits=fm.n_qubits, gates=gates, n_params=n_features)


def _fitted_rows(fm: FeatureMap, matrix) -> np.ndarray:
    """The (N, d) matrix as float64, once its rows fit the register."""
    x = np.asarray(matrix, dtype=np.float64)
    need = required_qubits(fm.kind, x.shape[1])
    if need > fm.n_qubits:
        raise CapacityError(f"{fm.kind} encoding of {x.shape[1]} features requires {need} qubits, the register has {fm.n_qubits}")
    return x


def encode_factors(fm: FeatureMap, matrix) -> np.ndarray:
    """Map every row of an (N, d) matrix to the product state an angle or a
    basis map makes of it: the (n, 2, N) per-qubit factors, [q, :, i] qubit
    q of row i, and qubits d..n-1 stay [1, 0].

    Angle rows run encoding_circuit through run_product_batch, one column
    per row; a basis factor is [0, 1] where the feature is > 0, else [1, 0].
    """
    x = _fitted_rows(fm, matrix)
    if fm.kind == "angle":
        circuit = encoding_circuit(fm, x.shape[1])
        angles = circuit.rotation_angles(math.pi * np.clip(x, 0.0, 1.0).T)
        return run_product_batch(fm.n_qubits, circuit.layout, circuit.axes[:, None], angles)
    if fm.kind != "basis":
        raise InvalidConfig(f"a {fm.kind} map does not make product states")
    factors = np.zeros((fm.n_qubits, 2, x.shape[0]), dtype=complex)
    factors[:, 0] = 1.0
    factors[: x.shape[1], 0] = x.T <= 0.0
    factors[: x.shape[1], 1] = x.T > 0.0
    return factors


def encode_rows(fm: FeatureMap, matrix) -> np.ndarray:
    """Map every row of an (N, d) matrix to a state: the (N, 2^n) amplitudes.

    An amplitude row is divided by the power of two just above its largest
    magnitude (ZeroVector names the first all-zero row), which is exact,
    then by its norm, the square root of its dot product with itself: no
    norm over- or underflows, and an in-range row keeps the bits of
    row / norm(row), since fidelity distances below 1e-8 are rounding noise.
    Angle and basis rows are the products of their encode_factors, which
    _fill_product multiplies in qubit order. Beyond the product engine's
    per-qubit check, no norm check is made here; QuantumEnsemble and
    StateVector check the states.
    """
    if fm.kind != "amplitude":
        factors = encode_factors(fm, matrix)
        amps = np.empty((factors.shape[2], 2**fm.n_qubits), dtype=complex)
        _fill_product(amps.T, factors)
        return amps
    x = _fitted_rows(fm, matrix)
    peak = np.max(np.abs(x), axis=1)
    if not peak.all():
        raise ZeroVector(f"row {np.argmin(peak)}: cannot amplitude-encode an all-zero vector")
    x = np.ldexp(x, -np.frexp(peak)[1][:, None])
    amps = np.zeros((x.shape[0], 2**fm.n_qubits), dtype=complex)
    amps[:, : x.shape[1]] = x / np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    return amps


def encode(fm: FeatureMap, x) -> StateVector:
    """Map one feature vector to a state: a one-row call into encode_rows."""
    row = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return StateVector(n_qubits=fm.n_qubits, amplitudes=encode_rows(fm, row)[0])


def bipartition(amps: np.ndarray, keep) -> np.ndarray:
    """(..., 2^n) amplitudes as (..., 2^k, 2^(n-k)) matrices split by `keep`.

    Rows index the k kept qubits, columns the others, both in ascending qubit
    order: the smallest kept qubit becomes bit 0 of the row index.
    """
    n = amps.shape[-1].bit_length() - 1
    keep = qubit_subset(keep, n)
    lead = amps.shape[:-1]
    # axis of qubit q in the reshaped tensor is n-1-q (MSB first)
    kept_axes = [n - 1 - q for q in reversed(keep)]
    other_axes = [ax for ax in range(n) if ax not in kept_axes]
    order = list(range(len(lead))) + [len(lead) + ax for ax in kept_axes + other_axes]
    tensor = amps.reshape(lead + (2,) * n).transpose(order)
    return tensor.reshape(lead + (2 ** len(keep), 2 ** (n - len(keep))))


def partial_trace(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix over `keep`, ascending qubit order.

    The smallest kept qubit becomes bit 0 of the reduced index.
    """
    mat = bipartition(state.amplitudes, keep)
    return DensityMatrix(n_qubits=mat.shape[0].bit_length() - 1, values=mat @ mat.conj().T)


def partial_trace_density(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix of a (possibly mixed) state."""
    cols = bipartition(rho.values, keep)
    # rows split like the columns: block[c, i, r, j] = rho[(r, j), (c, i)]
    block = bipartition(np.moveaxis(cols, 0, -1), keep)
    reduced = np.einsum("biai->ab", block)
    return DensityMatrix(n_qubits=reduced.shape[0].bit_length() - 1, values=reduced)


def parse_pauli(pauli: str, n_qubits: int) -> str:
    if not isinstance(pauli, str) or len(pauli) != n_qubits:
        raise ParseError(f"Pauli string must have length {n_qubits}: {pauli!r}")
    up = pauli.upper()
    if any(ch not in "IXYZ" for ch in up):
        raise ParseError(f"Pauli string may only contain I, X, Y, Z: {pauli!r}")
    return up


@lru_cache(maxsize=None)
def popcount_table(n_qubits: int) -> np.ndarray:
    """Number of set bits of every amplitude index 0..2^n-1 (read-only)."""
    idx = np.arange(2**n_qubits)
    pop = np.zeros(2**n_qubits, dtype=np.int64)
    for q in range(n_qubits):
        pop += (idx >> q) & 1
    pop.setflags(write=False)
    return pop


@lru_cache(maxsize=64)
def _parity_signs(n: int, mask: int) -> np.ndarray:
    """(-1)^popcount(index & mask) for every amplitude index (read-only)."""
    signs = 1.0 - 2.0 * (popcount_table(n)[np.arange(2**n) & mask] & 1)
    signs.setflags(write=False)
    return signs


def pauli_expectations(block: np.ndarray, pauli: str) -> np.ndarray:
    """<psi_b|P|psi_b> for every column of a (2^n, B) block.

    P|j> = i^(#Y) (-1)^popcount(j & zy) |j ^ xy>, with xy the X/Y qubits and
    zy the Z/Y qubits; a Z-string (xy = 0) reduces to signs @ |amps|^2.
    """
    n = int(block.shape[0]).bit_length() - 1
    pauli = parse_pauli(pauli, n)
    xy = sum(1 << q for q, ch in enumerate(pauli) if ch in "XY")
    zy = sum(1 << q for q, ch in enumerate(pauli) if ch in "ZY")
    signs = _parity_signs(n, zy)
    if xy == 0:
        return _squared_norms(block, signs)
    flipped = block[np.arange(2**n) ^ xy]
    values = (1j ** pauli.count("Y")) * np.einsum("i,ij,ij->j", signs, flipped.conj(), block)
    if np.max(np.abs(values.imag)) > 1e-10:
        raise InvalidState(f"expectation came out non-real: {values}")
    return values.real


def expectation(state: StateVector, pauli: str) -> float:
    """<psi|P|psi>; character j of `pauli` acts on qubit j."""
    return float(pauli_expectations(state.amplitudes[:, None], pauli)[0])


@lru_cache(maxsize=64)
def layered_layout(n_qubits: int, depth: int) -> tuple:
    """Gate layout of the layered ansatz: per layer one rotation per qubit,
    then a CNOT ladder (q, q+1). Its rotation r reads parameter slot r."""
    n_qubits = require_qubits(n_qubits)
    if depth < 1:
        raise InvalidConfig("depth must be >= 1")
    layer = tuple(("R", (q,)) for q in range(n_qubits)) + tuple(("CNOT", (q, q + 1)) for q in range(n_qubits - 1))
    return layer * depth


def layered_axes(n_qubits: int, depth: int, gen: np.random.Generator) -> np.ndarray:
    """Axis codes (n_qubits * depth,) of one layered circuit, layer by layer:
    one draw gen.integers(0, 3, size=(depth, n_qubits)), the same stream as
    one integers(0, 3, size=n_qubits) per layer."""
    return gen.integers(0, 3, size=(depth, n_qubits)).ravel()


def random_layered_circuit(n_qubits: int, depth: int, gen: np.random.Generator) -> ParameterizedCircuit:
    """Hardware-efficient ansatz: layered_layout with the axes layered_axes
    draws from `gen`."""
    layout = layered_layout(n_qubits, depth)
    axes = layered_axes(n_qubits, depth, gen)
    gates, slot = [], 0
    for name, qubits in layout:
        if name == "R":
            gates.append(Gate(name=ROTATION_GATES[axes[slot]], qubits=qubits, param_slot=slot))
            slot += 1
        else:
            gates.append(Gate(name=name, qubits=qubits))
    return ParameterizedCircuit(n_qubits=n_qubits, gates=tuple(gates), n_params=slot)
