"""Quantum-native metrics computed on simulator outputs.

Entropies are in bits (base-2 logs). KL divergences use natural logs,
matching the usual expressibility convention. The topological entanglement
entropy uses the tripartite combination
S_A + S_B + S_C - S_AB - S_BC - S_AC + S_ABC, which is one of several
conventions in use; reports flag it as convention-dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .classical import cumulant_from_moments, entropy_bits, require_threshold
from .config import SeededRng
from .errors import (
    EnsembleError,
    InvalidConfig,
    InvalidState,
    InvalidSubset,
    OrderTooHigh,
)
from .simulator import (
    CHUNK_BYTES,
    DensityMatrix,
    ParameterizedCircuit,
    StateVector,
    _require_unit_norms,
    bipartition,
    expectation,
    is_entangling,
    layered_axes,
    layered_layout,
    partial_trace,
    partial_trace_density,
    pauli_expectations,
    popcount_table,
    qubit_subset,
    require_qubits,
    run_batch,
    run_product_batch,
)

CORRELATOR_ORDER_CAP = 4
SCHMIDT_TOL = 1e-10
KL_SMOOTHING = 1e-9
# Largest n * depth * n_samples of a gradient study. Per rotation of a sample
# the study holds an int8 axis and a float64 angle, then both again for the
# two parameter-shift copies (27 bytes): 2^22 rotations stay under 115 MiB.
MAX_STUDY_ROTATIONS = 1 << 22


@dataclass(frozen=True, eq=False)
class QuantumEnsemble:
    """N pure states of n qubits with uniform weights, held as one read-only
    array: (N, 2^n) complex amplitudes, row i the amplitude vector of state
    i, or, for product states, (n, 2, N) complex per-qubit factors given as
    `factors`, [q, :, i] qubit q of state i. Exactly one of the two is held;
    a complex array passed in is taken over, not copied, and made read-only."""

    amplitudes: np.ndarray | None = None
    factors: np.ndarray | None = None

    def __post_init__(self):
        if (self.amplitudes is None) == (self.factors is None):
            raise EnsembleError("an ensemble holds either amplitudes or per-qubit factors")
        if self.factors is not None:
            states = np.ascontiguousarray(self.factors, dtype=complex)
            if states.ndim != 3 or states.shape[1] != 2 or states.shape[2] == 0:
                raise EnsembleError("factors must be a non-empty (n, 2, N) array")
            require_qubits(states.shape[0])
            _require_unit_norms((np.abs(states) ** 2).sum(axis=1).ravel())
            name = "factors"
        else:
            states = np.ascontiguousarray(self.amplitudes, dtype=complex)
            if states.ndim != 2 or states.shape[0] == 0:
                raise EnsembleError("ensemble must be a non-empty (N, 2^n) amplitude array")
            n = states.shape[1].bit_length() - 1
            if states.shape[1] != 2**n:
                raise EnsembleError("rows must hold 2^n amplitudes")
            require_qubits(n)
            flat = states.view(np.float64)
            _require_unit_norms(np.einsum("ij,ij->i", flat, flat))
            name = "amplitudes"
        states.setflags(write=False)
        object.__setattr__(self, name, states)

    @property
    def n_qubits(self) -> int:
        if self.factors is not None:
            return self.factors.shape[0]
        return self.amplitudes.shape[1].bit_length() - 1

    @property
    def size(self) -> int:
        return self.factors.shape[2] if self.factors is not None else self.amplitudes.shape[0]


def uniform_ensemble(states) -> QuantumEnsemble:
    """The ensemble of StateVectors that share one qubit count."""
    states = tuple(states)
    if not states:
        raise EnsembleError("ensemble must contain at least one state")
    if len({s.n_qubits for s in states}) != 1:
        raise EnsembleError("ensemble states must share one qubit count")
    return QuantumEnsemble(np.stack([s.amplitudes for s in states]))


@dataclass(frozen=True)
class GradientStudy:
    n_range: tuple[int, ...]
    depth: int
    n_samples: int
    cost_kind: str
    variances: tuple[float, ...]
    fitted_slope: float
    seed: int

    def __post_init__(self):
        if len(self.variances) != len(self.n_range):
            raise InvalidConfig("one variance per qubit count required")
        if not all(0 <= v < math.inf for v in self.variances):
            raise InvalidConfig("variances must be finite and >= 0")

    def to_json_obj(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "depth": self.depth,
            "n_samples": self.n_samples,
            "cost_kind": self.cost_kind,
            "variances": list(self.variances),
            "fitted_slope": self.fitted_slope,
            "seed": self.seed,
        }

    def to_csv(self) -> str:
        lines = ["n,variance"]
        for n, v in zip(self.n_range, self.variances):
            lines.append(f"{n},{v!r}")
        return "\n".join(lines) + "\n"


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho log2 rho) over eigenvalues above 1e-12, in bits."""
    ev = rho.eigenvalues()
    if not np.any(ev > 1e-12):
        raise InvalidState("density matrix has no positive eigenvalue")
    return float(entropy_bits(ev))


def schmidt_spectra(amps: np.ndarray, keep) -> np.ndarray:
    """Schmidt coefficients of every row of (N, 2^n) amplitudes split into
    `keep` and the rest: (N, min(2^k, 2^(n-k))) singular values, descending.

    Their squares are the spectrum of each row's reduced density matrix over
    `keep`, which is never formed.
    """
    return np.linalg.svd(bipartition(amps, keep), compute_uv=False)


def reduced_entropies(amps: np.ndarray, keep) -> np.ndarray:
    """Entanglement entropy (bits) of every row's reduction over `keep`."""
    return entropy_bits(schmidt_spectra(amps, keep) ** 2)


def single_qubit_entropies(amps: np.ndarray) -> np.ndarray:
    """Entropy (bits) of every row's reduction to each single qubit, (N, n).

    The reduced state of qubit q is the 2x2 matrix [[p0, c], [c*, p1]],
    summed from strided views of the amplitudes with bit q = 0 and 1; its
    eigenvalues are (p0 + p1 +- sqrt((p0 - p1)^2 + 4|c|^2)) / 2.
    """
    rows, dim = amps.shape
    n = dim.bit_length() - 1
    flat = np.ascontiguousarray(amps, dtype=complex).view(np.float64)
    spectra = np.empty((rows, n, 2))
    # rows in CHUNK_BYTES (L2-sized) chunks, so the n passes over a chunk
    # read cache rather than memory: 2.5x faster at n=14
    step = max(1, CHUNK_BYTES // (16 * dim))
    for lo in range(0, rows, step):
        chunk = flat[lo : lo + step]
        for q in range(n):
            # (re, im) pairs of the (rows, 2^(n-1-q), bit q, 2^q) amplitude tensor
            view = chunk.reshape(chunk.shape[0], 2 ** (n - 1 - q), 2, 2**q, 2)
            a0, a1 = view[:, :, 0], view[:, :, 1]
            p0 = np.einsum("nhlc,nhlc->n", a0, a0)
            p1 = np.einsum("nhlc,nhlc->n", a1, a1)
            c_re = np.einsum("nhlc,nhlc->n", a0, a1)
            c_im = np.einsum("nhl,nhl->n", a0[..., 1], a1[..., 0]) - np.einsum("nhl,nhl->n", a0[..., 0], a1[..., 1])
            radius = np.sqrt((p0 - p1) ** 2 + 4.0 * (c_re**2 + c_im**2))
            spectra[lo : lo + step, q, 0] = (p0 + p1 + radius) / 2.0
            spectra[lo : lo + step, q, 1] = (p0 + p1 - radius) / 2.0
    return entropy_bits(spectra)


def schmidt_rank(state: StateVector, partition) -> int:
    """Singular values above 1e-10 of the amplitude matrix split by `partition`."""
    keep = qubit_subset(partition, state.n_qubits)
    if len(keep) == state.n_qubits:
        raise InvalidSubset("bipartition needs two non-empty sides")
    return int(np.sum(schmidt_spectra(state.amplitudes[None], keep) > SCHMIDT_TOL))


def quantum_mutual_information(state, subset_a, subset_b) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in bits, clamped at zero.

    Accepts a pure StateVector or a DensityMatrix over the full register.
    """
    if isinstance(state, StateVector):
        reduce = lambda keep: partial_trace(state, keep)
    elif isinstance(state, DensityMatrix):
        reduce = lambda keep: partial_trace_density(state, keep)
    else:
        raise InvalidSubset("expected a StateVector or DensityMatrix")
    a = qubit_subset(subset_a, state.n_qubits)
    b = qubit_subset(subset_b, state.n_qubits)
    if set(a) & set(b):
        raise InvalidSubset(f"subsets overlap: {a} vs {b}")
    info = (
        von_neumann_entropy(reduce(a))
        + von_neumann_entropy(reduce(b))
        - von_neumann_entropy(reduce(a + b))
    )
    if info < -1e-9:
        raise InvalidState(f"mutual information {info} below zero beyond tolerance")
    return max(info, 0.0)


def connected_correlator(state: StateVector, observables, _cache: dict | None = None) -> float:
    """Joint cumulant of single-qubit observables via the partition formula.

    `observables` is a list of (qubit, pauli) pairs on distinct qubits; every
    lower-order factorization is subtracted, so product states give zero.
    """
    obs = [(q, p.upper()) for q, p in observables]
    qubits = [q for q, _ in obs]
    if len(qubit_subset(qubits, state.n_qubits)) != len(qubits):
        raise InvalidSubset(f"repeated qubit in {qubits}")
    k = len(obs)
    if k > CORRELATOR_ORDER_CAP:
        raise OrderTooHigh(f"order {k} above the cap {CORRELATOR_ORDER_CAP}")
    cache = _cache if _cache is not None else {}

    def moment(block: tuple[int, ...]) -> float:
        chars = ["I"] * state.n_qubits
        for pos in block:
            q, p = obs[pos]
            chars[q] = p
        pauli = "".join(chars)
        if pauli not in cache:
            cache[pauli] = expectation(state, pauli)
        return cache[pauli]

    return cumulant_from_moments(tuple(range(k)), moment)


def quantum_interaction_order(state: StateVector, epsilon: float) -> int:
    """Largest order k in 2..4 with a connected correlator above epsilon.

    Orders are scanned from min(4, n) down to 2, as in
    classical.interaction_order, each over all distinct-qubit index sets and
    all X/Z Pauli assignments in a fixed lexicographic order, and the scan
    stops at the first significant correlator; returns 1 when nothing is
    significant.
    """
    require_threshold(epsilon)
    n = state.n_qubits
    cache: dict = {}
    for k in range(min(CORRELATOR_ORDER_CAP, n), 1, -1):
        observables = (
            list(zip(qubits, paulis)) for qubits in combinations(range(n), k) for paulis in product("XZ", repeat=k)
        )
        if any(abs(connected_correlator(state, obs, _cache=cache)) > epsilon for obs in observables):
            return k
    return 1


def haar_fidelity_pdf(n_qubits: int, fidelity: float) -> float:
    """Density of |<psi|phi>|^2 for Haar-random pairs: (N-1)(1-F)^(N-2)."""
    if n_qubits < 1:
        raise InvalidConfig("n_qubits must be >= 1")
    if not 0.0 <= fidelity <= 1.0:
        raise InvalidConfig("fidelity must lie in [0, 1]")
    dim = 2**n_qubits
    return float((dim - 1) * (1.0 - fidelity) ** (dim - 2))


def haar_bin_masses(n_qubits: int, bins: int) -> np.ndarray:
    """Exact Haar probability mass of each equal-width fidelity bin."""
    dim = 2**n_qubits
    edges = np.linspace(0.0, 1.0, bins + 1)
    cdf = 1.0 - (1.0 - edges) ** (dim - 1)
    return np.diff(cdf)


def _pair_rotations(c: ParameterizedCircuit, n_samples: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """Rotation axes (R, 1), broadcast over the columns, and angles (R, 2 *
    n_samples) of the sampled state pairs: sample i draws (theta, phi) uniform in [0, 2*pi)^p from the child
    stream (i,) of `rng` and runs them as columns 2i and 2i + 1."""
    params = np.zeros((n_samples, 2, c.n_params))
    if c.n_params:
        for i, gen in enumerate(rng.children(count=n_samples)):
            params[i] = gen.uniform(0.0, 2.0 * math.pi, size=(2, c.n_params))
    angles = c.rotation_angles(params.reshape(2 * n_samples, c.n_params).T)
    return c.axes[:, None], angles


def _statevector_pair_fidelities(n: int, layout, axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """|<psi_2i|psi_2i+1>|^2 of every column pair, from full statevectors."""

    def read(block):
        return np.abs(np.einsum("ij,ij->j", block[:, 0::2].conj(), block[:, 1::2])) ** 2

    return run_batch(n, layout, axes, angles, read, group=2)


def product_fidelities(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """|<phi|theta>|^2 of product states given by (n, 2, ...) per-qubit
    factors that broadcast together: the product over qubits, taken in
    qubit order, of |<phi_q|theta_q>|^2. One qubit at a time, so no array
    wider than one qubit's overlaps is formed."""
    fidelity = 1.0
    for (l0, l1), (r0, r1) in zip(left, right):
        fidelity = fidelity * np.abs(l0.conj() * r0 + l1.conj() * r1) ** 2
    return fidelity


def _product_pair_fidelities(n: int, layout, axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """|<psi_2i|psi_2i+1>|^2 of every column pair of a layout without CNOT/CZ,
    from the per-qubit factors (product_fidelities)."""
    factors = run_product_batch(n, layout, axes, angles)
    return product_fidelities(factors[:, :, 0::2], factors[:, :, 1::2])


def sample_fidelities(c: ParameterizedCircuit, n_samples: int, rng: SeededRng) -> np.ndarray:
    """Fidelities of state pairs from uniform parameters in [0, 2*pi)^p.

    Sample i uses the child stream (i,) of `rng`, so results do not depend on
    evaluation order. A circuit without CNOT/CZ makes product states, so its
    fidelity is the product of per-qubit overlaps, each from a (2, 2 *
    n_samples) block of that qubit's gates; other circuits run all 2 *
    n_samples statevectors as one batch, sample i as columns 2i (theta) and
    2i + 1 (phi).
    """
    axes, angles = _pair_rotations(c, n_samples, rng)
    if is_entangling(c.layout):
        return _statevector_pair_fidelities(c.n_qubits, c.layout, axes, angles)
    return _product_pair_fidelities(c.n_qubits, c.layout, axes, angles)


def expressibility_kl(c: ParameterizedCircuit, n_samples: int, bins: int, rng: SeededRng) -> float:
    """KL divergence (nats) of the sampled fidelity histogram from Haar.

    Zero expressibility gap means the circuit covers state space like the
    Haar measure; parameter-free circuits give all-1 fidelities and a large
    but finite KL thanks to the additive smoothing.
    """
    if n_samples < 100:
        raise InvalidConfig("n_samples must be >= 100")
    if bins < 1:
        raise InvalidConfig("bins must be >= 1")
    fidelities = sample_fidelities(c, n_samples, rng)
    counts, _ = np.histogram(fidelities, bins=bins, range=(0.0, 1.0))
    p = (counts + KL_SMOOTHING) / (n_samples + bins * KL_SMOOTHING)
    masses = haar_bin_masses(c.n_qubits, bins)
    q = (masses + KL_SMOOTHING) / (masses.sum() + bins * KL_SMOOTHING)
    return float(np.sum(p * np.log(p / q)))


def _shift_gradients(n: int, layout, axes, angles, rows, cost_pauli: str) -> np.ndarray:
    """Parameter-shift derivatives of B circuits of one layout.

    `axes` and `angles` are (R, B). Each row in `rows` contributes
    (C(+pi/2) - C(-pi/2)) / 2 with only that rotation shifted; all shifted
    states of a circuit sit next to each other in one batch.
    """
    shifts = [(r, sign) for r in rows for sign in (1.0, -1.0)]
    width = len(shifts)
    axes = np.repeat(axes, width, axis=1)
    angles = np.repeat(angles, width, axis=1)
    for j, (r, sign) in enumerate(shifts):
        angles[r, j::width] += sign * math.pi / 2.0
    values = run_batch(n, layout, axes, angles, lambda block: pauli_expectations(block, cost_pauli), group=width)
    values = values.reshape(-1, width)
    total = np.zeros(values.shape[0])
    for j, (_, sign) in enumerate(shifts):
        total += 0.5 * sign * values[:, j]
    return total


def gradient(c: ParameterizedCircuit, theta, cost_pauli: str, k: int) -> float:
    """Parameter-shift derivative of <cost> with respect to parameter k.

    Each occurrence of the slot contributes (C(+pi/2) - C(-pi/2)) / 2 with
    only that gate shifted; the single-occurrence case is the textbook rule.
    """
    angles = c.rotation_angles(theta)[:, None]
    return float(_shift_gradients(c.n_qubits, c.layout, c.axes[:, None], angles, c.slot_rows(k), cost_pauli)[0])


def pure_state_qfi(c: ParameterizedCircuit, theta, k: int) -> float:
    """Quantum Fisher information 4(<dpsi|dpsi> - |<psi|dpsi>|^2).

    The derivative state is exact for Pauli rotations: shifting one
    occurrence of the slot by pi gives twice its contribution to |dpsi>.
    State and shifted states run as one batch.
    """
    base = c.rotation_angles(theta)
    rows = c.slot_rows(k)
    angles = np.repeat(base[:, None], 1 + len(rows), axis=1)
    angles[rows, np.arange(1, 1 + len(rows))] += math.pi

    def read(block):  # the one group: column 0 is psi, the others the shifted states
        deriv = 0.5 * block[:, 1:].sum(axis=1)
        return [4.0 * (float(np.vdot(deriv, deriv).real) - abs(np.vdot(block[:, 0], deriv)) ** 2)]

    qfi = run_batch(c.n_qubits, c.layout, c.axes[:, None], angles, read, group=1 + len(rows))[0]
    return max(float(qfi), 0.0)


def collective_z_qfis(amps: np.ndarray) -> np.ndarray:
    """QFI of every row of (N, 2^n) amplitudes under the collective phase
    generator J_z = sum_q Z_q / 2.

    Equals 4 Var(J_z): 0 for computational basis states, n^2 for GHZ states.
    Used as the pinned per-state QFI proxy in the composite scores. The
    moments <J_z> and <J_z^2> are row sums of elementwise products: no BLAS.
    """
    n = amps.shape[-1].bit_length() - 1
    # eigenvalue of J_z on basis state = (n - 2 * popcount) / 2
    jz = 0.5 * (n - 2.0 * popcount_table(n))
    probs = np.abs(amps) ** 2
    mean = (probs * jz).sum(axis=1)
    second = (probs * jz**2).sum(axis=1)
    return 4.0 * np.maximum(second - mean**2, 0.0)


def product_z_qfis(factors: np.ndarray) -> np.ndarray:
    """collective_z_qfis of the product states of (n, 2, N) per-qubit
    factors: the qubits are independent, so 4 Var(J_z) = sum_q (1 - <Z_q>^2)
    with <Z_q> = |f0|^2 - |f1|^2, no 2^n array formed."""
    z = np.abs(factors[:, 0]) ** 2 - np.abs(factors[:, 1]) ** 2
    return np.maximum((1.0 - z**2).sum(axis=0), 0.0)


def collective_z_qfi(state: StateVector) -> float:
    """collective_z_qfis of one state."""
    return float(collective_z_qfis(state.amplitudes[None])[0])


def global_cost_pauli(n: int) -> str:
    return "Z" * n


def local_cost_pauli(n: int) -> str:
    return "Z" + "I" * (n - 1)


def least_squares_slope(x, y) -> float:
    """Slope of the least-squares line through the points (x, y), in closed
    form with no BLAS or LAPACK call: sum((x - mean x)(y - mean y)) /
    sum((x - mean x)^2). The callers check their point counts."""
    dx = np.asarray(x, dtype=np.float64)
    dx = dx - dx.mean()
    dy = np.asarray(y, dtype=np.float64)
    return float((dx * (dy - dy.mean())).sum() / (dx * dx).sum())


def gradient_variance_study(
    n_range,
    depth: int,
    n_samples: int,
    cost_kind: str,
    rng: SeededRng,
) -> GradientStudy:
    """Sampled variance of the first parameter's gradient versus qubit count.

    Per sample, the rotation axes of a layered circuit (layered_axes), then
    uniform angles are drawn from a child stream keyed by (n, sample) straight
    into the axis and angle arrays of layered_layout(n, depth); the first
    parameter is rotation 0, and all parameter-shift states of one n run as
    one batch. The fitted slope is least_squares_slope of ln max(Var, 1e-300)
    against n, or 0.0 for one qubit count. Each qubit count passes require_qubits;
    n * depth * n_samples at most MAX_STUDY_ROTATIONS.
    """
    n_range = tuple(require_qubits(n) for n in n_range)
    if not n_range:
        raise InvalidConfig("need at least one qubit count")
    if len(set(n_range)) < len(n_range):  # the fitted slope would divide 0 by 0
        raise InvalidConfig(f"qubit counts must be distinct, got {n_range}")
    if depth < 1:
        raise InvalidConfig("depth must be >= 1")
    if n_samples < 200:
        raise InvalidConfig("n_samples must be >= 200")
    if max(n_range) * depth * n_samples > MAX_STUDY_ROTATIONS:
        raise InvalidConfig(f"n * depth * n_samples must be <= {MAX_STUDY_ROTATIONS}")
    if cost_kind not in ("global", "local"):
        raise InvalidConfig(f"unknown cost kind {cost_kind!r}")

    variances = []
    for n in n_range:
        cost = global_cost_pauli(n) if cost_kind == "global" else local_cost_pauli(n)
        axes = np.empty((n_samples, n * depth), dtype=np.int8)
        angles = np.empty((n_samples, n * depth))
        for i, gen in enumerate(rng.children(n, count=n_samples)):
            axes[i] = layered_axes(n, depth, gen)
            angles[i] = gen.uniform(0.0, 2.0 * math.pi, size=n * depth)
        grads = _shift_gradients(n, layered_layout(n, depth), axes.T, angles.T, (0,), cost)
        variances.append(float(np.var(grads)))

    log_var = np.log(np.maximum(variances, 1e-300))
    slope = least_squares_slope(n_range, log_var) if len(n_range) >= 2 else 0.0
    return GradientStudy(
        n_range=n_range,
        depth=depth,
        n_samples=n_samples,
        cost_kind=cost_kind,
        variances=tuple(variances),
        fitted_slope=slope,
        seed=rng.seed,
    )


def topological_entanglement_entropy(state: StateVector, a, b, c) -> float:
    """Tripartite entropy combination isolating long-range entanglement.

    Returns S_A + S_B + S_C - S_AB - S_BC - S_AC + S_ABC in bits; roughly
    -gamma for topologically ordered states and 0 for trivial ones. For a
    pure state and blocks that cover the register it is 0 up to rounding,
    since then S_AB = S_C, S_BC = S_A, S_AC = S_B and S_ABC = 0.
    """
    sa, sb, sc = (qubit_subset(part, state.n_qubits) for part in (a, b, c))
    if set(sa) & set(sb) or set(sb) & set(sc) or set(sa) & set(sc):
        raise InvalidSubset("tripartition blocks must be disjoint")
    s = [reduced_entropies(state.amplitudes[None], keep) for keep in (sa, sb, sc, sa + sb, sb + sc, sa + sc, sa + sb + sc)]
    return float((s[0] + s[1] + s[2] - s[3] - s[4] - s[5] + s[6])[0])


def circuit_error_rate(epsilon_gate: float, depth: int, gates_per_layer: float) -> float:
    """Closed-form accumulated error 1 - (1 - eps)^(depth * W)."""
    if not 0.0 <= epsilon_gate <= 1.0:
        raise InvalidConfig("gate error rate must lie in [0, 1]")
    if not (0 <= depth < math.inf and 0 <= gates_per_layer < math.inf):
        raise InvalidConfig("depth and gates_per_layer must be finite and >= 0")
    return 1.0 - (1.0 - epsilon_gate) ** (depth * gates_per_layer)


def ensemble_gram(e: QuantumEnsemble) -> np.ndarray:
    """Pairwise fidelity Gram matrix K[i][j] = |<psi_i|psi_j>|^2.

    One product |A A^H|^2 over (N, 2^n) amplitudes; for per-qubit factors,
    product_fidelities of every pair, one (N, N) qubit term at a time. The
    upper triangle is mirrored and the diagonal pinned to 1 so the matrix,
    and every distance matrix derived from it, is exactly symmetric.
    """
    if e.factors is None:
        fidelity = np.abs(e.amplitudes.conj() @ e.amplitudes.T) ** 2
    else:
        fidelity = product_fidelities(e.factors[:, :, :, None], e.factors[:, :, None, :])
    upper = np.triu(fidelity, k=1)
    gram = upper + upper.T
    np.fill_diagonal(gram, 1.0)
    return gram


def fidelity_distances(gram: np.ndarray) -> np.ndarray:
    """Dissimilarity sqrt(1 - fidelity) from a fidelity Gram; zero diagonal, symmetric."""
    d = np.sqrt(np.clip(1.0 - gram, 0.0, None))
    np.fill_diagonal(d, 0.0)
    return d
