"""Composite complexity scores and the trainability model built on them.

Combines normalized metric components into the classical, quantum-native,
and induced composites, and exposes the gradient-scaling model
Var = exp(-alpha * n * d * (C + delta * C_topo)) plus its inverse fit.

Every composite is a weighted read of named entries of one MetricVector.
The quantum pipeline makes one pass: embed_dataset encodes the rows into one
(N, 2^n) amplitude array (a QuantumEnsemble), and quantum_metrics builds the
fidelity Gram, the fidelity distances and the Rips persistence once each and
fills the entries that both the quantum and the induced composite read.
Per-state entropies, Schmidt ranks and QFIs are batched reads of that
array, and no density matrix is formed: the half split is one SVD for all
states (qmetrics.schmidt_spectra), each single-qubit entropy comes from the
2x2 reduced state in closed form (qmetrics.single_qubit_entropies), and the
TEE is exactly 0, since the states are pure and the tripartition covers the
register.

Normalization is min-max against pinned theoretical bounds (entropy vs
log2 N, interaction order vs its 1..4 range, ratios vs 1, entanglement
entropies vs qubit counts) or against a benchmark collection; the mode and
bounds are recorded next to every normalized value so reports stay auditable.
Values outside their bounds clip into [0, 1].

Values past float range take one path each way: embed_dataset divides
each angle column by its largest magnitude and encode_rows each amplitude
row by the power of two just above it, and MetricVector.add, the one
writer of entries, rejects a raw value or bound that is not finite, which
attempt turns into its stage's "error:<name>=..." flag.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .classical import effective_rank, entropy_bits, gram_spectrum
from .config import ConfigProfile, SeededRng
from .dataset import Dataset, scale_by_max_magnitude
from .errors import (
    DataComplexityError,
    DegenerateCollection,
    FitError,
    InvalidConfig,
    MissingMetric,
    NumericalError,
)
from .qmetrics import (
    SCHMIDT_TOL,
    GradientStudy,
    QuantumEnsemble,
    collective_z_qfis,
    ensemble_gram,
    expressibility_kl,
    fidelity_distances,
    least_squares_slope,
    reduced_entropies,
    schmidt_spectra,
    single_qubit_entropies,
)
from .simulator import FeatureMap, encode_rows, encoding_circuit
from .topology import (
    DistanceMatrix,
    PersistenceDiagram,
    euler_characteristic,
    persistence_diagram,
    rips_filtration,
    topological_complexity,
    total_persistence,
)

CLASSICAL_COMPONENTS = (
    "distributional_entropy",
    "interaction_order",
    "compression_ratio",
    "topological_complexity",
)
QUANTUM_COMPONENTS = (
    "mean_entanglement_entropy",
    "multipartite_correlation",
    "ensemble_rank_eff",
    "magic_monotone",
    "mean_qfi",
    "quantum_topological_complexity",
)
INDUCED_COMPONENTS = (
    "m1_support_dimension",
    "m2_qfi_spread",
    "m3_entanglement_entropy",
    "m4_kernel_flatness",
    "m5_expressibility_locality",
    "m6_embedding_topology",
)


def clip01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


@dataclass(frozen=True)
class MetricEntry:
    raw: float
    normalized: float
    bounds: tuple[float, float]


class MetricVector:
    """Named raw metric values plus their normalized [0, 1] counterparts, and
    the run's flags and stage timings (ms) that every stage records here."""

    def __init__(self, flags=()):
        self.entries: dict[str, MetricEntry] = {}
        self.flags: list[str] = list(flags)
        self.timings: dict[str, float] = {}

    def time(self, name: str, fn):
        """fn(), timed as stage `name`; a toolkit error propagates."""
        t0 = time.perf_counter()
        out = fn()
        self.timings[name] = (time.perf_counter() - t0) * 1000.0
        return out

    def attempt(self, name: str, fn, bounds=None):
        """fn(), timed as stage `name` and, given bounds, recorded as metric
        `name`. A toolkit error, a non-finite metric among them (see add),
        becomes the flag "error:<name>=..." of a partial report and gives
        None: the one place such a flag is built."""
        try:
            value = self.time(name, fn)
            if bounds is not None:
                self.add(name, value, bounds)
        except DataComplexityError as exc:
            self.flags.append(f"error:{name}={exc}")
            return None
        return value

    def add(self, name: str, raw: float, bounds: tuple[float, float], *more) -> None:
        """Record metric `name`, and each (name, raw, bounds) of `more`, min-max
        normalized against its bounds: the one writer of entries. A raw value
        or bound that is not finite raises NumericalError, and none is kept."""
        built = {}
        for name, raw, bounds in ((name, raw, bounds), *more):
            raw = float(raw)
            lo, hi = (float(b) for b in bounds)
            if not all(map(math.isfinite, (raw, lo, hi))):
                raise NumericalError(f"{name} is not finite: raw {raw!r}, bounds ({lo!r}, {hi!r})")
            normalized = 0.0 if hi <= lo else clip01((raw - lo) / (hi - lo))
            built[name] = MetricEntry(raw=raw, normalized=normalized, bounds=(lo, hi))
        self.entries.update(built)

    def normalized(self, name: str) -> float:
        if name not in self.entries:
            raise MissingMetric(f"metric {name!r} not present")
        return self.entries[name].normalized

    def to_json_obj(self) -> dict:
        return {
            name: {"raw": e.raw, "normalized": e.normalized, "bounds": list(e.bounds)}
            for name, e in sorted(self.entries.items())
        }


@dataclass(frozen=True)
class CompositeScore:
    kind: str
    value: float
    weights: tuple[float, ...]
    components: dict
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.value < 0:
            raise InvalidConfig(f"composite value must be >= 0, got {self.value}")

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "weights": list(self.weights),
            "components": self.components,
            "flags": list(self.flags),
        }


def _weighted_composite(kind: str, mv: MetricVector, names, weights, flags=()) -> CompositeScore:
    """Weighted sum of the normalized entries `names` of one metric vector."""
    weights = tuple(float(w) for w in weights)
    if len(weights) != len(names):
        raise InvalidConfig(f"{kind} composite takes {len(names)} weights")
    if any(w < 0 for w in weights):
        raise InvalidConfig("weights must be >= 0")
    components = {}
    value = 0.0
    for name, w in zip(names, weights):
        norm = mv.normalized(name)
        e = mv.entries[name]
        components[name] = {"raw": e.raw, "normalized": norm, "bounds": list(e.bounds), "weight": w}
        value += w * norm
    return CompositeScore(kind=kind, value=value, weights=weights, components=components, flags=tuple(flags))


def classical_complexity(mv: MetricVector, lambda_weights) -> CompositeScore:
    """Weighted sum of the four normalized classical components."""
    return _weighted_composite("classical", mv, CLASSICAL_COMPONENTS, lambda_weights)


def normalize_complexity(scores) -> list[float]:
    """Divide a benchmark collection by its maximum; the max maps to 1.0."""
    values = [float(s) for s in scores]
    if not values:
        raise DegenerateCollection("empty benchmark collection")
    top = max(values)
    if top <= 0:
        raise DegenerateCollection("collection maximum must be > 0")
    return [v / top for v in values]


def _half_split(n: int) -> list[int]:
    return list(range(n // 2))


def mean_bipartite_entropy(e: QuantumEnsemble) -> float:
    """Mean half/half entanglement entropy (bits)."""
    if e.n_qubits < 2:
        return 0.0
    return float(np.mean(reduced_entropies(e.amplitudes, _half_split(e.n_qubits))))


def mean_multipartite_correlation(e: QuantumEnsemble) -> float:
    """Mean of sum_j S(rho_j) - S(rho_full); the full-state entropy vanishes
    for the pure states produced by the simulator. Each S(rho_j) is the
    entropy of a 2x2 reduced state (qmetrics.single_qubit_entropies)."""
    return float(np.mean(single_qubit_entropies(e.amplitudes).sum(axis=1)))


def default_tripartition(n: int) -> tuple[list[int], list[int], list[int]]:
    """Contiguous thirds of the qubit register (as even as possible)."""
    a = list(range(0, math.ceil(n / 3)))
    b = list(range(len(a), len(a) + math.ceil((n - len(a)) / 2)))
    c = list(range(len(a) + len(b), n))
    return a, b, c


def rips_persistence(dm: DistanceMatrix, cfg: ConfigProfile) -> tuple[PersistenceDiagram, float]:
    """The persistence diagram of the Rips filtration of `dm` under the
    config's scale cap, homology dimension and point cap, and the diameter of
    `dm`: the one Rips call of every verb."""
    filtration = rips_filtration(dm, max_scale=cfg.rips_max_scale, max_dim=cfg.max_homology_dim, point_cap=cfg.rips_point_cap)
    return persistence_diagram(filtration), dm.diameter()


def topological_entry(diagram: PersistenceDiagram, diameter: float, n_points: int, cfg: ConfigProfile) -> tuple[float, tuple[float, float]]:
    """topological_complexity(diagram) and its pinned bounds
    (0, sum(w_topology) * N * diameter), as MetricVector.add reads them."""
    bound = max(sum(cfg.w_topology) * n_points * max(diameter, 1e-12), 1e-12)
    return topological_complexity(diagram, cfg.w_topology), (0.0, bound)


def quantum_topology_detail(gram: np.ndarray, cfg: ConfigProfile) -> tuple[PersistenceDiagram, float]:
    """rips_persistence of the fidelity point cloud: `gram` is the
    ensemble's fidelity Gram matrix, and distances are sqrt(1 - fidelity)."""
    return rips_persistence(DistanceMatrix(values=fidelity_distances(gram)), cfg)


def quantum_metrics(e: QuantumEnsemble, cfg: ConfigProfile, mv: MetricVector | None = None) -> MetricVector:
    """The ensemble's metric vector: the mean Schmidt rank and every entry
    the quantum and induced composites read, except M5.

    The fidelity Gram, its Rips persistence, the bipartite entropy and the
    per-state QFIs are computed once and shared by both composites; one SVD
    of the half split gives both the entropy and the Schmidt rank. The
    multipartite correlation sums single-qubit entropies of 2x2 reduced
    states. Each entry is normalized against its pinned bound. M5 needs the
    encoding circuit rather than the ensemble; see expressibility_locality.
    The TEE term of the quantum topological complexity is exactly 0: the
    states are pure and default_tripartition covers the register, so
    S_AB = S_C, S_BC = S_A, S_AC = S_B and S_ABC = 0. The Euler
    characteristic is read at euler_scale_fraction of the filtration scale.

    The entries go into `mv` (a new vector by default), which is returned.
    The topology stage is one attempt that records both entries that read
    the diagram or neither: a failing Rips run (more states than
    rips_point_cap, say) or a value or bound that is not finite (an
    overflowing weight) becomes its flag "error:quantum_topology=...".
    """
    mv = MetricVector() if mv is None else mv
    n = e.n_qubits
    size = e.size
    gram = ensemble_gram(e)
    rank = effective_rank(gram_spectrum(gram))

    def record_topology():
        diagram, diameter = quantum_topology_detail(gram, cfg)
        g1, g2, g3 = (float(g) for g in cfg.gamma_weights)
        euler = euler_characteristic(diagram, cfg.euler_scale_fraction * diagram.max_scale)
        pers = sum(total_persistence(diagram, k) for k in range(cfg.max_homology_dim + 1))
        bound = g1 * n + g2 * size + g3 * size * max(diameter, 1e-12)
        m6 = ("m6_embedding_topology", *topological_entry(diagram, diameter, size, cfg))
        mv.add("quantum_topological_complexity", g2 * euler + g3 * pers, (0.0, bound), m6)

    mv.attempt("quantum_topology", record_topology)
    qfis = collective_z_qfis(e.amplitudes)

    entropy = 0.0
    if n >= 2:
        spectra = schmidt_spectra(e.amplitudes, _half_split(n))
        entropy = float(np.mean(entropy_bits(spectra**2)))
        mv.add("mean_schmidt_rank", float(np.mean(np.sum(spectra > SCHMIDT_TOL, axis=1))), (0.0, float(2 ** (n // 2))))
    mv.add("mean_entanglement_entropy", entropy, (0.0, max(1, n // 2)))
    mv.add("multipartite_correlation", mean_multipartite_correlation(e), (0.0, float(n)))
    mv.add("ensemble_rank_eff", rank, (0.0, float(size)))
    mv.add("magic_monotone", 0.0, (0.0, 1.0))
    mv.add("mean_qfi", float(np.mean(qfis)), (0.0, float(n**2)))
    mv.add("m1_support_dimension", rank, (0.0, float(size)))
    mv.add("m2_qfi_spread", float(np.var(qfis)), (0.0, float(n**4) / 4.0))
    mv.add("m3_entanglement_entropy", entropy, (0.0, max(1, n // 2)))
    mv.add("m4_kernel_flatness", rank / size, (0.0, 1.0))
    return mv


def quantum_complexity(mv: MetricVector, alpha_weights) -> CompositeScore:
    """Six-term quantum-native composite over an ensemble of pure states.

    Terms: mean bipartite entanglement entropy, multipartite total
    correlation, effective rank of the fidelity Gram matrix, the magic
    monotone (unsupported, always 0), mean collective-phase QFI, and the
    quantum topological complexity gamma1 * TEE + gamma2 * Euler + gamma3 *
    total persistence. Reads the entries of quantum_metrics.
    """
    flags = ("qfi_generator=collective_z", "tee_convention=tripartite", "magic_monotone=unsupported")
    return _weighted_composite("quantum", mv, QUANTUM_COMPONENTS, alpha_weights, flags)


def embed_dataset(ds: Dataset, fm: FeatureMap) -> QuantumEnsemble:
    """Encode every row in one batched pass into the uniform ensemble. An
    angle map divides each column by its largest magnitude, which keeps any
    finite span finite, then min-max scales it to [0, 1] over these rows (a
    constant column reads 0); encode_rows scales amplitude rows by 2^-k."""
    x = ds.matrix
    if fm.kind == "angle":
        x = scale_by_max_magnitude(x)
        lo, hi = x.min(axis=0), x.max(axis=0)
        x = (x - lo) / np.where(hi > lo, hi - lo, 1.0)
    return QuantumEnsemble(encode_rows(fm, x))


def expressibility_locality(fm: FeatureMap, n_features: int, cfg: ConfigProfile) -> float:
    """M5, a decided proxy: exp(-KL) of the encoding circuit divided by its
    mean gate support. Defined only for angle maps; basis and amplitude maps
    give 0 and induced_complexity flags them."""
    if fm.kind != "angle":
        return 0.0
    circuit = encoding_circuit(fm, n_features)
    kl = expressibility_kl(circuit, cfg.expressibility_samples, cfg.bins_fidelity, SeededRng(cfg.seed))
    support = float(np.mean([len(g.qubits) for g in circuit.gates]))
    return expressibility_norm_from_kl(kl) / support


def induced_complexity(mv: MetricVector, beta_weights, fm_kind: str) -> CompositeScore:
    """Feature-map-induced composite M1..M6 on the embedded dataset.

    Reads M1..M4 and M6 from quantum_metrics and M5 from
    expressibility_locality; `fm_kind` names the map, since M5 is only
    defined for angle maps.
    """
    m5 = "m5=decided_proxy" if fm_kind == "angle" else "m5=not_applicable"
    return _weighted_composite("induced", mv, INDUCED_COMPONENTS, beta_weights, ("qfi_generator=collective_z", m5))


def trainability_prediction(
    n_qubits: int,
    depth: int,
    c_norm: float,
    alpha: float,
    c_topo_q: float = 0.0,
    delta: float = 0.0,
) -> float:
    """Predicted gradient variance exp(-alpha n d (C + delta C_topo))."""
    if not all(0 <= x < math.inf for x in (n_qubits, depth, c_norm, alpha, c_topo_q, delta)):
        raise InvalidConfig("all model inputs must be finite and >= 0")
    return math.exp(-alpha * n_qubits * depth * (c_norm + delta * c_topo_q))


def fit_alpha(study: GradientStudy, depth: int, c_norm: float) -> float:
    """Recover alpha from a study: least_squares_slope of ln Var over n,
    divided by -depth * c_norm."""
    if len(study.n_range) < 3:
        raise FitError("need at least 3 study points")
    if not all(0 < v < math.inf for v in study.variances):
        raise FitError("variances must be finite and > 0 to fit the log-linear model")
    if not (0 < depth < math.inf and 0 < c_norm < math.inf):
        raise FitError("depth and c_norm must be finite and > 0")
    slope = least_squares_slope(study.n_range, np.log(study.variances))
    return -slope / (depth * c_norm)


def trainability_condition(predicted_var: float, epsilon_grad: float) -> bool:
    """Trainable iff the predicted variance stays at or above the noise floor."""
    if not (0 <= predicted_var < math.inf and 0 <= epsilon_grad < math.inf):
        raise InvalidConfig("inputs must be finite and >= 0")
    return predicted_var >= epsilon_grad


def expressibility_norm_from_kl(kl: float) -> float:
    """Map a KL expressibility gap onto [0, 1] as exp(-KL).

    1 means Haar-like coverage, 0 means no coverage; this is the pinned scale
    that makes the mismatch penalty comparable to normalized complexity.
    """
    if kl < 0:
        raise InvalidConfig("KL divergence must be >= 0")
    return math.exp(-kl)


def generalization_gap(
    eps_emp: float,
    expressibility_norm: float,
    c_data_norm: float,
    lambda_penalty: float,
) -> float:
    """Empirical error plus the mismatch penalty lambda |E - C|."""
    if min(eps_emp, expressibility_norm, c_data_norm, lambda_penalty) < 0:
        raise InvalidConfig("inputs must be >= 0")
    return eps_emp + lambda_penalty * abs(expressibility_norm - c_data_norm)


def circuit_resource_estimate(c_norm: float, cfg: ConfigProfile) -> tuple[int, int]:
    """Heuristic (qubits, depth) requirement, monotone in the complexity score."""
    if not 0.0 <= c_norm <= 1.0:
        raise InvalidConfig("c_norm must lie in [0, 1]")
    qubits = math.ceil(cfg.resource_q0 + cfg.resource_q1 * c_norm)
    depth = math.ceil(cfg.resource_d0 * math.exp(cfg.resource_d1 * c_norm))
    return qubits, depth
