"""Report assembly, JSON schema, and the profiling pipelines behind the CLI.

Each pipeline computes its metrics once into the report's MetricVector and
reads the composites from it: profile_classical for the classical suite,
profile_quantum for one embedding of the dataset and the quantum suite,
barren_study_report for the gradient-variance study (the returned report's
gradient_study). Every stage runs through the vector, which records its
timing, its flags and its failure: mv.time lets a toolkit error end the run,
and mv.attempt turns it into an "error:<name>=..." flag of a partial report;
a metric that is not finite is such an error (MetricVector.add). Each
verb's topology stage is one mv.attempt that records its own entries.
All three pipelines build the report through one path, _assemble: each
composite is one mv.attempt, the first composite sets the resource
estimate, and the ComplexityReport is constructed there alone.

Reports are byte-identical under (inputs, config, seed) on one numpy and
BLAS build, CPU kernel and BLAS thread count; elsewhere their floats may
move in the last digits (README). Keys are sorted, floats serialize via
repr, and wall-clock timings are kept out of the JSON unless explicitly
requested (they are the one non-reproducible field).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .classical import (
    covariance_spectrum,
    compression_ratio,
    distributional_entropy,
    gram_spectrum,
    intrinsic_dimension,
    interaction_order,
    kernel_effective_dimension,
    kernel_gram,
    effective_rank,
)
from .config import ConfigProfile, SeededRng
from .dataset import Dataset, standardize
from .qmetrics import GradientStudy, gradient_variance_study
from .scoring import (
    CompositeScore,
    MetricVector,
    classical_complexity,
    circuit_resource_estimate,
    clip01,
    embed_dataset,
    expressibility_locality,
    induced_complexity,
    quantum_complexity,
    quantum_metrics,
    rips_persistence,
    topological_entry,
)
from .simulator import MAX_QUBITS, FeatureMap, required_qubits
from .topology import distance_matrix_from_points, total_persistence

SCHEMA_VERSION = "v1"

REPORT_SCHEMA_V1 = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "datacomplexity report",
    "type": "object",
    "required": [
        "schema_version",
        "tool_version",
        "config_hash",
        "seed",
        "dataset",
        "metrics",
        "composites",
        "flags",
        "normalization_mode",
    ],
    "properties": {
        "schema_version": {"const": "v1"},
        "tool_version": {"type": "string"},
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{16}$"},
        "seed": {"type": "integer"},
        "dataset": {"type": "object"},
        "metrics": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["raw", "normalized", "bounds"],
                "properties": {
                    "raw": {"type": "number"},
                    "normalized": {"type": "number", "minimum": 0, "maximum": 1},
                    "bounds": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "composites": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "value", "weights", "components", "flags"],
                "properties": {
                    "kind": {"enum": ["classical", "quantum", "induced"]},
                    "value": {"type": "number"},
                    "weights": {"type": "array", "items": {"type": "number"}},
                    "components": {"type": "object"},
                    "flags": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "topology": {"type": ["object", "null"]},
        "gradient_study": {"type": ["object", "null"]},
        "resource_estimate": {"type": ["object", "null"]},
        "flags": {"type": "array", "items": {"type": "string"}},
        "normalization_mode": {"type": "string"},
        "timings_ms": {"type": ["object", "null"]},
    },
    "additionalProperties": False,
}


@dataclass
class ComplexityReport:
    config_hash: str
    seed: int
    dataset: dict
    metrics: MetricVector
    composites: list[CompositeScore]
    topology: dict | None = None
    gradient_study: GradientStudy | None = None
    resource_estimate: dict | None = None

    def to_json_obj(self, include_timings: bool = False) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "dataset": self.dataset,
            "metrics": self.metrics.to_json_obj(),
            "composites": [c.to_json_obj() for c in self.composites],
            "topology": self.topology,
            "gradient_study": self.gradient_study.to_json_obj() if self.gradient_study else None,
            "resource_estimate": self.resource_estimate,
            "flags": sorted(self.metrics.flags),
            "normalization_mode": "pinned_bounds",
            "timings_ms": dict(sorted(self.metrics.timings.items())) if include_timings else None,
        }

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_json_obj(include_timings), sort_keys=True, indent=2) + "\n"


def config_hash_hex(cfg: ConfigProfile) -> str:
    return format(cfg.config_hash(), "016x")


def _diagram_summary(diagram) -> dict:
    h0 = diagram.bars(0)
    h1 = diagram.bars(1)
    max_h0_finite = max((b.lifetime for b in h0 if not b.infinite), default=0.0)
    max_h1 = max((b.lifetime for b in h1), default=0.0)
    return {
        "max_scale": diagram.max_scale,
        "max_dim": diagram.max_dim,
        "n_bars": {str(k): len(diagram.bars(k)) for k in range(diagram.max_dim + 1)},
        "total_persistence": {
            str(k): total_persistence(diagram, k) for k in range(diagram.max_dim + 1)
        },
        "betti_1_dominant": bool(max_h1 > max_h0_finite),
        "intervals": diagram.to_json_obj(),
    }


def _assemble(cfg: ConfigProfile, dataset: dict, mv: MetricVector, builders=(), **fields) -> ComplexityReport:
    """The report of every verb: its metrics, flags, timings and composites.

    `builders` holds (name, build) pairs. Each build() reads `mv` into a
    composite through mv.attempt, so a missing metric becomes the flag
    "error:<name>=..." of a partial report. The first composite (the
    classical one, or the one induced by the feature map) sets the resource
    estimate when it is built.
    """
    built = [mv.attempt(name, build) for name, build in builders]
    resource = None
    if built and built[0] is not None:
        qubits, depth = circuit_resource_estimate(clip01(built[0].value), cfg)
        resource = {"qubits": qubits, "depth": depth}
    return ComplexityReport(
        config_hash=config_hash_hex(cfg),
        seed=cfg.seed,
        dataset=dataset,
        metrics=mv,
        composites=[c for c in built if c is not None],
        resource_estimate=resource,
        **fields,
    )


def profile_classical(ds: Dataset, cfg: ConfigProfile, use_standardized: bool = True) -> ComplexityReport:
    """Run the full classical metric suite plus topology and the composite.

    Each metric is one mv.attempt: a failing metric, or one that is not
    finite, is recorded as an "error:<name>=..." flag and skipped, so the
    report stays partial rather than aborting the run.
    """
    mv = MetricVector(["infinite_bars=capped_at_max_scale"])
    work = ds
    if use_standardized and not ds.is_standardized and ds.n_samples >= 2:
        work = mv.time("standardize", lambda: standardize(ds))
    mv.flags.append("metrics_input=standardized" if work.is_standardized else "metrics_input=raw")
    n, d = work.n_samples, work.n_features

    entropy_bound = max(math.log2(n), 1e-12) if n > 1 else 1.0
    # Bin ids are invariant under each column's z-score map, so they are read
    # from the input, constant columns as 0: on z-scores, the rounding of a
    # column mean (which depends on row order) can move a value that lies on
    # a bin edge into the bin below.
    constant = np.isin(np.arange(d), work.constant_columns)
    binned = Dataset(np.where(constant, 0.0, ds.matrix), ds.column_names)
    mv.attempt("distributional_entropy", lambda: distributional_entropy(binned, cfg.bins_entropy), (0.0, entropy_bound))
    if work.is_standardized:
        mv.attempt("interaction_order", lambda: interaction_order(work, cfg.epsilon_cumulant), (1.0, 4.0))
    else:
        mv.add("interaction_order", 1.0, (1.0, 4.0))
        mv.flags.append("interaction_order=raw_input_floor")
    mv.attempt("compression_ratio", lambda: compression_ratio(work), (0.0, 1.0))

    if n >= 2:
        spectrum = mv.attempt("covariance_spectrum", lambda: covariance_spectrum(work))
        if spectrum is not None:
            mv.attempt("intrinsic_dimension", lambda: intrinsic_dimension(spectrum), (0.0, float(d)))
    else:
        mv.flags.append("covariance=skipped_single_row")

    kspec = mv.attempt("kernel_spectrum", lambda: gram_spectrum(kernel_gram(work, cfg.kernel_kind, cfg.kernel_bandwidth)))
    if kspec is not None:
        mv.attempt("kernel_effective_dimension", lambda: kernel_effective_dimension(kspec, cfg.kernel_ridge), (0.0, float(n)))
        mv.attempt("kernel_effective_rank", lambda: effective_rank(kspec), (0.0, float(n)))

    def record_topology():
        diagram, diameter = rips_persistence(distance_matrix_from_points(work.matrix), cfg)
        mv.add("topological_complexity", *topological_entry(diagram, diameter, n, cfg))
        return diagram

    diagram = mv.attempt("persistence", record_topology)

    builders = [("classical_complexity", lambda: classical_complexity(mv, cfg.lambda_weights))]
    topology = _diagram_summary(diagram) if diagram is not None else None
    return _assemble(cfg, ds.describe(), mv, builders, topology=topology)


def profile_quantum(
    ds: Dataset,
    fm_kind: str,
    cfg: ConfigProfile,
    n_qubits: int | None = None,
) -> ComplexityReport:
    """Embed every row once and run the quantum metric suite plus both composites.

    One pass: quantum_metrics computes every ensemble metric once into the
    report's MetricVector, M5 is added next to them, and the induced and
    quantum composites are weighted reads of that vector, like the classical
    composite. Rows are embedded raw (embed_dataset scales them); the report
    records that choice. As in profile_classical, a failing topology stage
    or M5, and each composite it leaves incomplete, become
    "error:<name>=..." flags of a partial report. The default register is
    the smallest that holds a row, capped at MAX_QUBITS; FeatureMap checks
    1..MAX_QUBITS and encode_rows is the one check that a row fits.
    """
    if n_qubits is None:
        n_qubits = min(required_qubits(fm_kind, ds.n_features), MAX_QUBITS)
    fm = FeatureMap(kind=fm_kind, n_qubits=n_qubits)
    mv = MetricVector(["embedding_input=raw", f"feature_map={fm_kind}", "infinite_bars=capped_at_max_scale"])
    ensemble = mv.time("embed", lambda: embed_dataset(ds, fm))
    mv.time("quantum_metrics", lambda: quantum_metrics(ensemble, cfg, mv))
    mv.attempt("m5_expressibility_locality", lambda: expressibility_locality(fm, ds.n_features, cfg), (0.0, 1.0))
    builders = [
        ("induced_complexity", lambda: induced_complexity(mv, cfg.beta_weights, fm_kind)),
        ("quantum_complexity", lambda: quantum_complexity(mv, cfg.alpha_weights)),
    ]
    return _assemble(cfg, ds.describe(), mv, builders)


def barren_study_report(
    n_min: int,
    n_max: int,
    depth: int,
    n_samples: int,
    cost_kind: str,
    cfg: ConfigProfile,
) -> ComplexityReport:
    """Run the study over n_min..n_max qubits and return its report, whose
    gradient_study is the study."""
    study = gradient_variance_study(
        range(n_min, n_max + 1), depth, n_samples, cost_kind, SeededRng(cfg.seed)
    )
    mv = MetricVector([f"cost_kind={cost_kind}"])
    mv.add("fitted_slope", study.fitted_slope, (-2.0, 0.0))
    dataset = {"source": f"barren_study:n={n_min}..{n_max},depth={depth}"}
    return _assemble(cfg, dataset, mv, gradient_study=study)


def render_report(obj: dict) -> str:
    """Human-readable table for a validated report JSON object."""
    lines = []
    lines.append(f"datacomplexity report (schema {obj['schema_version']}, tool {obj['tool_version']})")
    lines.append(f"config hash: {obj['config_hash']}  seed: {obj['seed']}")
    src = obj["dataset"].get("source", "?")
    lines.append(f"dataset: {src}")
    if obj["dataset"].get("n_samples") is not None:
        lines.append(
            f"  shape: {obj['dataset']['n_samples']} x {obj['dataset']['n_features']}"
        )
    lines.append("")
    lines.append(f"{'metric':<34}{'raw':>14}{'normalized':>12}")
    lines.append("-" * 60)
    for name, entry in obj["metrics"].items():
        lines.append(f"{name:<34}{entry['raw']:>14.6g}{entry['normalized']:>12.4f}")
    if obj["composites"]:
        lines.append("")
        lines.append("composites:")
        for comp in obj["composites"]:
            lines.append(f"  {comp['kind']:<10} {comp['value']:.6f}")
            for flag in comp["flags"]:
                lines.append(f"    flag: {flag}")
    if obj.get("gradient_study"):
        gs = obj["gradient_study"]
        lines.append("")
        lines.append(
            f"gradient study: depth={gs['depth']} samples={gs['n_samples']} "
            f"cost={gs['cost_kind']} slope={gs['fitted_slope']:.4f}"
        )
        for n, v in zip(gs["n_range"], gs["variances"]):
            lines.append(f"  n={n:<3d} var={v:.6e}")
    if obj.get("resource_estimate"):
        re_ = obj["resource_estimate"]
        lines.append("")
        lines.append(f"resource estimate: {re_['qubits']} qubits, depth {re_['depth']}")
    lines.append("")
    lines.append("flags:")
    for flag in obj["flags"]:
        lines.append(f"  {flag}")
    return "\n".join(lines) + "\n"
