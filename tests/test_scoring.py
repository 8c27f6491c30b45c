import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import rotation_matrix
from datacomplexity.config import ConfigProfile, SeededRng
from datacomplexity.dataset import Dataset
from datacomplexity.errors import (
    DegenerateCollection,
    FitError,
    InvalidConfig,
    MissingMetric,
    NumericalError,
)
from datacomplexity.qmetrics import (
    GradientStudy,
    ensemble_gram,
    topological_entanglement_entropies,
    uniform_ensemble,
)
from datacomplexity.report import profile_quantum
from datacomplexity.scoring import (
    MetricVector,
    circuit_resource_estimate,
    classical_complexity,
    default_tripartition,
    embed_dataset,
    fit_alpha,
    generalization_gap,
    mean_bipartite_entropy,
    normalize_complexity,
    quantum_complexity,
    quantum_metrics,
    quantum_topology_detail,
    trainability_condition,
    trainability_prediction,
)
from datacomplexity.simulator import (
    FeatureMap,
    StateVector,
    random_layered_circuit,
    run_circuit,
    zero_state,
)
from datacomplexity.topology import total_persistence

CFG = ConfigProfile()


def metric_vector(values: dict) -> MetricVector:
    mv = MetricVector()
    for name, value in values.items():
        mv.add(name, value, (0.0, 1.0))
    return mv


def classical_mv(s=0.5, i=0.5, k=0.5, t=0.5):
    return metric_vector(
        {
            "distributional_entropy": s,
            "interaction_order": i,
            "compression_ratio": k,
            "topological_complexity": t,
        }
    )


# ---------------------------------------------------------------------------
# classical composite


def test_weight_selection_picks_entropy():
    mv = classical_mv(s=0.73)
    score = classical_complexity(mv, (1.0, 0.0, 0.0, 0.0))
    assert score.value == pytest.approx(0.73)


def test_zero_components_zero_score():
    score = classical_complexity(classical_mv(0, 0, 0, 0), (0.25,) * 4)
    assert score.value == 0.0


def test_uniform_half_components():
    score = classical_complexity(classical_mv(), (0.25,) * 4)
    assert score.value == pytest.approx(0.5)


def test_missing_component_rejected():
    mv = metric_vector({"distributional_entropy": 0.5})
    with pytest.raises(MissingMetric):
        classical_complexity(mv, (0.25,) * 4)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("where", [0, 1, 2], ids=["raw", "lo", "hi"])
def test_add_rejects_a_non_finite_value_or_bound(where, bad):
    """An entry whose raw value or bound is not finite raises NumericalError,
    and no entry of that call is recorded, a finite one before it included."""
    raw_lo_hi = [0.5, 0.0, 1.0]
    raw_lo_hi[where] = bad
    raw, lo, hi = raw_lo_hi
    mv = MetricVector()
    with pytest.raises(NumericalError, match="^bad is not finite"):
        mv.add("good", 0.5, (0.0, 1.0), ("bad", raw, (lo, hi)))
    assert mv.entries == {}


def test_attempt_flags_a_non_finite_metric():
    """attempt records its metric inside its try: a value or bound that is
    not finite becomes the stage's flag, and attempt gives None."""
    mv = MetricVector()
    assert mv.attempt("huge", lambda: 1e308 * 10.0, (0.0, 1.0)) is None
    assert mv.attempt("wide", lambda: 0.5, (0.0, 1e308 * 10.0)) is None
    assert mv.attempt("fine", lambda: 0.5, (0.0, 1.0)) == 0.5
    assert mv.flags == [
        "error:huge=huge is not finite: raw inf, bounds (0.0, 1.0)",
        "error:wide=wide is not finite: raw 0.5, bounds (0.0, inf)",
    ]
    assert list(mv.entries) == ["fine"]
    assert list(mv.timings) == ["huge", "wide", "fine"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0, 1), min_size=4, max_size=4),
    st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0),
)
def test_composite_in_unit_interval_under_simplex_weights(components, weights):
    total = sum(weights)
    simplex = tuple(w / total for w in weights)
    score = classical_complexity(classical_mv(*components), simplex)
    assert -1e-12 <= score.value <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_composite_monotone_in_components(low, high):
    lo, hi = sorted((low, high))
    weights = (0.25,) * 4
    a = classical_complexity(classical_mv(s=lo), weights).value
    b = classical_complexity(classical_mv(s=hi), weights).value
    assert b >= a - 1e-12


# ---------------------------------------------------------------------------
# benchmark normalization


def test_normalize_pair():
    assert normalize_complexity([2.0, 4.0]) == pytest.approx([0.5, 1.0])


def test_normalize_singleton():
    assert normalize_complexity([3.7]) == [1.0]


def test_normalize_degenerate():
    with pytest.raises(DegenerateCollection):
        normalize_complexity([0.0, 0.0])


def test_normalize_scale_invariant():
    values = [1.0, 2.5, 4.0]
    assert normalize_complexity(values) == pytest.approx(
        normalize_complexity([v * 17.3 for v in values])
    )


def test_normalize_max_exactly_one():
    out = normalize_complexity([0.3, 7.7, 1.2])
    assert max(out) == 1.0


# ---------------------------------------------------------------------------
# quantum composite


def test_identical_product_ensemble(product_plus_state):
    e = uniform_ensemble([product_plus_state] * 3)
    score = quantum_complexity(quantum_metrics(e, CFG), (1 / 6,) * 6)
    comps = score.components
    assert comps["mean_entanglement_entropy"]["raw"] == pytest.approx(0.0, abs=1e-9)
    assert comps["multipartite_correlation"]["raw"] == pytest.approx(0.0, abs=1e-9)
    assert comps["ensemble_rank_eff"]["raw"] == pytest.approx(1.0, abs=1e-6)
    assert "magic_monotone=unsupported" in score.flags


def test_bell_ensemble_entropy(bell_state):
    e = uniform_ensemble([bell_state])
    assert mean_bipartite_entropy(e) == pytest.approx(1.0, abs=1e-9)


def test_orthogonal_pair_rank_two():
    zero = zero_state(1)
    one = StateVector(n_qubits=1, amplitudes=np.array([0.0, 1.0], dtype=complex))
    e = uniform_ensemble([zero, one])
    score = quantum_complexity(quantum_metrics(e, CFG), (1 / 6,) * 6)
    assert score.components["ensemble_rank_eff"]["raw"] == pytest.approx(2.0, abs=1e-9)


def test_quantum_composite_unit_interval(ghz3_state, bell_state):
    e = uniform_ensemble([ghz3_state] * 2)
    score = quantum_complexity(quantum_metrics(e, CFG), (1 / 6,) * 6)
    assert 0.0 <= score.value <= 1.0
    for comp in score.components.values():
        assert 0.0 <= comp["normalized"] <= 1.0


def test_quantum_metrics_flags_a_failing_topology():
    # more states than the Rips cap, or a weight whose entry or bound
    # overflows: the vector carries the flag and every entry but the two
    # that read the diagram, neither of which is recorded without the other
    e = phase_ring_ensemble(m=5)
    cases = [
        (ConfigProfile(rips_point_cap=4), "error:quantum_topology=5 points exceeds the cap 4"),
        (
            ConfigProfile(gamma_weights=(0.0, 1e308, 0.0)),
            "error:quantum_topology=quantum_topological_complexity is not finite: raw inf, bounds (0.0, inf)",
        ),
        (ConfigProfile(w_topology=(1e308, 0.5)), "error:quantum_topology=m6_embedding_topology is not finite: raw inf, bounds (0.0, inf)"),
    ]
    for cfg, flag in cases:
        mv = quantum_metrics(e, cfg)
        assert mv.flags == [flag]
        assert "quantum_topological_complexity" not in mv.entries
        assert "m6_embedding_topology" not in mv.entries
        assert mv.entries.keys() == quantum_metrics(e, CFG).entries.keys() - {"quantum_topological_complexity", "m6_embedding_topology"}


# ---------------------------------------------------------------------------
# quantum topological complexity


def phase_ring_ensemble(m=20):
    states = []
    for k in range(m):
        phi = 2 * math.pi * k / m
        amps = np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2)
        states.append(StateVector(n_qubits=1, amplitudes=amps))
    return uniform_ensemble(states)


def test_zero_gamma_weights(product_plus_state):
    e = uniform_ensemble([product_plus_state] * 2)
    cfg = ConfigProfile(gamma_weights=(0.0, 0.0, 0.0))
    score = quantum_complexity(quantum_metrics(e, cfg), (1 / 6,) * 6)
    assert score.components["quantum_topological_complexity"]["raw"] == 0.0


def test_identical_states_zero_persistence(bell_state):
    e = uniform_ensemble([bell_state] * 4)
    diagram, _ = quantum_topology_detail(ensemble_gram(e), CFG)
    assert sum(total_persistence(diagram, k) for k in range(CFG.max_homology_dim + 1)) == pytest.approx(0.0, abs=1e-6)


def test_phase_ring_has_loop():
    e = phase_ring_ensemble()
    diagram, _ = quantum_topology_detail(ensemble_gram(e), CFG)
    h1 = diagram.bars(1)
    assert len(h1) >= 1
    assert sum(b.lifetime for b in h1) > 0.0


@pytest.mark.parametrize("n", range(3, 9))
def test_tee_vanishes_on_pure_states_with_covering_tripartition(n):
    """S_AB = S_C, S_BC = S_A, S_AC = S_B and S_ABC = 0 for a pure state, so
    the tripartite combination is 0 up to rounding on entangled ensembles,
    and quantum_metrics records it as exactly 0: weighted by the TEE alone,
    the quantum topological complexity reads 0.0."""
    rng = SeededRng(60 + n).child()
    states = []
    for _ in range(6):
        circuit = random_layered_circuit(n, 4, rng)
        states.append(run_circuit(circuit, rng.uniform(0, 2 * math.pi, circuit.n_params)))
    e = uniform_ensemble(states)
    assert mean_bipartite_entropy(e) > 0.1  # the states are entangled
    tee = topological_entanglement_entropies(e.amplitudes, *default_tripartition(n))
    assert np.max(np.abs(tee)) <= 1e-12
    tee_only = quantum_metrics(e, ConfigProfile(gamma_weights=(1.0, 0.0, 0.0)))
    assert tee_only.entries["quantum_topological_complexity"].raw == 0.0


def test_default_tripartition_covers_register():
    for n in (3, 4, 5, 8):
        a, b, c = default_tripartition(n)
        assert sorted(a + b + c) == list(range(n))
        assert all(block for block in (a, b, c))


# ---------------------------------------------------------------------------
# induced composite


def one_hot_dataset(n):
    return Dataset(np.eye(n), tuple(f"c{j}" for j in range(n)))


def induced_score(ds, kind):
    """The induced composite of one profile_quantum pass (uniform weights)."""
    return profile_quantum(ds, kind, CFG).composites[0]


def test_basis_one_hot_product_states():
    ds = one_hot_dataset(3)
    score = induced_score(ds, "basis")
    assert score.components["m3_entanglement_entropy"]["raw"] == pytest.approx(0.0, abs=1e-9)
    assert "m5=not_applicable" in score.flags


def test_identical_rows_rank_one_no_topology():
    ds = Dataset(np.tile([[0.3, 0.7]], (5, 1)), ("a", "b"))
    score = induced_score(ds, "angle")
    assert score.components["m1_support_dimension"]["raw"] == pytest.approx(1.0, abs=1e-6)
    assert score.components["m6_embedding_topology"]["raw"] == pytest.approx(0.0, abs=1e-6)
    assert "m5=decided_proxy" in score.flags


def test_amplitude_orthonormal_rows_full_rank():
    ds = one_hot_dataset(4)
    score = induced_score(ds, "amplitude")
    assert score.components["m1_support_dimension"]["raw"] == pytest.approx(4.0, abs=1e-9)
    assert score.components["m4_kernel_flatness"]["raw"] == pytest.approx(1.0, abs=1e-9)


def test_induced_value_unit_interval():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.uniform(size=(12, 3)), ("a", "b", "c"))
    score = induced_score(ds, "angle")
    assert 0.0 <= score.value <= 1.0


def test_embed_dataset_uniform_probabilities():
    ds = one_hot_dataset(3)
    e = embed_dataset(ds, FeatureMap(kind="basis", n_qubits=3))
    assert e.size == 3
    assert e.amplitudes.shape == (3, 8)


def kron_oracle(kind, row, n_qubits, lo, hi):
    """Dense state of one row: a Kronecker product of per-qubit states,
    qubit n-1 leftmost, or the normalized row zero-padded."""
    if kind == "amplitude":
        amps = np.zeros(2**n_qubits)
        amps[: row.size] = row / np.linalg.norm(row)
        return amps
    state = np.ones(1)
    for q in range(n_qubits):
        if q >= row.size:
            one = np.array([1.0, 0.0])
        elif kind == "basis":
            one = np.array([0.0, 1.0]) if row[q] > 0 else np.array([1.0, 0.0])
        else:
            scaled = (row[q] - lo[q]) / (hi[q] - lo[q])
            one = rotation_matrix("RY", math.pi * scaled) @ np.array([1.0, 0.0])
        state = np.kron(one, state)
    return state


@pytest.mark.parametrize("kind,d,extra", [
    ("angle", 4, 0), ("angle", 3, 2),
    ("basis", 4, 0), ("basis", 3, 2),
    ("amplitude", 6, 0), ("amplitude", 6, 2),
])
def test_embed_dataset_matches_kron_oracle(kind, d, extra):
    rng = np.random.default_rng(d + extra)
    x = rng.normal(size=(9, d))
    n_qubits = (math.ceil(math.log2(d)) if kind == "amplitude" else d) + extra
    e = embed_dataset(Dataset(x, tuple(f"c{j}" for j in range(d))), FeatureMap(kind=kind, n_qubits=n_qubits))
    lo, hi = x.min(axis=0), x.max(axis=0)
    expected = np.stack([kron_oracle(kind, row, n_qubits, lo, hi) for row in x])
    assert e.amplitudes.shape == (9, 2**n_qubits)
    assert np.allclose(e.amplitudes, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# trainability model


def test_prediction_identity_at_zero():
    assert trainability_prediction(4, 3, 0.0, 0.5, 0.0, 0.7) == 1.0


def test_prediction_depth_doubling_squares():
    base = trainability_prediction(3, 2, 0.4, 0.3)
    doubled = trainability_prediction(3, 4, 0.4, 0.3)
    assert doubled == pytest.approx(base**2, rel=1e-12)


def test_prediction_closed_form():
    assert trainability_prediction(4, 3, 0.5, 0.1) == pytest.approx(math.exp(-0.6))
    assert trainability_prediction(4, 3, 0.5, 0.1) == pytest.approx(0.5488, abs=5e-5)


def test_prediction_monotone_decreasing():
    base = trainability_prediction(4, 3, 0.5, 0.1, 0.2, 0.5)
    assert trainability_prediction(5, 3, 0.5, 0.1, 0.2, 0.5) <= base
    assert trainability_prediction(4, 4, 0.5, 0.1, 0.2, 0.5) <= base
    assert trainability_prediction(4, 3, 0.6, 0.1, 0.2, 0.5) <= base
    assert trainability_prediction(4, 3, 0.5, 0.1, 0.3, 0.5) <= base


def synthetic_study(alpha, depth, c_norm, n_range=(2, 3, 4, 5, 6), noise=None, seed=0):
    variances = [math.exp(-alpha * n * depth * c_norm) for n in n_range]
    if noise is not None:
        rng = np.random.default_rng(seed)
        variances = [v * math.exp(rng.normal(0, noise)) for v in variances]
    return GradientStudy(
        n_range=tuple(n_range),
        depth=depth,
        n_samples=200,
        cost_kind="global",
        variances=tuple(variances),
        fitted_slope=0.0,
        seed=seed,
    )


def test_fit_alpha_noise_free_round_trip():
    study = synthetic_study(alpha=0.2, depth=2, c_norm=0.5)
    assert fit_alpha(study, 2, 0.5) == pytest.approx(0.2, abs=1e-9)


def test_fit_alpha_with_noise_within_5pct():
    study = synthetic_study(alpha=0.3, depth=3, c_norm=0.8, noise=0.01, seed=4)
    assert fit_alpha(study, 3, 0.8) == pytest.approx(0.3, rel=0.05)


def test_fit_alpha_flat_variances():
    study = GradientStudy((2, 3, 4), 2, 200, "global", (0.25, 0.25, 0.25), 0.0, 0)
    assert fit_alpha(study, 2, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_fit_alpha_two_points_rejected():
    study = GradientStudy((2, 3), 2, 200, "global", (0.5, 0.25), 0.0, 0)
    with pytest.raises(FitError):
        fit_alpha(study, 2, 0.5)


def test_fit_alpha_nonpositive_variance_rejected():
    study = GradientStudy((2, 3, 4), 2, 200, "global", (0.5, 0.0, 0.25), 0.0, 0)
    with pytest.raises(FitError):
        fit_alpha(study, 2, 0.5)


def test_trainability_condition():
    assert trainability_condition(0.5, 1e-4)
    assert not trainability_condition(1e-6, 1e-4)
    assert trainability_condition(1e-4, 1e-4)  # boundary counts as trainable


# ---------------------------------------------------------------------------
# generalization gap and resources


def test_gap_examples():
    assert generalization_gap(0.1, 0.5, 0.5, 2.0) == pytest.approx(0.1)
    assert generalization_gap(0.1, 0.9, 0.2, 0.0) == pytest.approx(0.1)
    assert generalization_gap(0.1, 0.8, 0.5, 1.0) == pytest.approx(0.4)


def test_expressibility_norm_mapping():
    from datacomplexity.scoring import expressibility_norm_from_kl

    assert expressibility_norm_from_kl(0.0) == 1.0
    assert expressibility_norm_from_kl(math.log(4)) == pytest.approx(0.25)
    assert 0.0 < expressibility_norm_from_kl(20.0) < 1e-8


def test_gap_minimized_at_match():
    for e in np.linspace(0, 1, 11):
        assert generalization_gap(0.1, e, 0.4, 1.0) >= generalization_gap(0.1, 0.4, 0.4, 1.0)


def test_resource_estimate_baseline_and_max():
    assert circuit_resource_estimate(0.0, CFG) == (2, 1)
    assert circuit_resource_estimate(1.0, CFG) == (10, 8)


def test_resource_estimate_monotone():
    prev = circuit_resource_estimate(0.0, CFG)
    for c in np.linspace(0, 1, 21):
        cur = circuit_resource_estimate(float(c), CFG)
        assert cur[0] >= prev[0] and cur[1] >= prev[1]
        prev = cur


def test_resource_estimate_range_check():
    with pytest.raises(InvalidConfig):
        circuit_resource_estimate(1.5, CFG)
