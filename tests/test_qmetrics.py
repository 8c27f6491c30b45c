import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from datacomplexity import qmetrics
from datacomplexity.config import SeededRng
from datacomplexity.errors import (
    ArityError,
    EnsembleError,
    InvalidConfig,
    InvalidState,
    InvalidSubset,
    OrderTooHigh,
)
from datacomplexity.qmetrics import (
    _pair_rotations,
    _product_pair_fidelities,
    _statevector_pair_fidelities,
    GradientStudy,
    QuantumEnsemble,
    circuit_error_rate,
    collective_z_qfi,
    connected_correlator,
    ensemble_gram,
    expressibility_kl,
    fidelity_distances,
    gradient,
    gradient_variance_study,
    haar_bin_masses,
    haar_fidelity_pdf,
    least_squares_slope,
    pure_state_qfi,
    quantum_interaction_order,
    quantum_mutual_information,
    reduced_entropies,
    sample_fidelities,
    schmidt_rank,
    schmidt_spectra,
    single_qubit_entropies,
    topological_entanglement_entropy,
    uniform_ensemble,
    von_neumann_entropy,
)
from datacomplexity.simulator import (
    FIXED_GATES,
    MAX_QUBITS,
    ROTATION_GATES,
    DensityMatrix,
    FeatureMap,
    Gate,
    ParameterizedCircuit,
    StateVector,
    bipartition,
    encoding_circuit,
    layered_layout,
    partial_trace,
    partial_trace_density,
    qubit_subset,
    random_layered_circuit,
    require_qubits,
    run_circuit,
    zero_state,
)

# ---------------------------------------------------------------------------
# entropies


def test_entropy_pure_state(bell_state):
    rho = partial_trace(bell_state, [0, 1])
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)


def test_entropy_maximally_mixed_one_qubit():
    rho = DensityMatrix(n_qubits=1, values=np.eye(2) / 2)
    assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)


def test_entropy_maximally_mixed_two_qubits():
    rho = DensityMatrix(n_qubits=2, values=np.eye(4) / 4)
    assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)


def test_bell_bipartite_entropy(bell_state):
    assert von_neumann_entropy(partial_trace(bell_state, [0])) == pytest.approx(1.0, abs=1e-9)


def test_ghz_single_qubit_entropy(ghz3_state):
    for q in range(3):
        s = von_neumann_entropy(partial_trace(ghz3_state, [q]))
        assert s == pytest.approx(1.0, abs=1e-9)


def random_layered_states(n, count, seed):
    rng = SeededRng(seed).child()
    states = []
    for _ in range(count):
        circuit = random_layered_circuit(n, 3, rng)
        states.append(run_circuit(circuit, rng.uniform(0, 2 * math.pi, circuit.n_params)))
    return states


@pytest.mark.parametrize("n", range(1, 7))
def test_batched_entropies_match_density_matrix_path(n):
    """One SVD per batch and bipartition gives every state's reduced
    entropy, for every kept subset including the whole register."""
    states = random_layered_states(n, 5, seed=40 + n)
    amps = np.stack([s.amplitudes for s in states])
    for k in range(1, n + 1):
        for keep in itertools.combinations(range(n), k):
            batched = reduced_entropies(amps, keep)
            expected = [von_neumann_entropy(partial_trace(s, keep)) for s in states]
            assert batched == pytest.approx(expected, abs=1e-12)
            # the squared Schmidt coefficients are the reduced spectrum
            spectra = schmidt_spectra(amps, keep) ** 2
            for s, lam in zip(states, spectra):
                ev = np.sort(partial_trace(s, keep).eigenvalues())[::-1][: lam.size]
                assert lam == pytest.approx(ev, abs=1e-12)


def ghz_amplitudes(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return amps


@pytest.mark.parametrize("n", range(1, 9))
def test_single_qubit_entropies_match_partial_trace(n, monkeypatch):
    """The 2x2 closed form gives every qubit's entropy of product, GHZ and
    random layered states as the density-matrix path does, across row
    chunks of 4 states (the last one short)."""
    monkeypatch.setattr(qmetrics, "CHUNK_BYTES", 4 * 16 * 2**n)
    rng = np.random.default_rng(70 + n)
    product = np.ones(1, dtype=complex)
    for _ in range(n):
        # each factor is the next qubit, the most significant bit so far
        factor = rng.normal(size=2) + 1j * rng.normal(size=2)
        product = np.kron(factor / np.linalg.norm(factor), product)
    states = [StateVector(n, product), StateVector(n, ghz_amplitudes(n))]
    states += random_layered_states(n, 4, seed=80 + n)
    amps = np.stack([s.amplitudes for s in states])
    entropies = single_qubit_entropies(amps)
    assert entropies.shape == (len(states), n)
    expected = [[von_neumann_entropy(partial_trace(s, [q])) for q in range(n)] for s in states]
    assert entropies == pytest.approx(np.array(expected), abs=1e-12)
    assert entropies[0] == pytest.approx(np.zeros(n), abs=1e-12)
    if n >= 2:
        assert entropies[1] == pytest.approx(np.ones(n), abs=1e-12)


def test_entropy_symmetry_over_bipartitions():
    rng = SeededRng(400).child()
    circuit = random_layered_circuit(5, 3, rng)
    state = run_circuit(circuit, rng.uniform(0, 2 * math.pi, circuit.n_params))
    for keep in ([0], [0, 1], [0, 2, 4], [1, 3]):
        complement = [q for q in range(5) if q not in keep]
        s_a = von_neumann_entropy(partial_trace(state, keep))
        s_b = von_neumann_entropy(partial_trace(state, complement))
        assert s_a == pytest.approx(s_b, abs=1e-9)


# ---------------------------------------------------------------------------
# Schmidt rank


def test_schmidt_rank_bell(bell_state):
    assert schmidt_rank(bell_state, [0]) == 2


def test_schmidt_rank_product(product_plus_state):
    assert schmidt_rank(product_plus_state, [0]) == 1


def test_schmidt_rank_haar_random_two_qubits():
    from datacomplexity.simulator import StateVector

    rng = SeededRng(42).child()
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = StateVector(n_qubits=2, amplitudes=amps)
    # SVD oracle: rank deficiency has measure zero for a generic state
    mat = amps.reshape(2, 2).T
    sv = np.linalg.svd(mat, compute_uv=False)
    assert schmidt_rank(state, [0]) == int(np.sum(sv > 1e-10)) == 2


def test_schmidt_rank_trivial_partition(bell_state):
    with pytest.raises(InvalidSubset):
        schmidt_rank(bell_state, [0, 1])


def test_schmidt_rank_one_iff_zero_entropy():
    rng = SeededRng(43).child()
    for _ in range(10):
        circuit = random_layered_circuit(3, 2, rng)
        state = run_circuit(circuit, rng.uniform(0, 2 * math.pi, circuit.n_params))
        rank = schmidt_rank(state, [0])
        entropy = von_neumann_entropy(partial_trace(state, [0]))
        assert (rank == 1) == (entropy < 1e-9)


# ---------------------------------------------------------------------------
# mutual information


def test_mutual_information_bell(bell_state):
    assert quantum_mutual_information(bell_state, [0], [1]) == pytest.approx(2.0, abs=1e-9)


def test_mutual_information_product(product_plus_state):
    assert quantum_mutual_information(product_plus_state, [0], [1]) == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_classical_mixture():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    mixed = DensityMatrix(n_qubits=2, values=rho)
    assert quantum_mutual_information(mixed, [0], [1]) == pytest.approx(1.0, abs=1e-9)


def test_mutual_information_overlap_rejected(bell_state):
    with pytest.raises(InvalidSubset):
        quantum_mutual_information(bell_state, [0], [0, 1])


def test_mutual_information_bounds():
    rng = SeededRng(44).child()
    for _ in range(8):
        circuit = random_layered_circuit(4, 3, rng)
        state = run_circuit(circuit, rng.uniform(0, 2 * math.pi, circuit.n_params))
        info = quantum_mutual_information(state, [0, 1], [2, 3])
        s_a = von_neumann_entropy(partial_trace(state, [0, 1]))
        s_b = von_neumann_entropy(partial_trace(state, [2, 3]))
        assert -1e-9 <= info <= 2 * min(s_a, s_b) + 1e-9


# ---------------------------------------------------------------------------
# connected correlators


def test_bell_zz_correlator(bell_state):
    assert connected_correlator(bell_state, [(0, "Z"), (1, "Z")]) == pytest.approx(1.0, abs=1e-10)


def test_ghz_xxx_correlator(ghz3_state):
    assert connected_correlator(ghz3_state, [(0, "X"), (1, "X"), (2, "X")]) == pytest.approx(
        1.0, abs=1e-10
    )


def test_product_state_correlators_vanish(product_plus_state):
    for obs in ([(0, "Z"), (1, "Z")], [(0, "X"), (1, "X")], [(0, "Z"), (1, "X")]):
        assert connected_correlator(product_plus_state, obs) == pytest.approx(0.0, abs=1e-10)


def test_correlator_order_cap(ghz3_state):
    with pytest.raises(OrderTooHigh):
        rng = SeededRng(0).child()
        c = random_layered_circuit(5, 1, rng)
        state = run_circuit(c, rng.uniform(0, 2 * math.pi, c.n_params))
        connected_correlator(state, [(q, "Z") for q in range(5)])


def test_quantum_interaction_order_examples(bell_state, ghz3_state, product_plus_state):
    assert quantum_interaction_order(ghz3_state, 0.1) == 3
    assert quantum_interaction_order(product_plus_state, 0.1) == 1
    assert quantum_interaction_order(bell_state, 0.1) == 2


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_quantum_interaction_order_rejects_bad_epsilon(ghz3_state, epsilon):
    assert quantum_interaction_order(ghz3_state, 0.1) == 3
    with pytest.raises(InvalidConfig, match="epsilon"):
        quantum_interaction_order(ghz3_state, epsilon)


# ---------------------------------------------------------------------------
# Haar fidelity distribution


def test_haar_pdf_one_qubit_uniform():
    for f in (0.0, 0.3, 1.0):
        assert haar_fidelity_pdf(1, f) == 1.0


def test_haar_pdf_two_qubit_endpoint():
    assert haar_fidelity_pdf(2, 1.0) == 0.0


@pytest.mark.parametrize("n", range(1, 7))
def test_haar_pdf_integrates_to_one(n):
    value, _ = quad(lambda f: haar_fidelity_pdf(n, f), 0.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_haar_bin_masses_sum_to_one():
    for n in (1, 2, 4):
        assert haar_bin_masses(n, 75).sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# expressibility


def test_expressibility_identity_worse_than_ansatz():
    identity = ParameterizedCircuit(1, (), 0)
    ansatz = random_layered_circuit(1, 1, SeededRng(99).child(1))
    kl_identity = expressibility_kl(identity, 500, 75, SeededRng(3))
    kl_ansatz = expressibility_kl(ansatz, 500, 75, SeededRng(3))
    assert kl_identity > kl_ansatz


def test_expressibility_depth_ordering():
    kl = {}
    for depth in (1, 3):
        circuit = random_layered_circuit(2, depth, SeededRng(99).child(depth))
        kl[depth] = expressibility_kl(circuit, 2000, 75, SeededRng(11))
    assert kl[3] < kl[1]


def test_deep_ansatz_near_haar():
    circuit = random_layered_circuit(2, 8, SeededRng(99).child(8))
    kl = expressibility_kl(circuit, 5000, 75, SeededRng(7))
    assert kl < 0.1


def test_expressibility_layer_monotonicity_within_noise():
    values = []
    for depth in (1, 2, 4):
        circuit = random_layered_circuit(2, depth, SeededRng(123).child(depth))
        values.append(expressibility_kl(circuit, 2000, 75, SeededRng(5)))
    for previous, current in zip(values, values[1:]):
        assert current <= previous + max(0.1 * previous, 0.05)


def random_product_circuit(n, n_gates, rng):
    """Random single-qubit gates only: RX/RY/RZ by parameter slot or fixed
    angle and H/X/Y/Z, possibly leaving qubits without a gate."""
    gates, slots = [], 0
    for _ in range(n_gates):
        q = int(rng.integers(n))
        kind = int(rng.integers(3))
        if kind == 0:
            gates.append(Gate(ROTATION_GATES[rng.integers(3)], (q,), param_slot=slots))
            slots += 1
        elif kind == 1:
            gates.append(Gate(ROTATION_GATES[rng.integers(3)], (q,), angle=float(rng.uniform(-7, 7))))
        else:
            gates.append(Gate(sorted(FIXED_GATES)[rng.integers(len(FIXED_GATES))], (q,)))
    return ParameterizedCircuit(n, tuple(gates), slots)


@pytest.mark.parametrize("case", range(12))
def test_product_fidelities_match_statevector_path(case):
    """Per-qubit overlaps give the fidelities run_batch's statevectors give,
    for circuits without CNOT/CZ."""
    rng = np.random.default_rng(500 + case)
    n = int(rng.integers(1, 7))
    circuit = random_product_circuit(n, int(rng.integers(0, 3 * n + 1)), rng)
    axes, angles = _pair_rotations(circuit, 150, SeededRng(case))
    layout = circuit.layout
    product = _product_pair_fidelities(n, layout, axes, angles)
    full = _statevector_pair_fidelities(n, layout, axes, angles)
    assert np.max(np.abs(product - full)) <= 1e-12
    assert np.array_equal(sample_fidelities(circuit, 150, SeededRng(case)), product)


def test_parameter_free_product_circuit_has_unit_fidelities():
    circuit = ParameterizedCircuit(3, (Gate("H", (0,)), Gate("RX", (2,), angle=0.4)), 0)
    assert circuit.n_params == 0
    assert sample_fidelities(circuit, 100, SeededRng(0)) == pytest.approx(np.ones(100), abs=1e-12)


def test_entangling_circuit_keeps_statevector_path():
    circuit = random_layered_circuit(3, 2, SeededRng(9).child())
    axes, angles = _pair_rotations(circuit, 100, SeededRng(4))
    full = _statevector_pair_fidelities(3, circuit.layout, axes, angles)
    assert np.array_equal(sample_fidelities(circuit, 100, SeededRng(4)), full)


# expressibility_kl of the angle encoding circuit (1000 samples, 75 bins) as
# the full-statevector sampler computes it
ENCODING_KL = {
    (8, 0): 0.30810903484682867,
    (8, 3): 0.21295727219108448,
    (8, 7): 0.33823935157355417,
    (11, 0): 0.1105976034944815,
    (11, 3): 0.05456246541920801,
    (11, 7): 0.18277512875854504,
    (14, 0): 7.341482314312997e-08,
    (14, 3): 7.341482314312997e-08,
    (14, 7): 7.341482314312997e-08,
}


@pytest.mark.parametrize("n, seed", sorted(ENCODING_KL))
def test_encoding_circuit_expressibility_unchanged(n, seed):
    circuit = encoding_circuit(FeatureMap("angle", n), n)
    assert expressibility_kl(circuit, 1000, 75, SeededRng(seed)) == ENCODING_KL[n, seed]


def test_expressibility_sample_floor():
    with pytest.raises(InvalidConfig):
        expressibility_kl(ParameterizedCircuit(1, (), 0), 50, 75, SeededRng(0))


# ---------------------------------------------------------------------------
# gradients


def ry_z_circuit():
    return ParameterizedCircuit(1, (Gate("RY", (0,), param_slot=0),), 1)


def test_gradient_analytic_ry():
    c = ry_z_circuit()
    assert gradient(c, [math.pi / 2], "Z", 0) == pytest.approx(-1.0, abs=1e-10)
    assert gradient(c, [0.0], "Z", 0) == pytest.approx(0.0, abs=1e-10)


def test_gradient_out_of_range():
    with pytest.raises(ArityError):
        gradient(ry_z_circuit(), [0.0], "Z", 3)


def finite_difference(circuit, theta, cost, k, h=1e-5):
    from datacomplexity.simulator import run_circuit
    from datacomplexity.simulator import expectation as expect

    theta = np.asarray(theta, dtype=float)
    up, down = theta.copy(), theta.copy()
    up[k] += h
    down[k] -= h
    return (expect(run_circuit(circuit, up), cost) - expect(run_circuit(circuit, down), cost)) / (
        2 * h
    )


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_difference(seed):
    rng = SeededRng(900 + seed).child()
    n = int(rng.integers(1, 5))
    circuit = random_layered_circuit(n, int(rng.integers(1, 5)), rng)
    theta = rng.uniform(0, 2 * math.pi, circuit.n_params)
    k = int(rng.integers(0, circuit.n_params))
    cost = "Z" * n
    assert gradient(circuit, theta, cost, k) == pytest.approx(
        finite_difference(circuit, theta, cost, k), abs=1e-6
    )


def test_single_rotation_variance_half():
    # Var over theta ~ U[0, 2pi) of d<Z>/dtheta = -sin(theta) is exactly 1/2
    rng = SeededRng(77).child()
    thetas = rng.uniform(0, 2 * math.pi, 2000)
    grads = [gradient(ry_z_circuit(), [t], "Z", 0) for t in thetas]
    assert np.var(grads) == pytest.approx(0.5, abs=0.05)


def test_gradient_study_scaling():
    study = gradient_variance_study(range(2, 7), depth=4, n_samples=200, cost_kind="global", rng=SeededRng(42))
    assert study.fitted_slope < 0
    assert study.variances[-1] < study.variances[0]
    assert len(study.variances) == 5


@pytest.mark.parametrize("cost_kind", ["global", "local"])
def test_gradient_study_matches_per_circuit_gradients(cost_kind):
    # the batched study against the public per-circuit gradient over the
    # same child(n, i) streams
    rng = SeededRng(8)
    study = gradient_variance_study(range(1, 7), 2, 200, cost_kind, rng)
    for n, variance in zip(study.n_range, study.variances):
        cost = "Z" * n if cost_kind == "global" else "Z" + "I" * (n - 1)
        grads = []
        for i in range(200):
            gen = rng.child(n, i)
            circuit = random_layered_circuit(n, 2, gen)
            theta = gen.uniform(0.0, 2.0 * math.pi, size=circuit.n_params)
            grads.append(gradient(circuit, theta, cost, 0))
        assert variance == pytest.approx(float(np.var(grads)), rel=1e-12)


# gradient_variance_study variances (depth 4, 200 samples, n = 2..8) as the
# per-sample circuit objects and the per-rotation kernel computed them
STUDY_VARIANCES = {
    (0, "global"): ("0.10504920678129018", "0.05378496279607397", "0.02708550827869157", "0.010549735627878204",
                    "0.0030973725877479286", "0.002937833113344494", "0.001124560950337444"),
    (3, "global"): ("0.09731271905748005", "0.0596614190481983", "0.029147088317250734", "0.007140157462974495",
                    "0.004580301399643707", "0.00237618474434285", "0.0014499156020136624"),
    (0, "local"): ("0.14615732875475057", "0.12987476813057813", "0.14475144929954406", "0.14348781123675167",
                   "0.08499092292752593", "0.10461131901337456", "0.1336840902213595"),
    (3, "local"): ("0.12018665896816326", "0.11309342968202821", "0.09299173900350151", "0.06458434879989335",
                   "0.11264971128419302", "0.11261354665514826", "0.09720124711569784"),
}


@pytest.mark.parametrize(
    "seed, cost_kind",
    [pytest.param(seed, cost, id=str(seed) if cost == "global" else f"{seed}-{cost}") for seed, cost in sorted(STUDY_VARIANCES)],
)
def test_gradient_study_variances_unchanged(seed, cost_kind):
    study = gradient_variance_study(range(2, 9), 4, 200, cost_kind, SeededRng(seed))
    assert tuple(repr(v) for v in study.variances) == STUDY_VARIANCES[seed, cost_kind]


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.integers(-50, 50), st.floats(-1e3, 1e3, allow_nan=False)),
        min_size=2,
        max_size=14,
        unique_by=lambda p: p[0],
    )
)
def test_least_squares_slope_matches_polyfit(points):
    x, y = (np.array(c, dtype=np.float64) for c in zip(*points))
    scale = max(1.0, float(np.abs(y).max()))
    assert least_squares_slope(x, y) == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12, abs=1e-12 * scale)


@given(st.integers(1, MAX_QUBITS), st.integers(2, 14), st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_least_squares_slope_exact_on_integer_line(start, count, intercept, slope):
    """On consecutive integer x, as in a study's qubit counts, every step
    of the closed form is exact, so the slope of an integer line is too."""
    x = np.arange(start, start + count)
    assert least_squares_slope(x, intercept + slope * x) == slope


# Traced peak of one study pass, in MiB. The per-rotation coefficient kernel
# peaked at 1.34 (n=6) and 1.89 (n=12); the bound adds 0.25 MiB. One
# (R, 2, 2, B) coefficient table per chunk would reach 2.4 at n=6.
STUDY_PEAK_MIB = {6: 1.34 + 0.25, 12: 1.89 + 0.25}


@pytest.mark.parametrize("n", sorted(STUDY_PEAK_MIB))
def test_gradient_study_memory_is_bounded(n):
    tracemalloc.start()
    try:
        gradient_variance_study((n,), 4, 200, "global", SeededRng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= STUDY_PEAK_MIB[n]


def test_gradient_study_builds_no_circuit(monkeypatch):
    built = []
    original = ParameterizedCircuit.__post_init__

    def counting(self):
        built.append(self.n_qubits)
        original(self)

    monkeypatch.setattr(ParameterizedCircuit, "__post_init__", counting)
    gradient_variance_study(range(2, 5), 2, 200, "global", SeededRng(1))
    assert built == []
    random_layered_circuit(2, 1, SeededRng(1).child())
    assert built == [2]


def test_gradient_study_size_limit(monkeypatch):
    with pytest.raises(InvalidConfig, match="n_samples must be <="):
        gradient_variance_study([2, 8], 4, 10**12, "global", SeededRng(0))
    monkeypatch.setattr(qmetrics, "MAX_STUDY_ROTATIONS", 3 * 2 * 200)
    assert len(gradient_variance_study([2, 3], 2, 200, "global", SeededRng(0)).variances) == 2
    with pytest.raises(InvalidConfig, match="n_samples must be <="):
        gradient_variance_study([2, 3], 2, 201, "global", SeededRng(0))


@pytest.mark.parametrize("length", [5, 8])
@pytest.mark.parametrize(
    "call",
    [
        lambda c, theta: run_circuit(c, theta),
        lambda c, theta: gradient(c, theta, "ZZZ", 0),
        lambda c, theta: pure_state_qfi(c, theta, 0),
    ],
    ids=["run_circuit", "gradient", "pure_state_qfi"],
)
def test_theta_length_checked(call, length):
    circuit = random_layered_circuit(3, 2, SeededRng(12).child())
    assert circuit.n_params == 6
    with pytest.raises(ArityError, match="takes 6 parameters"):
        call(circuit, np.zeros(length))


@pytest.mark.parametrize("k", [-1, 0.5, 1])
def test_parameter_index_checked(k):
    # slot -1 marks the fixed-angle rotation in the table; it is no parameter
    c = ParameterizedCircuit(1, (Gate("RX", (0,), angle=0.3), Gate("RY", (0,), param_slot=0)), 1)
    with pytest.raises(ArityError, match="out of range"):
        gradient(c, [0.2], "Z", k)
    with pytest.raises(ArityError, match="out of range"):
        pure_state_qfi(c, [0.2], k)


def test_gradient_study_validation():
    with pytest.raises(InvalidConfig):
        gradient_variance_study([2, MAX_QUBITS + 1], 2, 500, "global", SeededRng(0))
    with pytest.raises(InvalidConfig):
        gradient_variance_study([2, 3], 2, 50, "global", SeededRng(0))
    with pytest.raises(InvalidConfig):
        gradient_variance_study(range(5, 5), 2, 200, "global", SeededRng(0))
    with pytest.raises(InvalidConfig):
        gradient_variance_study([2, 3], 0, 200, "global", SeededRng(0))


@pytest.mark.parametrize("n_range", [[3, 3], [2, 3, 2]], ids=["3-3", "2-3-2"])
def test_gradient_study_rejects_repeated_qubit_counts(n_range):
    """One count given twice: [3, 3] would fit its slope as 0 / 0."""
    with pytest.raises(InvalidConfig, match="qubit counts must be distinct"):
        gradient_variance_study(n_range, 2, 200, "global", SeededRng(0))


def test_gradient_study_accepts_max_qubits():
    study = gradient_variance_study((MAX_QUBITS,), 1, 200, "global", SeededRng(0))
    assert study.n_range == (MAX_QUBITS,)
    assert 0.0 < study.variances[0] < 1.0


def test_gradient_study_csv_layout():
    study = GradientStudy((2, 3), 1, 200, "local", (0.5, 0.25), -0.69, 0)
    lines = study.to_csv().strip().splitlines()
    assert lines[0] == "n,variance"
    assert lines[1].startswith("2,")


# ---------------------------------------------------------------------------
# quantum Fisher information


def test_qfi_single_ry():
    for theta in (0.0, 0.4, 2.2):
        assert pure_state_qfi(ry_z_circuit(), [theta], 0) == pytest.approx(1.0, abs=1e-10)


def test_qfi_global_phase_zero():
    c = ParameterizedCircuit(1, (Gate("RZ", (0,), param_slot=0),), 1)
    assert pure_state_qfi(c, [1.3], 0) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_qfi_ghz_collective_phase(n):
    gates = [Gate("H", (0,))] + [Gate("CNOT", (q, q + 1)) for q in range(n - 1)]
    gates += [Gate("RZ", (q,), param_slot=0) for q in range(n)]
    c = ParameterizedCircuit(n, tuple(gates), 1)
    assert pure_state_qfi(c, [0.9], 0) == pytest.approx(n**2, abs=1e-9)


def test_collective_z_qfi_values(ghz3_state):
    assert collective_z_qfi(zero_state(3)) == pytest.approx(0.0)
    assert collective_z_qfi(ghz3_state) == pytest.approx(9.0, abs=1e-9)


# ---------------------------------------------------------------------------
# topological entanglement entropy


def test_tee_product_state():
    state = zero_state(3)
    assert topological_entanglement_entropy(state, [0], [1], [2]) == pytest.approx(0.0, abs=1e-9)


def test_tee_ghz(ghz3_state):
    # all seven reduced entropies are (1,1,1,1,1,1,0): combination cancels
    assert topological_entanglement_entropy(ghz3_state, [0], [1], [2]) == pytest.approx(
        0.0, abs=1e-9
    )


def test_tee_bell_pair_with_spectator(bell_state):
    gates = (Gate("H", (0,)), Gate("CNOT", (0, 1)))
    state = run_circuit(ParameterizedCircuit(3, gates, 0), [])
    assert topological_entanglement_entropy(state, [0], [1], [2]) == pytest.approx(0.0, abs=1e-9)


def test_tee_overlap_rejected(ghz3_state):
    with pytest.raises(InvalidSubset):
        topological_entanglement_entropy(ghz3_state, [0], [0], [2])


# ---------------------------------------------------------------------------
# error model, magic stub, ensembles


def test_circuit_error_rate_examples():
    assert circuit_error_rate(0.0, 10, 5) == 0.0
    assert circuit_error_rate(0.37, 1, 1) == pytest.approx(0.37)
    assert circuit_error_rate(0.01, 10, 10) == pytest.approx(1 - 0.99**100)
    assert circuit_error_rate(0.01, 10, 10) == pytest.approx(0.6340, abs=5e-5)


def test_circuit_error_rate_validation():
    with pytest.raises(InvalidConfig):
        circuit_error_rate(1.5, 1, 1)


def test_ensemble_validation(bell_state):
    with pytest.raises(EnsembleError):
        uniform_ensemble([bell_state, zero_state(3)])
    with pytest.raises(EnsembleError):
        uniform_ensemble([])
    with pytest.raises(EnsembleError):
        QuantumEnsemble(np.ones((2, 3)) / math.sqrt(3))
    with pytest.raises(InvalidState):
        QuantumEnsemble(np.ones((2, 4)))
    with pytest.raises(InvalidState):
        QuantumEnsemble(np.array([[float("nan"), 0.0], [1.0, 0.0]]))
    e = uniform_ensemble([bell_state, bell_state])
    assert e.amplitudes.shape == (2, 4) and not e.amplitudes.flags.writeable
    # per-qubit factors: exactly one form, (n, 2, N) with n in 1..MAX_QUBITS, unit norms
    plus = np.full((3, 2, 4), 1 / math.sqrt(2))
    with pytest.raises(EnsembleError):
        QuantumEnsemble()
    with pytest.raises(EnsembleError):
        QuantumEnsemble(e.amplitudes, factors=plus)
    for shape in [(3, 2, 0), (3, 3, 4), (3, 2)]:
        with pytest.raises(EnsembleError):
            QuantumEnsemble(factors=np.ones(shape))
    for shape in [(0, 2, 4), (15, 2, 4)]:  # the register rule
        with pytest.raises(InvalidConfig):
            QuantumEnsemble(factors=np.ones(shape))
    with pytest.raises(InvalidState):
        QuantumEnsemble(factors=np.ones((3, 2, 4)))
    product = QuantumEnsemble(factors=plus)
    assert (product.n_qubits, product.size) == (3, 4) and product.amplitudes is None
    assert not product.factors.flags.writeable


def test_ensemble_gram_and_distances(bell_state, product_plus_state):
    e = uniform_ensemble([bell_state, bell_state, product_plus_state])
    gram = ensemble_gram(e)
    assert gram[0, 1] == pytest.approx(1.0)
    assert np.allclose(np.diag(gram), 1.0)
    d = fidelity_distances(gram)
    # sqrt amplifies the ~1e-16 fidelity rounding into ~1e-8
    assert d[0, 1] == pytest.approx(0.0, abs=1e-7)
    assert d[0, 2] == pytest.approx(math.sqrt(1 - gram[0, 2]))


# ---------------------------------------------------------------------------
# the register rule and the qubit-subset rule, each written once in simulator

REGISTER_CALLERS = {
    "StateVector": lambda n: StateVector(n_qubits=n, amplitudes=[1.0]),
    "DensityMatrix": lambda n: DensityMatrix(n_qubits=n, values=[[1.0]]),
    "FeatureMap": lambda n: FeatureMap("angle", n),
    "ParameterizedCircuit": lambda n: ParameterizedCircuit(n_qubits=n, gates=(), n_params=0),
    "gradient_variance_study": lambda n: gradient_variance_study([2, n], 1, 200, "global", SeededRng(0)),
    "layered_layout": lambda n: layered_layout(n, 1),
}


@pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1, 2.5])
@pytest.mark.parametrize("caller", sorted(REGISTER_CALLERS))
def test_register_rule_refuses_bad_registers(caller, n):
    """Every constructor and entry point that fixes a register takes an
    integer in 1..MAX_QUBITS; a float is not truncated."""
    with pytest.raises(InvalidConfig, match=f"n_qubits must be an integer in 1..{MAX_QUBITS}"):
        REGISTER_CALLERS[caller](n)


@pytest.mark.parametrize("n", [0, MAX_QUBITS + 1])
def test_register_rule_refuses_bad_ensembles(n):
    """An ensemble's register is read from its shape: the rule applies to
    both forms, while a malformed shape stays an EnsembleError."""
    with pytest.raises(InvalidConfig):
        QuantumEnsemble(factors=np.ones((n, 2, 1)))
    with pytest.raises(InvalidConfig):
        QuantumEnsemble(np.ones((1, 2**n)))


def test_register_rule_accepts_integers():
    assert require_qubits(np.int64(3)) == 3 and type(require_qubits(np.int64(3))) is int
    assert FeatureMap("angle", np.int32(MAX_QUBITS)).n_qubits == MAX_QUBITS
    assert require_qubits(1) == 1


def test_out_of_range_circuit_refused_before_any_buffer():
    """A 20-qubit circuit is refused at construction, so gradient never
    simulates 2^20 amplitudes; a negative register no longer reaches
    run_batch."""
    gates = (Gate("RY", (0,), param_slot=0),)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfig):
            gradient(ParameterizedCircuit(n_qubits=20, gates=gates, n_params=1), [0.1], "Z" * 20, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(InvalidConfig):
        ParameterizedCircuit(n_qubits=-1, gates=(), n_params=0)
    with pytest.raises(InvalidConfig):
        random_layered_circuit(20, 1, SeededRng(0).child())


SUBSET_CALLERS = {
    "bipartition": lambda state, s: bipartition(state.amplitudes, s),
    "partial_trace": lambda state, s: partial_trace(state, s),
    "partial_trace_density": lambda state, s: partial_trace_density(partial_trace(state, [0, 1, 2]), s),
    "schmidt_spectra": lambda state, s: schmidt_spectra(state.amplitudes[None], s),
    "schmidt_rank": lambda state, s: schmidt_rank(state, s),
    "mutual_information_a": lambda state, s: quantum_mutual_information(state, s, [1]),
    "mutual_information_b": lambda state, s: quantum_mutual_information(state, [0], s),
    "mutual_information_density": lambda state, s: quantum_mutual_information(partial_trace(state, [0, 1, 2]), s, [1]),
    "topological_entanglement_entropy": lambda state, s: topological_entanglement_entropy(state, s, [1], [2]),
    "connected_correlator": lambda state, s: connected_correlator(state, [(q, "Z") for q in s]),
}


@pytest.mark.parametrize("subset", [[], [-1], [3], [0.9]], ids=["empty", "negative", "n", "float"])
@pytest.mark.parametrize("caller", sorted(SUBSET_CALLERS))
def test_subset_rule_refuses_bad_subsets(caller, subset, ghz3_state):
    """Every subset of a 3-qubit state is a non-empty set of integers in
    0..2: a negative qubit is not read from the end, and a float is not
    truncated."""
    with pytest.raises(InvalidSubset, match="a qubit subset is a non-empty set of integers in 0..2"):
        SUBSET_CALLERS[caller](ghz3_state, subset)


def test_subset_rule_defects(bell_state):
    """Calls that returned values for subsets they should refuse: the
    floats read as qubits 0 and 1, and qubit -1 as qubit 1."""
    with pytest.raises(InvalidSubset):
        quantum_mutual_information(bell_state, [0.9], [1.2])
    with pytest.raises(InvalidSubset):
        partial_trace(bell_state, [0.9])
    for q in (-1, 5):
        with pytest.raises(InvalidSubset):
            connected_correlator(bell_state, [(q, "Z")])


def test_subset_rule_sorts_distinct_integers():
    assert qubit_subset(np.array([2, 0, 2]), 3) == [0, 2]
    assert all(type(q) is int for q in qubit_subset((np.int64(1),), 2))
    # the callers keep their own rules
    with pytest.raises(InvalidSubset, match="repeated"):
        connected_correlator(zero_state(2), [(0, "Z"), (0, "X")])
    with pytest.raises(InvalidSubset, match="overlap"):
        quantum_mutual_information(zero_state(2), [0], [0, 1])
