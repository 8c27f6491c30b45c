import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import PAULI_MATRICES, product_amplitudes, rotation_matrix
from datacomplexity.config import SeededRng
from datacomplexity.dataset import Dataset
from datacomplexity.errors import (
    ArityError,
    CapacityError,
    InvalidConfig,
    InvalidState,
    InvalidSubset,
    ParseError,
    ZeroVector,
)
from datacomplexity import simulator
from datacomplexity.scoring import embed_dataset
from datacomplexity.simulator import (
    FIXED_GATES,
    ROTATION_GATES,
    DensityMatrix,
    FeatureMap,
    Gate,
    ParameterizedCircuit,
    StateVector,
    encode,
    encode_factors,
    encode_rows,
    encoding_circuit,
    expectation,
    layered_axes,
    layered_layout,
    partial_trace,
    partial_trace_density,
    pauli_expectations,
    random_layered_circuit,
    required_qubits,
    run_batch,
    run_circuit,
    run_product_batch,
    zero_state,
)

# ---------------------------------------------------------------------------
# oracle: build the full 2^n x 2^n operator with np.kron; qubit 0 is the least
# significant bit, so kron order runs from the highest qubit down


def full_single_qubit_op(u, q, n):
    op = np.eye(1)
    for k in range(n - 1, -1, -1):
        op = np.kron(op, u if k == q else np.eye(2))
    return op


def full_cnot(control, target, n):
    dim = 2**n
    op = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << target) if (i >> control) & 1 else i
        op[j, i] = 1.0
    return op


def full_cz(a, b, n):
    dim = 2**n
    diag = np.ones(dim, dtype=complex)
    for i in range(dim):
        if (i >> a) & 1 and (i >> b) & 1:
            diag[i] = -1.0
    return np.diag(diag)


def full_pauli(pauli):
    op = np.eye(1)
    for ch in reversed(pauli):
        op = np.kron(op, PAULI_MATRICES[ch])
    return op


def circuit_unitary(circuit, theta):
    """Dense unitary of a circuit; each rotation reads its own slot or angle
    from its Gate, independently of the circuit's rotation table."""
    n = circuit.n_qubits
    u = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        angle = g.angle if g.param_slot is None else float(theta[g.param_slot])
        if g.name in FIXED_GATES:
            step = full_single_qubit_op(FIXED_GATES[g.name], g.qubits[0], n)
        elif g.name == "CNOT":
            step = full_cnot(g.qubits[0], g.qubits[1], n)
        elif g.name == "CZ":
            step = full_cz(g.qubits[0], g.qubits[1], n)
        else:
            step = full_single_qubit_op(rotation_matrix(g.name, angle), g.qubits[0], n)
        u = step @ u
    return u


# ---------------------------------------------------------------------------
# gates


def test_hadamard_on_zero():
    state = run_circuit(ParameterizedCircuit(1, (Gate("H", (0,)),), 0), [])
    assert state.amplitudes == pytest.approx(np.array([1, 1]) / math.sqrt(2))


def test_bell_construction(bell_state):
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / math.sqrt(2)
    assert bell_state.amplitudes == pytest.approx(expected)


def test_ry_rotation():
    theta = 1.234
    c = ParameterizedCircuit(1, (Gate("RY", (0,), param_slot=0),), 1)
    state = run_circuit(c, [theta])
    assert state.amplitudes == pytest.approx([math.cos(theta / 2), math.sin(theta / 2)])


def test_parameter_count_mismatch():
    c = ParameterizedCircuit(1, (Gate("RY", (0,), param_slot=0),), 1)
    with pytest.raises(ArityError):
        run_circuit(c, [0.1, 0.2])


@pytest.mark.parametrize("seed", range(5))
def test_random_circuits_match_dense_oracle(seed):
    rng = SeededRng(seed).child()
    n = int(rng.integers(2, 5))
    circuit = random_layered_circuit(n, 3, rng)
    theta = rng.uniform(0, 2 * math.pi, circuit.n_params)
    fast = run_circuit(circuit, theta).amplitudes
    dense = circuit_unitary(circuit, theta) @ zero_state(n).amplitudes
    assert fast == pytest.approx(dense, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_expectations_match_dense_oracle(seed):
    rng = SeededRng(100 + seed).child()
    n = int(rng.integers(2, 5))
    circuit = random_layered_circuit(n, 2, rng)
    theta = rng.uniform(0, 2 * math.pi, circuit.n_params)
    state = run_circuit(circuit, theta)
    paulis = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(4)]
    for pauli in paulis:
        dense = np.vdot(state.amplitudes, full_pauli(pauli) @ state.amplitudes).real
        assert expectation(state, pauli) == pytest.approx(dense, abs=1e-10)


def random_gate_circuit(rng, n, n_gates=24):
    """Random gate list over every gate kind: fixed gates, rotations with a
    parameter slot or a fixed angle, and CNOT/CZ on any ordered qubit pair
    (non-adjacent and reversed included)."""
    gates, slot = [], 0
    for _ in range(n_gates):
        kind = rng.choice(["fixed", "slot", "angle", "pair"] if n > 1 else ["fixed", "slot", "angle"])
        if kind == "fixed":
            gates.append(Gate(str(rng.choice(list(FIXED_GATES))), (int(rng.integers(n)),)))
        elif kind == "pair":
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(Gate(str(rng.choice(["CNOT", "CZ"])), (a, b)))
        elif kind == "slot":
            gates.append(Gate(str(rng.choice(["RX", "RY", "RZ"])), (int(rng.integers(n)),), param_slot=slot))
            slot += 1
        else:
            angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            gates.append(Gate(str(rng.choice(["RX", "RY", "RZ"])), (int(rng.integers(n)),), angle=angle))
    return ParameterizedCircuit(n, tuple(gates), slot)


@pytest.mark.parametrize("n", range(1, 6))
def test_engine_single_column_matches_dense_oracle(n):
    rng = SeededRng(200 + n).child()
    for _ in range(4):
        circuit = random_gate_circuit(rng, n)
        theta = rng.uniform(0, 2 * math.pi, circuit.n_params)
        dense = circuit_unitary(circuit, theta) @ zero_state(n).amplitudes
        assert np.max(np.abs(run_circuit(circuit, theta).amplitudes - dense)) <= 1e-12


def column_circuit(circuit, axes, angles):
    """One batch column as its own circuit: rotation r turns into axis
    axes[r] at the fixed angle angles[r]."""
    rows = iter(zip(axes, angles))
    gates = []
    for g in circuit.gates:
        if g.name in ROTATION_GATES:
            axis, angle = next(rows)
            g = Gate(ROTATION_GATES[axis], g.qubits, angle=float(angle))
        gates.append(g)
    return ParameterizedCircuit(circuit.n_qubits, tuple(gates), 0)


@pytest.mark.parametrize("n", range(1, 6))
def test_engine_batch_matches_dense_oracle(n, monkeypatch):
    # chunks of 3 columns (2 in pairs), so the batch spans several chunks
    monkeypatch.setattr(simulator, "CHUNK_BYTES", 3 * 32 * 2**n)
    rng = SeededRng(300 + n).child()
    circuit = random_gate_circuit(rng, n)
    n_rotations = sum(g.name in ROTATION_GATES for g in circuit.gates)
    axes = rng.integers(0, 3, size=(n_rotations, 8)).astype(np.int8)
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=axes.shape)
    paulis = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(3)] + ["Z" * n]
    initial = zero_state(n).amplitudes
    for group in (1, 2):
        widths = []

        def read(block):
            # each column's state followed by its expectations, one row per column
            widths.append(block.shape[1])
            return np.concatenate([block, [pauli_expectations(block, p) for p in paulis]]).T

        rows = run_batch(n, circuit.layout, axes, angles, read, group=group)
        assert len(widths) > 1 and sum(widths) == 8
        assert all(w % group == 0 for w in widths)
        for j, row in enumerate(rows):  # in column order
            dense = circuit_unitary(column_circuit(circuit, axes[:, j], angles[:, j]), []) @ initial
            assert np.max(np.abs(row[: 2**n] - dense)) <= 1e-12
            for value, p in zip(row[2**n :], paulis):
                assert value.imag == 0.0
                assert abs(value.real - np.vdot(dense, full_pauli(p) @ dense).real) <= 1e-12


@pytest.mark.parametrize("n", range(1, 5))
def test_batched_rotation_angles_match_columns(n):
    """rotation_angles of a (P, B) theta is its per-column calls side by side,
    and each rotation reads its own Gate's slot or fixed angle."""
    rng = SeededRng(400 + n).child()
    circuit = random_gate_circuit(rng, n)
    assert circuit.n_params > 0
    # a fixed angle, and a second occurrence of every slot on another axis
    extra = (Gate("RY", (0,), angle=0.25),) + tuple(Gate("RX", (k % n,), param_slot=k) for k in range(circuit.n_params))
    circuit = ParameterizedCircuit(n, circuit.gates + extra, circuit.n_params)
    theta = rng.uniform(-7, 7, size=(circuit.n_params, 5))
    batched = circuit.rotation_angles(theta)
    rotations = [g for g in circuit.gates if g.name in ROTATION_GATES]
    assert batched.shape == (len(rotations), 5)
    for b in range(5):
        assert np.array_equal(batched[:, b], circuit.rotation_angles(theta[:, b]))
        assert np.array_equal(batched[:, b], [g.angle if g.param_slot is None else theta[g.param_slot, b] for g in rotations])
    fixed_only = ParameterizedCircuit(2, (Gate("RX", (1,), angle=0.3), Gate("H", (0,))), 0)
    assert np.array_equal(fixed_only.rotation_angles(np.zeros((0, 3))), [[0.3, 0.3, 0.3]])


@pytest.mark.parametrize("n", range(1, 6))
def test_product_engine_matches_dense_oracle(n):
    """Without CNOT/CZ, the kron of a column's per-qubit factors is the state
    the dense oracle gives, phase included; a qubit with no gate stays |0>."""
    rng = SeededRng(350 + n).child()
    circuit = random_gate_circuit(rng, n, n_gates=2 * n)
    circuit = ParameterizedCircuit(n, tuple(g for g in circuit.gates if len(g.qubits) == 1), circuit.n_params)
    n_rotations = sum(g.name in ROTATION_GATES for g in circuit.gates)
    axes = rng.integers(0, 3, size=(n_rotations, 6)).astype(np.int8)
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=axes.shape)
    factors = run_product_batch(n, circuit.layout, axes, angles)
    assert factors.shape == (n, 2, 6)
    for j in range(6):
        state = np.ones(1)
        for q in range(n):
            state = np.kron(factors[q, :, j], state)
        dense = circuit_unitary(column_circuit(circuit, axes[:, j], angles[:, j]), []) @ zero_state(n).amplitudes
        assert np.max(np.abs(state - dense)) <= 1e-12


def test_product_engine_rejects_entangling_layout():
    layout = (("H", (0,)), ("CNOT", (0, 1)))
    with pytest.raises(ArityError):
        run_product_batch(2, layout, np.zeros((0, 1), dtype=np.int8), np.zeros((0, 1)))


# ---------------------------------------------------------------------------
# rotation kernel and product prefix


@pytest.mark.parametrize("n", range(1, 10))
def test_rotate_matches_dense_operator_in_both_forms(n, monkeypatch):
    """_rotate at every qubit equals kron(I, u_b, I) applied to column b, in
    its gather form (every q below a huge _INNER_RUN), its half-view form
    (_INNER_RUN = 1) and the default split; the forms add the same products
    in the same order, so they are bit-equal to each other."""
    rng = SeededRng(500 + n).child()
    units = [np.outer(np.eye(2)[i], np.eye(2)[j]) for i in range(2) for j in range(2)]
    for q in range(n):
        # kron(I, u, I) = sum_ij u[i, j] kron(I, E_ij, I)
        unit_ops = [full_single_qubit_op(e, q, n) for e in units]
        for width in (1, 2, 3, 8, 400):
            block = rng.normal(size=(2**n, width)) + 1j * rng.normal(size=(2**n, width))
            u = rng.normal(size=(2, 2, width)) + 1j * rng.normal(size=(2, 2, width))
            dense = sum((op @ block) * u[i, j] for (i, j), op in zip(np.ndindex(2, 2), unit_ops))
            results = []
            for inner in (1 << 30, 1, simulator._INNER_RUN):
                with monkeypatch.context() as mp:
                    mp.setattr(simulator, "_INNER_RUN", inner)
                    out = block.copy()
                    simulator._rotate(out, u, q, n, np.empty_like(block))
                assert np.max(np.abs(out - dense)) <= 1e-12, (q, width, inner)
                results.append(out)
            assert all(np.array_equal(results[0].view(np.uint64), r.view(np.uint64)) for r in results[1:]), (q, width)


def prefixed_circuit(rng, n):
    """random_gate_circuit after a product prefix: one to three gates on
    qubit 0, then one gate on each of qubits 1..n-1, drawn from H/X/Y/Z and
    rotations."""
    names = list(FIXED_GATES) + list(ROTATION_GATES)
    targets = [0] * int(rng.integers(1, 4)) + list(range(1, n))
    gates, slot = [], 0
    for q in targets:
        name = str(rng.choice(names))
        gates.append(Gate(name, (q,), param_slot=slot if name in ROTATION_GATES else None))
        slot += name in ROTATION_GATES
    rest = random_gate_circuit(rng, n)
    shifted = tuple(g if g.param_slot is None else Gate(g.name, g.qubits, param_slot=g.param_slot + slot) for g in rest.gates)
    return ParameterizedCircuit(n, tuple(gates) + shifted, slot + rest.n_params), len(targets)


@pytest.mark.parametrize("n", range(1, 7))
def test_product_prefix_is_bit_equal_to_zero_start(n, monkeypatch):
    """run_batch builds the leading single-qubit gates from per-qubit factors;
    the blocks equal those of running every gate on the block from |0...0>
    (the full-block path, an empty prefix), bit for bit, on the layered
    ansatz, on random layouts with a product prefix and on random layouts."""
    monkeypatch.setattr(simulator, "CHUNK_BYTES", 3 * 32 * 2**n)  # several chunks
    rng = SeededRng(600 + n).child()
    cases = [(layered_layout(n, 3), n)]
    for _ in range(3):
        circuit, prefix = prefixed_circuit(rng, n)
        cases.append((circuit.layout, prefix))
        cases.append((random_gate_circuit(rng, n).layout, 0))
    for layout, prefix in cases:
        assert simulator._product_prefix(layout)[0] >= prefix
        n_rotations = sum(name == "R" for name, _ in layout)
        axes = rng.integers(0, 3, size=(n_rotations, 7)).astype(np.int8)
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=axes.shape)
        widths = []

        def read(block):
            widths.append(block.shape[1])
            return block.T

        filled = run_batch(n, layout, axes, angles, read)
        with monkeypatch.context() as mp:
            mp.setattr(simulator, "_product_prefix", lambda layout: (0, 0))
            started = run_batch(n, layout, axes, angles, read)
        assert widths == [3, 3, 1] * 2
        assert filled.shape == started.shape == (7, 2**n)
        assert filled.tobytes() == started.tobytes()


def test_engine_rejects_bad_norm(monkeypatch):
    """A block whose states lose unit norm, through the product fill of the
    first layer or through a gate after it, raises before it is read."""
    circuit = random_layered_circuit(3, 2, SeededRng(4).child())
    layout = circuit.layout + (("X", (1,)),)
    assert simulator._product_prefix(layout)[0] == 3  # the X runs on the block
    angles = np.zeros((len(circuit.axes), 4))
    widths = []

    def read(block):
        widths.append(block.shape[1])
        return block.T

    def run():
        return run_batch(3, layout, circuit.axes[:, None], angles, read)

    fill = simulator._fill_product

    def scaled_fill(block, factors):
        fill(block, factors)
        block *= 1.5

    with monkeypatch.context() as mp:
        mp.setattr(simulator, "_fill_product", scaled_fill)
        with pytest.raises(InvalidState):
            run()
    with monkeypatch.context() as mp:
        mp.setitem(simulator.FIXED_GATES, "X", 1.5 * FIXED_GATES["X"])
        with pytest.raises(InvalidState):
            run()
    assert not widths
    assert run().shape == (4, 8)  # unpatched, the same run passes


def test_norm_preserved_through_deep_circuit():
    rng = SeededRng(9).child()
    circuit = random_layered_circuit(5, 8, rng)
    state = run_circuit(circuit, rng.uniform(0, 2 * math.pi, circuit.n_params))
    assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(1.0, abs=1e-10)


def test_gate_then_inverse_returns_state():
    theta = 0.83
    c_fwd = ParameterizedCircuit(
        2,
        (Gate("RX", (0,), angle=theta), Gate("CNOT", (0, 1)), Gate("CNOT", (0, 1)), Gate("RX", (0,), angle=-theta)),
        0,
    )
    state = run_circuit(c_fwd, [])
    assert state.amplitudes == pytest.approx(zero_state(2).amplitudes, abs=1e-10)


# ---------------------------------------------------------------------------
# expectation values


def test_expectation_examples(bell_state):
    z_plus = zero_state(1)
    assert expectation(z_plus, "Z") == pytest.approx(1.0)
    plus = run_circuit(ParameterizedCircuit(1, (Gate("H", (0,)),), 0), [])
    assert expectation(plus, "X") == pytest.approx(1.0)
    assert expectation(bell_state, "ZZ") == pytest.approx(1.0)
    assert expectation(bell_state, "ZI") == pytest.approx(0.0, abs=1e-10)


def test_expectation_malformed_pauli(bell_state):
    with pytest.raises(ParseError):
        expectation(bell_state, "ZQ")
    with pytest.raises(ParseError):
        expectation(bell_state, "Z")


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_bell(bell_state):
    rho = partial_trace(bell_state, [0])
    assert rho.values == pytest.approx(np.eye(2) / 2, abs=1e-10)


def test_partial_trace_product(product_plus_state):
    rho = partial_trace(product_plus_state, [1])
    plus = np.array([1, 1]) / math.sqrt(2)
    assert rho.values == pytest.approx(np.outer(plus, plus), abs=1e-10)


def test_partial_trace_keep_all(bell_state):
    rho = partial_trace(bell_state, [0, 1])
    psi = bell_state.amplitudes
    assert rho.values == pytest.approx(np.outer(psi, psi.conj()), abs=1e-10)


def test_partial_trace_empty_keep(bell_state):
    with pytest.raises(InvalidSubset):
        partial_trace(bell_state, [])


def test_partial_trace_density_consistent(ghz3_state):
    rho_full = partial_trace(ghz3_state, [0, 1, 2])
    via_density = partial_trace_density(rho_full, [0, 2])
    via_state = partial_trace(ghz3_state, [0, 2])
    assert via_density.values == pytest.approx(via_state.values, abs=1e-10)


def test_schmidt_symmetry_random_states():
    # complementary reductions of a pure state share their nonzero spectrum
    rng = SeededRng(11).child()
    circuit = random_layered_circuit(4, 3, rng)
    state = run_circuit(circuit, rng.uniform(0, 2 * math.pi, circuit.n_params))
    ev_a = np.sort(partial_trace(state, [0, 1]).eigenvalues())[::-1]
    ev_b = np.sort(partial_trace(state, [2, 3]).eigenvalues())[::-1]
    assert ev_a == pytest.approx(ev_b, abs=1e-9)


# ---------------------------------------------------------------------------
# encodings


def test_amplitude_encoding_basis_vector():
    fm = FeatureMap(kind="amplitude", n_qubits=2)
    state = encode(fm, [1, 0, 0, 0])
    assert state.amplitudes == pytest.approx([1, 0, 0, 0])


def test_amplitude_encoding_uniform():
    fm = FeatureMap(kind="amplitude", n_qubits=2)
    state = encode(fm, [1, 1, 1, 1])
    assert state.amplitudes == pytest.approx([0.5] * 4)


def test_amplitude_encoding_zero_vector():
    fm = FeatureMap(kind="amplitude", n_qubits=2)
    with pytest.raises(ZeroVector):
        encode(fm, [0, 0, 0, 0])


def test_amplitude_capacity():
    fm = FeatureMap(kind="amplitude", n_qubits=2)
    with pytest.raises(CapacityError, match="3 qubits"):
        encode(fm, np.ones(8))
    assert required_qubits("amplitude", 8) == 3


def test_angle_encoding_endpoints():
    fm = FeatureMap(kind="angle", n_qubits=1)
    assert encode(fm, [0.0]).amplitudes == pytest.approx([1, 0])
    # RY(pi)|0> = |1> up to global phase
    amps = encode(fm, [1.0]).amplitudes
    assert abs(amps[1]) == pytest.approx(1.0, abs=1e-10)
    assert abs(amps[0]) == pytest.approx(0.0, abs=1e-10)


def test_angle_encoding_minmax_fit():
    ds = Dataset(np.array([[10.0], [20.0], [15.0]]), ("x",))
    amps = product_amplitudes(embed_dataset(ds, FeatureMap(kind="angle", n_qubits=1)).factors)
    assert amps[0] == pytest.approx([1, 0])
    assert abs(amps[1, 1]) == pytest.approx(1.0, abs=1e-10)
    assert amps[2] == pytest.approx([math.cos(math.pi / 4), math.sin(math.pi / 4)])


def test_basis_encoding_one_hot():
    fm = FeatureMap(kind="basis", n_qubits=3)
    state = encode(fm, [0.0, 1.0, 0.0])
    expected = np.zeros(8)
    expected[2] = 1.0
    assert state.amplitudes == pytest.approx(expected)


def test_basis_factors_are_one_hot_per_qubit():
    """A basis factor is [0, 1] where the feature is > 0, else [1, 0], and
    qubits past the features stay [1, 0]; encode_rows writes their product,
    the one-hot amplitude at sum_q bit_q 2^q."""
    x = SeededRng(31).child().normal(size=(20, 3))
    fm = FeatureMap(kind="basis", n_qubits=5)
    factors = encode_factors(fm, x)
    bits = (x > 0.0).T
    assert factors.shape == (5, 2, 20)
    assert np.array_equal(factors[:3, 1], bits) and np.array_equal(factors[:3, 0], ~bits)
    assert np.array_equal(factors[3:], np.broadcast_to([[1.0], [0.0]], (2, 2, 20)))
    expected = np.zeros((20, 32))
    expected[np.arange(20), bits.T @ (1 << np.arange(3))] = 1.0
    assert np.array_equal(encode_rows(fm, x), expected)
    with pytest.raises(CapacityError, match="6 qubits"):
        encode_factors(fm, np.ones((2, 6)))
    with pytest.raises(InvalidConfig, match="product states"):
        encode_factors(FeatureMap(kind="amplitude", n_qubits=2), x)


def test_encoding_circuit_matches_encode():
    fm = FeatureMap(kind="angle", n_qubits=2)
    circuit = encoding_circuit(fm, 2)
    x = np.array([0.3, 0.8])
    direct = encode(fm, x).amplitudes
    via_circuit = run_circuit(circuit, math.pi * x).amplitudes
    assert direct == pytest.approx(via_circuit, abs=1e-10)


def _angle_rows_reference(x: np.ndarray, n: int) -> np.ndarray:
    """Angle rows written out: the [cos, sin] factors of RY(pi * x_j)|0> on
    qubit j, multiplied in qubit order into the low 2^d amplitudes."""
    rows, d = x.shape
    prod = np.ones((rows, 1))
    for j in range(d):
        factors = np.array([[math.cos(t), math.sin(t)] for t in math.pi * x[:, j] / 2.0])
        prod = (factors[:, :, None] * prod[:, None, :]).reshape(rows, -1)
    amps = np.zeros((rows, 2**n), dtype=complex)
    amps[:, : 2**d] = prod
    return amps


@pytest.mark.parametrize("d,n", [(1, 1), (1, 3), (3, 3), (4, 6), (6, 6)])
def test_angle_rows_match_written_out_product(d, n):
    """encode_rows runs the encoding circuit through the product engine; its
    rows equal the written-out product of cos/sin factors to rounding."""
    x = SeededRng(700 + 10 * d + n).child().uniform(0.0, 1.0, size=(9, d))
    x[0], x[1] = 0.0, 1.0
    amps = encode_rows(FeatureMap(kind="angle", n_qubits=n), x)
    np.testing.assert_allclose(amps, _angle_rows_reference(x, n), rtol=0, atol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("d", [1, 3, 8, 13])
def test_amplitude_rows_keep_the_bits_of_row_over_norm(d):
    """An amplitude row whose norm is in float range encodes bit for bit as
    row / np.linalg.norm(row): its power-of-two scaling divides exactly and
    its norm is the same dot product, so fidelity noise does not move."""
    x = SeededRng(900 + d).child().normal(size=(40, d))
    x *= np.geomspace(1e-100, 1e100, 40)[:, None]
    amps = encode_rows(FeatureMap(kind="amplitude", n_qubits=4), x)
    expected = np.zeros((40, 16))
    expected[:, :d] = [row / np.linalg.norm(row) for row in x]
    assert np.array_equal(amps, expected)


# ---------------------------------------------------------------------------
# random layered circuits


def test_layered_circuit_shapes():
    c1 = random_layered_circuit(1, 1, SeededRng(0).child())
    assert c1.n_params == 1
    assert sum(g.name == "CNOT" for g in c1.gates) == 0
    c2 = random_layered_circuit(3, 2, SeededRng(0).child())
    assert c2.n_params == 6
    assert sum(g.name == "CNOT" for g in c2.gates) == 4


@pytest.mark.parametrize("n, depth", [(1, 1), (3, 2), (5, 4)])
def test_layered_circuit_is_layout_plus_axes(n, depth):
    circuit = random_layered_circuit(n, depth, SeededRng(n + depth).child())
    assert circuit.layout == layered_layout(n, depth)
    assert np.array_equal(circuit.axes, layered_axes(n, depth, SeededRng(n + depth).child()))
    assert np.array_equal(circuit.slots, np.arange(n * depth))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_layered_axes_is_per_layer_draws(n, depth, seed):
    """The one (depth, n) draw gives the stream of one integers(0, 3, size=n)
    draw per layer, and leaves the generator where the loop leaves it."""
    one, loop = SeededRng(seed).child(n, 0), SeededRng(seed).child(n, 0)
    axes = layered_axes(n, depth, one)
    assert np.array_equal(axes, np.concatenate([loop.integers(0, 3, size=n) for _ in range(depth)]))
    assert one.uniform() == loop.uniform()


def test_layered_circuit_deterministic():
    a = random_layered_circuit(4, 3, SeededRng(21).child())
    b = random_layered_circuit(4, 3, SeededRng(21).child())
    assert a == b


def test_gate_qubits_become_an_int_tuple():
    """A list of qubits is stored as a tuple (a CNOT's permutation cache needs
    a hashable one); qubits that are not a sequence of ints raise ArityError."""
    state = run_circuit(ParameterizedCircuit(2, (Gate("H", [0]), Gate("CNOT", [0, 1])), 0), [])
    assert state.amplitudes == pytest.approx(np.array([1, 0, 0, 1]) / math.sqrt(2))
    assert Gate("CZ", [np.int64(1), 0]).qubits == (1, 0)
    for bad in (0, [0.5], "0"):
        with pytest.raises(ArityError):
            Gate("H", bad)


@pytest.mark.parametrize(
    "n_qubits, gates, n_params, error, message",
    [
        (1, [Gate("FOO", (0,))], 0, ParseError, "unknown gate 'FOO'"),
        (2, [Gate("H", (2,))], 0, ArityError, "gate H addresses qubit out of range"),
        (2, [Gate("CNOT", (1, 1))], 0, ArityError, "CNOT needs two distinct qubits"),
        (2, [Gate("X", (0, 1))], 0, ArityError, "X is a single-qubit gate"),
        (1, [Gate("RX", (0,), param_slot=0, angle=0.5)], 1, ArityError, "rotation gates need exactly one"),
        (1, [Gate("Z", (0,), angle=0.5)], 0, ArityError, "Z takes no parameter"),
        (1, [Gate("RY", (0,), param_slot=1)], 2, ArityError, "parameter slots must be contiguous"),
        (1, [Gate("RZ", (0,), angle=0.5)], 1, ArityError, "n_params > 0 but no parameterized gate"),
    ],
    ids=["unknown_name", "qubit_range", "two_qubit_arity", "one_qubit_arity", "rotation_parameter",
         "fixed_gate_parameter", "slot_gap", "unused_params"],
)
def test_circuit_checks_every_gate_at_construction(n_qubits, gates, n_params, error, message):
    """A gate list that cannot run is refused when the circuit is built, an
    unknown gate name included, so no run ever meets one."""
    with pytest.raises(error, match=f"^{message}"):
        ParameterizedCircuit(n_qubits, tuple(gates), n_params)


def test_state_norm_validation():
    with pytest.raises(InvalidState):
        StateVector(n_qubits=1, amplitudes=np.array([1.0, 1.0]))


NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: StateVector(n_qubits=1, amplitudes=np.array([NAN, 0.0])),
        # unit trace, so only the Hermitian check can see the NaN
        lambda: DensityMatrix(n_qubits=1, values=np.array([[0.5, NAN], [NAN, 0.5]])),
        lambda: run_circuit(ParameterizedCircuit(1, (Gate("RY", (0,), param_slot=0),), 1), [NAN]),
        lambda: run_circuit(
            ParameterizedCircuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("RX", (1,), param_slot=0)), 1), [NAN]
        ),
    ],
    ids=["StateVector", "DensityMatrix", "run_circuit-prefix", "run_circuit-block"],
)
def test_nan_state_rejected(make):
    """A NaN fails every tolerance comparison, so the checks are written to
    pass only within tolerance and a NaN state raises."""
    with pytest.raises(InvalidState):
        make()
