"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned in the assertions, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from datacomplexity.classical import (
    Spectrum,
    compression_ratio,
    interaction_order,
    kernel_effective_dimension,
)
from datacomplexity.cli import main
from datacomplexity.config import ConfigProfile, SeededRng
from datacomplexity.dataset import Dataset, standardize
from datacomplexity.qmetrics import (
    GradientStudy,
    expressibility_kl,
    gradient,
    gradient_variance_study,
    haar_fidelity_pdf,
    quantum_mutual_information,
    uniform_ensemble,
    von_neumann_entropy,
)
from datacomplexity.report import profile_quantum
from datacomplexity.scoring import (
    MetricVector,
    classical_complexity,
    fit_alpha,
    normalize_complexity,
    quantum_complexity,
    quantum_metrics,
)
from datacomplexity.simulator import (
    DensityMatrix,
    Gate,
    ParameterizedCircuit,
    partial_trace,
    random_layered_circuit,
    run_circuit,
    zero_state,
)
from datacomplexity.synthetic import SyntheticSpec, generate
from datacomplexity.topology import (
    betti_at_scale,
    distance_matrix_from_points,
    persistence_diagram,
    rips_filtration,
)

from test_qmetrics import finite_difference
from test_topology import oracle_betti


def announce(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def build_state(n, gates):
    return run_circuit(ParameterizedCircuit(n, tuple(gates), 0), [])


def test_criterion_01_barren_plateau_law():
    start = time.monotonic()
    study = gradient_variance_study(
        range(2, 9), depth=4, n_samples=500, cost_kind="global", rng=SeededRng(42)
    )
    elapsed = time.monotonic() - start
    assert -1.1 <= study.fitted_slope <= -0.3, study.fitted_slope
    assert study.variances[-1] < study.variances[0] / 10
    assert elapsed < 300.0
    announce(
        1,
        f"slope {study.fitted_slope:.3f} in [-1.1, -0.3], Var(8) < Var(2)/10, {elapsed:.1f}s",
    )


def test_criterion_02_entropy_exactness():
    bell = build_state(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))])
    ghz3 = build_state(3, [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2))])
    product = build_state(2, [Gate("H", (1,))])
    assert abs(von_neumann_entropy(partial_trace(bell, [0])) - 1.0) <= 1e-9
    for q in range(3):
        assert abs(von_neumann_entropy(partial_trace(ghz3, [q])) - 1.0) <= 1e-9
    assert von_neumann_entropy(partial_trace(product, [0])) <= 1e-9
    assert von_neumann_entropy(partial_trace(product, [1])) <= 1e-9
    announce(2, "Bell = 1 bit, GHZ3 single-qubit = 1 bit, products = 0 (1e-9)")


def test_criterion_03_mutual_information():
    bell = build_state(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))])
    assert abs(quantum_mutual_information(bell, [0], [1]) - 2.0) <= 1e-9
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    mixed = DensityMatrix(n_qubits=2, values=rho)
    assert abs(quantum_mutual_information(mixed, [0], [1]) - 1.0) <= 1e-9
    announce(3, "Bell I = 2 bits, classical mixture I = 1 bit (1e-9)")


def test_criterion_04_kernel_spectral_formulas():
    identity = Spectrum(np.ones(10), source="kernel")
    assert abs(kernel_effective_dimension(identity, 1.0) - 5.0) <= 1e-12
    rng = SeededRng(1000).child()
    for _ in range(100):
        size = int(rng.integers(2, 30))
        ev = rng.uniform(0.0, 5.0, size=size)
        spectrum = Spectrum(ev, source="kernel")
        total, sq = ev.sum(), (ev**2).sum()
        if total <= 0:
            continue
        for lam in (0.0, 0.01, 0.5, 3.0):
            d_eff = kernel_effective_dimension(spectrum, lam)
            bound = total**2 / (sq + lam * total)
            assert d_eff >= bound - 1e-9
    announce(4, "identity d_eff(1) = 5 exactly; lower bound holds on 100 spectra")


def test_criterion_05_interaction_order():
    parity = standardize(generate(SyntheticSpec("parity", seed=0, params={"n": 256})))
    assert interaction_order(parity, 0.1) == 3
    rng = SeededRng(31).child()
    independent = standardize(
        Dataset(rng.choice([-1.0, 1.0], size=(50000, 3)), ("a", "b", "c"))
    )
    assert interaction_order(independent, 0.1) == 1
    announce(5, "parity order = 3, independent +-1 (N=50000) order = 1 at eps=0.1")


def test_criterion_06_topology():
    square = distance_matrix_from_points(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
    pd_square = persistence_diagram(rips_filtration(square, max_dim=1))
    h1 = pd_square.bars(1)
    assert len(h1) == 1
    assert abs(h1[0].birth - 1.0) <= 1e-9
    assert abs(h1[0].death - math.sqrt(2)) <= 1e-9

    rng = np.random.default_rng(1234)
    theta = rng.uniform(0, 2 * np.pi, 100)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1) + rng.normal(0, 0.05, (100, 2))
    pd_circle = persistence_diagram(rips_filtration(distance_matrix_from_points(pts), max_dim=1))
    long_bars = [b for b in pd_circle.bars(1) if b.lifetime > 0.5]
    assert len(long_bars) == 1

    for seed in range(20):
        gen = np.random.default_rng(1000 + seed)
        n = int(gen.integers(4, 9))
        cloud = gen.normal(size=(n, 3))
        dm = distance_matrix_from_points(cloud)
        diagram = persistence_diagram(rips_filtration(dm, max_dim=2))
        values = np.unique(dm.values[np.triu_indices(n, 1)])
        probes = [0.0] + list(values) + [0.5 * (a + b) for a, b in zip(values, values[1:])]
        for scale in probes:
            for k in (0, 1, 2):
                assert betti_at_scale(diagram, scale, k) == oracle_betti(dm.values, scale, k)
    announce(6, "square H1 = (1, sqrt2); circle has one long H1 bar; 20-seed rank oracle match")


def test_criterion_07_compression_ordering():
    rng = SeededRng(2024).child()
    shape = (16384, 8)  # 1 MiB of float64
    constant = Dataset(np.full(shape, 3.25), tuple("abcdefgh"))

    vocab = rng.normal(size=256)
    structured = Dataset(vocab[rng.integers(0, 256, size=shape)], tuple("abcdefgh"))

    payloads = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    bad = ~np.isfinite(payloads)
    while bad.any():
        payloads[bad] = rng.integers(0, 2**64, size=int(bad.sum()), dtype=np.uint64).view(np.float64)
        bad = ~np.isfinite(payloads)
    random_ds = Dataset(payloads, tuple("abcdefgh"))

    r_const = compression_ratio(constant)
    r_mid = compression_ratio(structured)
    r_rand = compression_ratio(random_ds)
    assert r_const < r_mid < r_rand
    assert r_const < 0.05
    assert r_rand > 0.95
    announce(7, f"ratios ordered: {r_const:.4f} < {r_mid:.4f} < {r_rand:.4f}")


def test_criterion_08_expressibility():
    kl = {}
    for depth in (1, 3):
        circuit = random_layered_circuit(2, depth, SeededRng(99).child(depth))
        kl[depth] = expressibility_kl(circuit, 5000, 75, SeededRng(7))
    assert kl[3] < kl[1]
    for n in range(1, 7):
        integral, _ = quad(lambda f: haar_fidelity_pdf(n, f), 0.0, 1.0)
        assert abs(integral - 1.0) <= 1e-6
    announce(8, f"KL(depth 3) = {kl[3]:.4f} < KL(depth 1) = {kl[1]:.4f}; Haar pdf integrates to 1")


def test_criterion_09_gradient_correctness():
    rng = SeededRng(555).child()
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 4))
        circuit = random_layered_circuit(n, depth, rng)
        theta = rng.uniform(0, 2 * math.pi, circuit.n_params)
        k = int(rng.integers(0, circuit.n_params))
        cost = "Z" * n
        shift = gradient(circuit, theta, cost, k)
        fd = finite_difference(circuit, theta, cost, k)
        assert abs(shift - fd) <= 1e-6
        checked += 1
    announce(9, "parameter shift matches central differences on 50 seeded triples (1e-6)")


def test_criterion_10_composite_algebra():
    rng = SeededRng(77).child()
    for _ in range(50):
        comps = rng.uniform(0, 1, size=4)
        weights = rng.uniform(0, 1, size=4)
        weights = weights / weights.sum()
        mv = MetricVector()
        for name, value in zip(
            ("distributional_entropy", "interaction_order", "compression_ratio", "topological_complexity"),
            comps,
        ):
            mv.add(name, float(value), (0.0, 1.0))
        score = classical_complexity(mv, tuple(weights))
        assert -1e-12 <= score.value <= 1.0 + 1e-12

    cfg = ConfigProfile()
    ghz3 = build_state(3, [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2))])
    qscore = quantum_complexity(quantum_metrics(uniform_ensemble([ghz3, zero_state(3)]), cfg), (1 / 6,) * 6)
    assert 0.0 <= qscore.value <= 1.0
    ds = Dataset(np.eye(3), ("a", "b", "c"))
    iscore = profile_quantum(ds, "basis", cfg).composites[0]
    assert 0.0 <= iscore.value <= 1.0

    def synthetic_study(alpha, depth, c_norm, noise=0.0, seed=0):
        gen = np.random.default_rng(seed)
        variances = tuple(
            math.exp(-alpha * n * depth * c_norm) * math.exp(gen.normal(0, noise))
            for n in (2, 3, 4, 5, 6)
        )
        return GradientStudy((2, 3, 4, 5, 6), depth, 500, "global", variances, 0.0, seed)

    assert abs(fit_alpha(synthetic_study(0.2, 2, 0.5), 2, 0.5) - 0.2) <= 1e-9
    noisy = fit_alpha(synthetic_study(0.3, 3, 0.8, noise=0.01, seed=4), 3, 0.8)
    assert abs(noisy - 0.3) / 0.3 <= 0.05

    normalized = normalize_complexity([0.4, 2.2, 1.1])
    assert max(normalized) == 1.0
    announce(10, "composites in [0,1]; fit_alpha exact noise-free and 5% noisy; max maps to 1")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    commands = [
        ["profile", "synth:parity", "--seed", "3"],
        ["profile", "synth:circle:n=40", "--seed", "3", "--format", "csv"],
        ["qprofile", "synth:phase_ring:n=12", "--map", "angle", "--seed", "3"],
        ["barren", "--n-min", "2", "--n-max", "3", "--depth", "1", "--samples", "200",
         "--seed", "3", "--format", "csv"],
    ]
    for argv in commands:
        code_a = main(argv)
        out_a = capsys.readouterr().out
        code_b = main(argv)
        out_b = capsys.readouterr().out
        assert code_a == code_b == 0
        assert out_a == out_b, f"non-deterministic output for {argv}"

    report_path = str(tmp_path / "r.json")
    assert main(["profile", "synth:parity", "--seed", "3", "--output", report_path]) == 0
    capsys.readouterr()
    assert main(["report", report_path]) == 0
    first = capsys.readouterr().out
    assert main(["report", report_path]) == 0
    second = capsys.readouterr().out
    assert first == second
    announce(11, "profile/qprofile/barren/report outputs byte-identical across reruns")
