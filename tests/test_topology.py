import math

import numpy as np
import pytest

import rips_oracle
from datacomplexity.dataset import Dataset, standardize
from datacomplexity.errors import InvalidConfig, TooManyPoints
from datacomplexity.qmetrics import fidelity_distances
from datacomplexity.topology import (
    Bar,
    DistanceMatrix,
    betti_at_scale,
    distance_matrix_from_points,
    enclosing_radius,
    euler_characteristic,
    persistence_diagram,
    rips_filtration,
    topological_complexity,
    total_persistence,
)
from rips_oracle import oracle_betti

# ---------------------------------------------------------------------------
# point-cloud distances


def test_equal_rows_exactly_zero_apart():
    """Equal rows are 0 apart wherever they sit in the cloud; from the
    product x @ x.T alone, the three equal z-scored rows below were 1.5e-8
    apart in one row order and 0 in another."""
    v = 201.60621229651883
    rows = np.array([[0, 0, 0], [0, 0, 3.6], [0, 0, v], [0.2, 0.2, v], [0, 0, 0], [0, 0, 0]])
    for order in ([0, 1, 2, 3, 4, 5], [0, 1, 2, 4, 3, 5]):
        z = standardize(Dataset(rows[order], ("a", "b", "c"))).matrix
        d = distance_matrix_from_points(z).values
        equal = [i for i, r in enumerate(order) if r in (0, 4, 5)]
        assert d[np.ix_(equal, equal)].tolist() == [[0.0] * 3] * 3


# ---------------------------------------------------------------------------
# fixed small complexes


def equilateral3():
    d = np.ones((3, 3)) - np.eye(3)
    return DistanceMatrix(values=d)


def test_rips_complete_triangle():
    # the explicit builder lists the one triangle, entering at 1.0
    explicit = rips_oracle.rips_filtration(equilateral3(), max_scale=2.0, max_dim=1)
    assert len(explicit.by_dim[2]) == 1 and explicit.by_dim[2][0][1] == 1.0
    # the implicit engine lists no triangle; the filled triangle shows in the
    # diagram: no H1 bar, and both finite H0 bars die at 1.0
    f = rips_filtration(equilateral3(), max_scale=2.0, max_dim=1)
    assert len(f.by_dim[0]) == 3
    assert f.values.tolist() == [1.0, 1.0, 1.0]
    pd = persistence_diagram(f)
    assert pd.bars(1) == []
    assert [b.death for b in pd.bars(0) if not b.infinite] == [1.0, 1.0]


def test_rips_lists_only_edges_up_to_enclosing_radius():
    rng = np.random.default_rng(5)
    dm = distance_matrix_from_points(rng.normal(size=(30, 3)))
    f = rips_filtration(dm, max_dim=1)
    assert len(f.by_dim) == 2
    radius = enclosing_radius(dm)
    assert radius < dm.diameter()
    assert f.values.max() <= radius
    assert len(f.by_dim[1]) < 30 * 29 // 2


def test_rips_below_min_distance():
    f = rips_filtration(equilateral3(), max_scale=0.5, max_dim=1)
    assert len(f.by_dim[0]) == 3
    assert len(f.by_dim[1]) == 0


def test_rips_two_far_points():
    dm = DistanceMatrix(values=np.array([[0.0, 3.0], [3.0, 0.0]]))
    f = rips_filtration(dm, max_scale=2.0, max_dim=1)
    assert len(f.by_dim[0]) == 2 and len(f.by_dim[1]) == 0


def test_point_cap():
    dm = DistanceMatrix(values=np.zeros((5, 5)))
    with pytest.raises(TooManyPoints):
        rips_filtration(dm, max_scale=1.0, max_dim=1, point_cap=4)


def test_three_separated_points_diagram():
    d = np.array([[0, 9, 9], [9, 0, 9], [9, 9, 0]], dtype=float)
    f = rips_filtration(DistanceMatrix(values=d), max_scale=1.0, max_dim=1)
    pd = persistence_diagram(f)
    h0 = pd.bars(0)
    assert len(h0) == 3 and all(b.infinite for b in h0)
    assert pd.bars(1) == []


def square_diagram(max_dim=1):
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    dm = distance_matrix_from_points(pts)
    return persistence_diagram(rips_filtration(dm, max_dim=max_dim))


def test_square_single_h1_bar():
    pd = square_diagram()
    h1 = pd.bars(1)
    assert len(h1) == 1
    assert h1[0].birth == pytest.approx(1.0, abs=1e-9)
    assert h1[0].death == pytest.approx(math.sqrt(2), abs=1e-9)


def test_square_total_persistence():
    pd = square_diagram()
    assert total_persistence(pd, 1) == pytest.approx(math.sqrt(2) - 1.0)


def test_square_betti_curve():
    pd = square_diagram()
    assert betti_at_scale(pd, 1.2, 1) == 1
    assert betti_at_scale(pd, 1.5, 1) == 0
    assert euler_characteristic(pd, 1.2) == 0  # one component, one loop


def test_filled_triangle_euler():
    pd = persistence_diagram(rips_filtration(equilateral3(), max_scale=2.0, max_dim=1))
    assert euler_characteristic(pd, 1.5) == 1


def test_four_isolated_points_euler():
    d = 9.0 * (np.ones((4, 4)) - np.eye(4))
    pd = persistence_diagram(rips_filtration(DistanceMatrix(values=d), max_scale=1.0, max_dim=1))
    assert euler_characteristic(pd, 0.5) == 4


def test_total_persistence_empty_and_single():
    pd = square_diagram()
    assert total_persistence(pd, 1) > 0
    bar = Bar(dim=1, birth=1.0, death=math.sqrt(2))
    assert bar.lifetime == pytest.approx(math.sqrt(2) - 1)


def test_topological_complexity_weights():
    pd = square_diagram()
    assert topological_complexity(pd, (0.0, 0.0)) == 0.0
    assert topological_complexity(pd, (0.0, 1.0)) == pytest.approx(math.sqrt(2) - 1)


def test_single_point_infinite_bar_contribution():
    dm = DistanceMatrix(values=np.zeros((1, 1)))
    pd = persistence_diagram(rips_filtration(dm, max_scale=2.5, max_dim=0))
    assert topological_complexity(pd, (1.0,)) == pytest.approx(2.5)


def test_h0_bars_at_scale_zero_equal_n():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(12, 3))
    pd = persistence_diagram(rips_filtration(distance_matrix_from_points(pts), max_dim=1))
    assert betti_at_scale(pd, 0.0, 0) == 12


def test_infinite_h0_bars_count_components():
    rng = np.random.default_rng(4)
    cloud = np.vstack(
        [rng.normal(size=(5, 2)) * 0.1 + center for center in ([0, 0], [50, 0], [0, 50])]
    )
    dm = distance_matrix_from_points(cloud)
    pd = persistence_diagram(rips_filtration(dm, max_scale=5.0, max_dim=1))
    assert sum(1 for b in pd.bars(0) if b.infinite) == 3
    assert betti_at_scale(pd, 4.0, 0) == 3


def test_relabeling_invariance():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(10, 2))
    dm = distance_matrix_from_points(pts)
    perm = rng.permutation(10)
    dm2 = DistanceMatrix(values=dm.values[np.ix_(perm, perm)])
    bars_a = sorted((b.dim, round(b.birth, 12), round(b.death, 12)) for b in persistence_diagram(rips_filtration(dm, max_dim=1)).intervals)
    bars_b = sorted((b.dim, round(b.birth, 12), round(b.death, 12)) for b in persistence_diagram(rips_filtration(dm2, max_dim=1)).intervals)
    assert bars_a == bars_b


def test_stability_under_small_perturbation():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(14, 2))
    dm = distance_matrix_from_points(pts)
    delta = 1e-6
    noise = rng.uniform(-delta, delta, size=dm.values.shape)
    noise = 0.5 * (noise + noise.T)
    np.fill_diagonal(noise, 0.0)
    perturbed = DistanceMatrix(values=np.clip(dm.values + noise, 0.0, None))
    pd_a = persistence_diagram(rips_filtration(dm, max_scale=float(dm.values.max()), max_dim=1))
    pd_b = persistence_diagram(
        rips_filtration(perturbed, max_scale=float(dm.values.max()), max_dim=1)
    )
    for dim in (0, 1):
        bars_a = sorted((b.birth, b.death) for b in pd_a.bars(dim))
        bars_b = sorted((b.birth, b.death) for b in pd_b.bars(dim))
        assert len(bars_a) == len(bars_b)
        for (b1, d1), (b2, d2) in zip(bars_a, bars_b):
            assert abs(b1 - b2) <= delta + 1e-9
            assert abs(d1 - d2) <= delta + 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_reduction_matches_rank_oracle_small_clouds(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(4, 9))
    pts = rng.normal(size=(n, 3))
    dm = distance_matrix_from_points(pts)
    pd = persistence_diagram(rips_filtration(dm, max_dim=2))
    d = dm.values
    values = np.unique(d[np.triu_indices(n, 1)])
    probes = list(values) + [0.5 * (a + b) for a, b in zip(values, values[1:])] + [0.0]
    for scale in probes:
        for k in (0, 1, 2):
            assert betti_at_scale(pd, scale, k) == oracle_betti(d, scale, k), (
                f"betti_{k} mismatch at scale {scale}"
            )


def test_noisy_circle_single_h1():
    rng = np.random.default_rng(1234)
    theta = rng.uniform(0, 2 * np.pi, 100)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1) + rng.normal(0, 0.05, (100, 2))
    dm = distance_matrix_from_points(pts)
    pd = persistence_diagram(rips_filtration(dm, max_dim=1))
    long_bars = [b for b in pd.bars(1) if b.lifetime > 0.5]
    assert len(long_bars) == 1
    # cross-check the loop against the rank oracle inside the bar
    bar = long_bars[0]
    mid = 0.5 * (bar.birth + bar.death)
    assert oracle_betti(dm.values, mid, 1) == betti_at_scale(pd, mid, 1) == 1


def test_triangle_inequality_not_required():
    # kernel-style dissimilarities may violate the triangle inequality
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])
    pd = persistence_diagram(rips_filtration(DistanceMatrix(values=d), max_dim=1))
    assert betti_at_scale(pd, 1.0, 0) == 1


def test_asymmetric_matrix_rejected():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InvalidConfig):
        DistanceMatrix(values=d)


def test_diagram_json_export():
    pd = square_diagram()
    objs = pd.to_json_obj()
    assert all(set(o) == {"dim", "birth", "death", "infinite"} for o in objs)
    assert any(o["infinite"] for o in objs)


# ---------------------------------------------------------------------------
# differential test: the implicit engine against the explicit builder and
# reducer of rips_oracle, exact PersistenceDiagram equality (floats included)

DIFFERENTIAL_SIZES = (1, 2, 3, 4, 5, 7, 9, 12, 16, 22, 30, 40)


def dissimilarities(kind, n, rng):
    if kind == "euclidean":
        return distance_matrix_from_points(rng.normal(size=(n, 3)))
    if kind == "nonmetric_ties":
        # one decimal: many ties and zeros, and the triangle inequality fails
        u = np.triu(np.round(rng.uniform(0.0, 1.0, size=(n, n)), 1), k=1)
        return DistanceMatrix(values=u + u.T)
    amps = rng.normal(size=(n, 8)) + 1j * rng.normal(size=(n, 8))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return DistanceMatrix(values=fidelity_distances(np.abs(amps @ amps.conj().T) ** 2))


@pytest.mark.parametrize("kind", ["euclidean", "nonmetric_ties", "fidelity"])
def test_diagram_equals_explicit_oracle(kind):
    rng = np.random.default_rng(77)
    cases = [dissimilarities(kind, n, rng) for n in DIFFERENTIAL_SIZES]
    if kind == "euclidean":  # the octahedron has one H2 bar
        cases.append(distance_matrix_from_points(np.vstack([np.eye(3), -np.eye(3)])))
    seen = set()
    for dm in cases:
        explicit = rips_oracle.persistence_diagram(rips_oracle.rips_filtration(dm, max_dim=1))
        # below the enclosing radius: inside the longest loop, if there is one
        loop = max(explicit.bars(1), key=lambda b: b.lifetime, default=None)
        inside = 0.5 * (loop.birth + loop.death) if loop else 0.6 * enclosing_radius(dm)
        for max_dim in (0, 1, 2) if dm.n <= 12 else (0, 1):
            for max_scale in (None, inside, 1.5 * dm.diameter() + 0.1):
                got = persistence_diagram(rips_filtration(dm, max_scale, max_dim))
                want = rips_oracle.persistence_diagram(rips_oracle.rips_filtration(dm, max_scale, max_dim))
                assert got == want, (dm.n, max_dim, max_scale)
                seen.update((b.dim, b.infinite) for b in got.intervals)
    # the cases reach finite and essential classes in H0 and H1, and H2 bars
    assert {(0, False), (0, True), (1, False), (1, True)} <= seen
    assert any(dim == 2 for dim, _ in seen)
