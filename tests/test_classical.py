import math
import tracemalloc
import warnings
import zlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datacomplexity import classical
from datacomplexity.classical import (
    Spectrum,
    compression_ratio,
    covariance_spectrum,
    distributional_entropy,
    effective_rank,
    gram_spectrum,
    intrinsic_dimension,
    interaction_order,
    joint_cumulant,
    kernel_effective_dimension,
    kernel_gram,
)
from datacomplexity.config import ConfigProfile
from datacomplexity.dataset import Dataset, standardize
from datacomplexity.synthetic import generate, parse_synth_uri
from datacomplexity.errors import (
    DegenerateSpectrum,
    EmptyDataset,
    InsufficientSamples,
    InvalidConfig,
    InvalidIndexSet,
    OrderTooHigh,
)

# ---------------------------------------------------------------------------
# independent cumulant oracle: restricted-growth-string partitions and plain
# Python loops over the rows, kept deliberately separate from the library path


def oracle_partitions(k):
    """Set partitions of range(k) enumerated via restricted growth strings."""
    def rec(prefix):
        if len(prefix) == k:
            n_blocks = max(prefix) + 1
            blocks = [[] for _ in range(n_blocks)]
            for pos, b in enumerate(prefix):
                blocks[b].append(pos)
            yield [tuple(b) for b in blocks]
            return
        top = max(prefix) if prefix else -1
        for b in range(top + 2):
            yield from rec(prefix + [b])

    yield from rec([])


def oracle_moment(rows, cols):
    total = 0.0
    for row in rows:
        prod = 1.0
        for c in cols:
            prod *= row[c]
        total += prod
    return total / len(rows)


def oracle_cumulant(matrix, index_set):
    rows = [list(r) for r in matrix]
    value = 0.0
    for blocks in oracle_partitions(len(index_set)):
        term = 1.0
        for block in blocks:
            term *= oracle_moment(rows, [index_set[i] for i in block])
        r = len(blocks)
        value += (-1.0) ** (r - 1) * math.factorial(r - 1) * term
    return value


def standardized(matrix):
    return standardize(Dataset(np.asarray(matrix, dtype=float), tuple(f"c{j}" for j in range(np.shape(matrix)[1]))))


def parity_dataset(reps=64):
    base = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    return standardized(np.tile(base, (reps, 1)))


# ---------------------------------------------------------------------------
# spectra


def test_covariance_spectrum_independent_columns():
    rng = np.random.default_rng(7)
    ds = standardized(rng.normal(size=(10000, 2)))
    ev = covariance_spectrum(ds).eigenvalues
    assert ev == pytest.approx([1.0, 1.0], abs=0.05)


def test_covariance_spectrum_rank_one():
    col = np.linspace(-1, 1, 50)
    ds = Dataset(np.stack([col, 2 * col], axis=1), ("a", "b"))
    ev = covariance_spectrum(ds).eigenvalues
    assert ev[1] <= 1e-10


def test_covariance_spectrum_single_column():
    ds = standardized(np.arange(10.0).reshape(-1, 1))
    ev = covariance_spectrum(ds).eigenvalues
    assert ev == pytest.approx([1.0])


def test_covariance_needs_two_rows():
    with pytest.raises(InsufficientSamples):
        covariance_spectrum(Dataset(np.array([[1.0, 2.0]]), ("a", "b")))


@pytest.mark.parametrize(
    "eigenvalues,expected",
    [((1.0, 1.0, 1.0, 1.0), 4.0), ((1.0, 0.0, 0.0), 1.0), ((3.0, 1.0), 1.6)],
)
def test_intrinsic_dimension_closed_forms(eigenvalues, expected):
    assert intrinsic_dimension(Spectrum(np.array(eigenvalues))) == pytest.approx(expected)


def test_intrinsic_dimension_degenerate():
    with pytest.raises(DegenerateSpectrum):
        intrinsic_dimension(Spectrum(np.zeros(3)))


@given(st.floats(min_value=0.1, max_value=1e6))
def test_spectrum_scale_invariance(scale):
    ev = np.array([5.0, 2.0, 0.5])
    base = intrinsic_dimension(Spectrum(ev))
    scaled = intrinsic_dimension(Spectrum(ev * scale))
    assert scaled == pytest.approx(base, rel=1e-9)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_identical_rows():
    ds = Dataset(np.ones((32, 3)), ("a", "b", "c"))
    assert distributional_entropy(ds, 16) == 0.0


def test_entropy_eight_distinct_rows():
    ds = Dataset(np.arange(8.0).reshape(-1, 1), ("a",))
    assert distributional_entropy(ds, 8) == pytest.approx(3.0)


def test_entropy_two_rows():
    ds = Dataset(np.array([[0.0], [1.0]]), ("a",))
    assert distributional_entropy(ds, 2) == pytest.approx(1.0)


def test_entropy_invalid_bins():
    with pytest.raises(InvalidConfig):
        distributional_entropy(Dataset(np.ones((2, 1)), ("a",)), 0)


def test_entropy_row_permutation_invariant():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(60, 2))
    a = distributional_entropy(Dataset(m, ("a", "b")), 16)
    b = distributional_entropy(Dataset(m[rng.permutation(60)], ("a", "b")), 16)
    assert a == pytest.approx(b)


@pytest.mark.parametrize("bins", [2, 4, 8, 16])
def test_entropy_nondecreasing_under_bin_doubling(bins):
    # doubling the bin count refines every bin, so entropy cannot drop
    rng = np.random.default_rng(11)
    ds = Dataset(rng.normal(size=(200, 2)), ("a", "b"))
    assert distributional_entropy(ds, 2 * bins) >= distributional_entropy(ds, bins) - 1e-12


# ---------------------------------------------------------------------------
# cumulants and interaction order


def test_order2_cumulant_equals_covariance():
    rng = np.random.default_rng(5)
    ds = standardized(rng.normal(size=(300, 3)))
    cov = np.cov(ds.matrix, rowvar=False, ddof=0)  # raw-moment convention (mean-zero columns)
    for i, j in combinations(range(3), 2):
        assert joint_cumulant(ds, (i, j)).value == pytest.approx(cov[i, j], abs=1e-12)


def test_parity_cumulants_match_enumeration_oracle():
    # population oracle: the 4 equiprobable outcomes of (x1, x2, x1*x2)
    outcomes = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    assert oracle_cumulant(outcomes, (0, 1, 2)) == pytest.approx(1.0)
    for pair in combinations(range(3), 2):
        assert oracle_cumulant(outcomes, pair) == pytest.approx(0.0, abs=1e-12)

    ds = parity_dataset(reps=64)
    k123 = joint_cumulant(ds, (0, 1, 2)).value
    # standardization rescales by ((N-1)/N)^(3/2); equals 1 up to that factor
    n = ds.n_samples
    assert k123 == pytest.approx(((n - 1) / n) ** 1.5, abs=1e-12)
    assert abs(k123 - 1.0) < 0.02
    for pair in combinations(range(3), 2):
        assert joint_cumulant(ds, pair).value == pytest.approx(0.0, abs=1e-12)


def test_cumulants_match_bruteforce_oracle_orders_3_and_4():
    rng = np.random.default_rng(17)
    ds = standardized(rng.normal(size=(100, 4)) @ rng.normal(size=(4, 4)))
    for idx in [(0, 1, 2), (1, 2, 3), (0, 1, 2, 3)]:
        expected = oracle_cumulant(ds.matrix, idx)
        assert joint_cumulant(ds, idx).value == pytest.approx(expected, abs=1e-10)


def test_independent_normal_triple_cumulant_small():
    rng = np.random.default_rng(23)
    ds = standardized(rng.normal(size=(50000, 3)))
    assert abs(joint_cumulant(ds, (0, 1, 2)).value) <= 0.05


def test_cross_block_cumulants_vanish():
    # columns 0,1 from one independent block, column 2 from another
    rng = np.random.default_rng(29)
    n = 40000
    block_a = rng.normal(size=(n, 2))
    block_b = rng.normal(size=(n, 1)) ** 3
    ds = standardized(np.hstack([block_a, block_b]))
    tol = 3.0 / math.sqrt(n)
    for idx in [(0, 2), (1, 2), (0, 1, 2)]:
        assert abs(joint_cumulant(ds, idx).value) <= 3 * tol


def test_cumulant_errors():
    ds = parity_dataset(reps=4)
    with pytest.raises(InvalidIndexSet):
        joint_cumulant(ds, (0, 0))
    with pytest.raises(OrderTooHigh):
        joint_cumulant(standardized(np.random.default_rng(0).normal(size=(20, 5))), (0, 1, 2, 3, 4))
    with pytest.raises(InvalidIndexSet):
        joint_cumulant(ds, (0, 9))


def test_interaction_order_parity():
    assert interaction_order(parity_dataset(), 0.1) == 3


def test_interaction_order_independent_pm1():
    rng = np.random.default_rng(31)
    ds = standardized(rng.choice([-1.0, 1.0], size=(50000, 3)))
    assert interaction_order(ds, 0.1) == 1


def test_interaction_order_correlated_pair():
    rng = np.random.default_rng(37)
    n = 20000
    x = rng.normal(size=n)
    y = 0.9 * x + math.sqrt(1 - 0.81) * rng.normal(size=n)
    ds = standardized(np.stack([x, y], axis=1))
    # analytic covariance of the standardized pair is 0.9 > 0.1
    assert interaction_order(ds, 0.1) == 2


def test_interaction_order_rejects_bad_epsilon():
    ds = parity_dataset(reps=4)
    for eps in (math.nan, math.inf, -math.inf, 0.0, -0.1):
        with pytest.raises(InvalidConfig):
            interaction_order(ds, eps)


# the scan oracle: every order's largest |cumulant| from one joint_cumulant
# call per index set, in lexicographic order, lowest order first


def loop_max_abs_cumulant(ds, order):
    best = 0.0
    for idx in combinations(range(ds.n_features), order):
        v = abs(joint_cumulant(ds, idx).value)
        if v > best:
            best = v
    return best


def loop_interaction_order(ds, epsilon):
    result = 1
    for k in range(2, min(4, ds.n_features) + 1):
        if loop_max_abs_cumulant(ds, k) > epsilon:
            result = k
    return result


@pytest.mark.parametrize("n", [7, 48, 129])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_chunked_cumulants_equal_joint_cumulant_bitwise(n, order, monkeypatch):
    rng = np.random.default_rng(1000 * n + order)
    ds = standardized(rng.normal(size=(n, 7)) @ rng.normal(size=(7, 7)) + rng.exponential(size=(n, 7)))
    # three sets per chunk, so the 35 sets of order 3 or 4 span 12 chunks
    monkeypatch.setattr(classical, "CUMULANT_CHUNK_BYTES", 3 * 8 * n)
    chunks = list(classical._cumulant_chunks(ds, order))
    assert len(chunks) > 1
    sets = [tuple(row) for s, _ in chunks for row in s.tolist()]
    values = [float(v) for _, vals in chunks for v in vals]
    assert sets == list(combinations(range(7), order))
    assert values == [joint_cumulant(ds, idx).value for idx in sets]


def correlated_pair_dataset():
    rng = np.random.default_rng(37)
    x = rng.normal(size=500)
    return standardized(np.stack([x, 0.9 * x + math.sqrt(1 - 0.81) * rng.normal(size=500)], axis=1))


@pytest.mark.parametrize(
    "ds, expected",
    [
        (standardized(np.random.default_rng(3).normal(size=(20, 1))), 1),
        (parity_dataset(), 3),
        (correlated_pair_dataset(), 2),
    ],
    ids=["d1_floor", "parity", "correlated_pair"],
)
def test_interaction_order_matches_loop_oracle_examples(ds, expected):
    eps = ConfigProfile().epsilon_cumulant
    assert loop_interaction_order(ds, eps) == expected
    assert interaction_order(ds, eps) == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 9),
    n=st.integers(8, 40),
    pick=st.integers(0, 10**6),
    scale=st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0]),
    chunk_sets=st.integers(1, 5),
)
def test_interaction_order_matches_loop_oracle(seed, d, n, pick, scale, chunk_sets):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, d)) ** rng.integers(1, 4, size=d)
    if d >= 3 and seed % 2:
        m[:, 2] = np.sign(m[:, 0] * m[:, 1])  # a third-order parity interaction
    ds = standardized(m)
    # epsilon near one of the data's |cumulant| maxima (exactly at one when
    # scale is 1.0), so every order can decide the result
    maxima = [loop_max_abs_cumulant(ds, k) for k in range(2, min(4, d) + 1)] or [1.0]
    eps = max(scale * maxima[pick % len(maxima)], 1e-300)
    with pytest.MonkeyPatch.context() as mp:
        # a few sets per chunk, so the scan crosses chunk boundaries
        mp.setattr(classical, "CUMULANT_CHUNK_BYTES", chunk_sets * 8 * n)
        assert interaction_order(ds, eps) == loop_interaction_order(ds, eps)


def test_full_cumulant_scan_memory_peak():
    ds = standardize(generate(parse_synth_uri("synth:gaussian_blob:n=96,d=40")))
    # epsilon above every |cumulant|: all 102,050 sets of orders 4, 3 and 2 are scanned
    tracemalloc.start()
    try:
        assert interaction_order(ds, 1e9) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# ---------------------------------------------------------------------------
# compression proxy


def mib_dataset(fill):
    return Dataset(fill((16384, 8)), tuple("abcdefgh"))


def test_compression_constant_rows():
    ds = mib_dataset(lambda shape: np.full(shape, 1.25))
    assert compression_ratio(ds) < 0.05


def test_compression_random_payloads():
    rng = np.random.default_rng(41)
    vals = rng.integers(0, 2**64, size=(16384, 8), dtype=np.uint64).view(np.float64)
    bad = ~np.isfinite(vals)
    while bad.any():
        vals[bad] = rng.integers(0, 2**64, size=int(bad.sum()), dtype=np.uint64).view(np.float64)
        bad = ~np.isfinite(vals)
    assert compression_ratio(Dataset(vals, tuple("abcdefgh"))) > 0.95


def test_compression_matches_pinned_codec():
    ds = standardized(np.random.default_rng(43).normal(size=(100, 3)))
    raw = ds.canonical_bytes()
    assert compression_ratio(ds) == pytest.approx(len(zlib.compress(raw, 9)) / len(raw))


def test_compression_self_concat_property():
    rng = np.random.default_rng(47)
    m = rng.normal(size=(500, 4))
    single = compression_ratio(Dataset(m, tuple("abcd")))
    double = compression_ratio(Dataset(np.vstack([m, m]), tuple("abcd")))
    assert double <= single + 0.02


def test_canonical_bytes_little_endian_row_major():
    ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), ("a", "b"))
    expected = np.array([1.0, 2.0, 3.0, 4.0]).astype("<f8").tobytes()
    assert ds.canonical_bytes() == expected


# ---------------------------------------------------------------------------
# kernels


def test_rbf_unit_diagonal():
    rng = np.random.default_rng(53)
    ds = Dataset(rng.normal(size=(20, 3)), ("a", "b", "c"))
    gram = kernel_gram(ds, "rbf", 1.0)
    assert np.allclose(np.diag(gram), 1.0)


def test_linear_kernel_orthogonal_rows():
    ds = Dataset(np.eye(4), tuple("abcd"))
    assert np.allclose(kernel_gram(ds, "linear", 1.0), np.eye(4))


def test_rbf_large_bandwidth_limit():
    rng = np.random.default_rng(59)
    ds = Dataset(rng.normal(size=(10, 2)), ("a", "b"))
    gram = kernel_gram(ds, "rbf", 1e6)
    assert np.all(np.abs(gram - 1.0) < 1e-9)


@pytest.mark.parametrize(
    "bandwidth, expected",
    [
        # the square underflows to 0 or to a subnormal: distinct rows read 0
        (5e-324, [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]),
        (1e-160, [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]),
        # the square overflows: every pair reads 1
        (1e200, np.ones((4, 4))),
        (1e308, np.ones((4, 4))),
    ],
)
def test_rbf_extreme_bandwidth_gives_the_limit_kernel(bandwidth, expected):
    ds = Dataset(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]), ("a", "b"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram = kernel_gram(ds, "rbf", bandwidth)
    assert np.array_equal(gram, expected)


def test_kernel_effective_dimension_identity():
    s = Spectrum(np.ones(10), source="kernel")
    assert kernel_effective_dimension(s, 1.0) == pytest.approx(5.0, abs=1e-12)


def test_kernel_effective_dimension_examples():
    assert kernel_effective_dimension(Spectrum(np.array([1.0, 0, 0]), "kernel"), 1.0) == pytest.approx(0.5)
    assert kernel_effective_dimension(Spectrum(np.array([2.0, 1.0, 0.0]), "kernel"), 0.0) == 2.0


def test_kernel_effective_dimension_negative_lambda():
    with pytest.raises(InvalidConfig):
        kernel_effective_dimension(Spectrum(np.ones(3), "kernel"), -0.5)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=12).filter(
        lambda evs: sum(evs) > 1e-6  # subnormal sums underflow when squared
    ),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_deff_monotone_and_bounded(evs, lam_a, lam_b):
    s = Spectrum(np.array(evs), source="kernel")
    lam_lo, lam_hi = sorted((lam_a, lam_b))
    d_lo = kernel_effective_dimension(s, lam_lo)
    d_hi = kernel_effective_dimension(s, lam_hi)
    assert d_hi <= d_lo + 1e-9
    assert 0.0 <= d_lo <= len(evs)
    # spectral lower bound from the effective rank
    ev = s.eigenvalues
    total, sq = ev.sum(), (ev**2).sum()
    for lam in (lam_lo, lam_hi):
        assert kernel_effective_dimension(s, lam) >= total**2 / (sq + lam * total) - 1e-9


@pytest.mark.parametrize(
    "eigenvalues,expected",
    [
        ((1.0,) * 7, 7.0),
        ((1.0, 0.0, 0.0), 1.0),
        ((3.0, 1.0), 1.6),
        # sub-threshold eigenvalues count as zero, as in kernel_effective_dimension
        ((1.0,) + (1e-11,) * 1000, 1.0),
    ],
)
def test_effective_rank_closed_forms(eigenvalues, expected):
    assert effective_rank(Spectrum(np.array(eigenvalues), "kernel")) == pytest.approx(expected)


def test_gram_spectrum_psd():
    rng = np.random.default_rng(61)
    ds = Dataset(rng.normal(size=(15, 3)), ("a", "b", "c"))
    spec = gram_spectrum(kernel_gram(ds, "rbf", 1.0))
    assert np.all(spec.eigenvalues >= 0.0)


def test_empty_compression_rejected():
    with pytest.raises(EmptyDataset):
        Dataset(np.zeros((0, 2)), ("a", "b"))
