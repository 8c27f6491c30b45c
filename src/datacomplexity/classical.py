"""Classical complexity metrics: spectra, entropy, cumulants, compression.

Covers everything except topology: intrinsic dimension from the covariance
spectrum, distributional entropy over discretized rows, joint cumulants and
the interaction order they induce, the compression-ratio proxy for
algorithmic complexity, and kernel-spectrum effective dimensions.

The interaction order scans orders from the highest (min(4, d)) down and
stops at the first chunk of index sets with a significant cumulant, which
gives the same integer as taking every order's maximum. Each chunk is
evaluated as arrays, one 256 KiB ``(sets, N)`` moment array at a time
(``CUMULANT_CHUNK_BYTES``), with the values ``joint_cumulant`` gives per set.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .dataset import Dataset, scale_by_max_magnitude
from .errors import (
    DegenerateSpectrum,
    EmptyDataset,
    InsufficientSamples,
    InvalidConfig,
    InvalidIndexSet,
    NotStandardized,
    NumericalError,
    OrderTooHigh,
)
from .topology import squared_distances

CUMULANT_ORDER_CAP = 4
EIGENVALUE_ZERO_REL = 1e-10  # eigenvalues below this * lambda_max count as zero
COMPRESSION_LEVEL = 9  # pinned zlib level; recorded in reports
CUMULANT_CHUNK_BYTES = 256 * 1024  # one (sets, N) float64 moment array of the cumulant scan


@dataclass(frozen=True)
class Spectrum:
    """Non-negative eigenvalues sorted descending, with their origin."""

    eigenvalues: np.ndarray
    source: str = "covariance"

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if ev.ndim != 1 or ev.size == 0:
            raise DegenerateSpectrum("spectrum must be a non-empty 1-D array")
        if not np.all(np.isfinite(ev)):
            raise NumericalError("non-finite eigenvalue")
        if np.any(ev < -1e-10 * max(1.0, float(np.max(np.abs(ev))))):
            raise NumericalError(f"negative eigenvalue beyond tolerance: {ev.min()}")
        ev = np.sort(np.clip(ev, 0.0, None))[::-1].copy()
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)

    def nonzero(self) -> np.ndarray:
        """Eigenvalues above the relative zero threshold."""
        ev = self.eigenvalues
        return ev[ev > EIGENVALUE_ZERO_REL * ev[0]]


@dataclass(frozen=True)
class CumulantValue:
    index_set: tuple[int, ...]
    order: int
    value: float


def covariance_spectrum(ds: Dataset) -> Spectrum:
    """Eigenvalues of the d x d sample covariance matrix, clamped at zero."""
    if ds.n_samples < 2:
        raise InsufficientSamples("covariance needs N >= 2 rows")
    cov = np.cov(ds.matrix, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    if not np.all(np.isfinite(cov)):
        raise NumericalError("covariance overflowed; standardize the data first")
    ev = np.linalg.eigvalsh(cov)
    return Spectrum(eigenvalues=np.clip(ev, 0.0, None), source="covariance")


def _participation_ratio(ev: np.ndarray) -> float:
    total = float(ev.sum())
    sq = float((ev**2).sum())
    if sq <= 0.0:
        raise DegenerateSpectrum("all eigenvalues are zero")
    return total * total / sq


def intrinsic_dimension(s: Spectrum) -> float:
    """Participation ratio of the spectrum: (sum)^2 / sum of squares."""
    return _participation_ratio(s.eigenvalues)


def effective_rank(s: Spectrum) -> float:
    """Participation ratio of the eigenvalues above the relative zero threshold.

    Sub-threshold eigenvalues are dropped, as in kernel_effective_dimension,
    so by Cauchy-Schwarz r_eff never exceeds the count of nonzero
    eigenvalues; each call checks that bound.
    """
    kept = s.nonzero()
    r = _participation_ratio(kept)
    if r > kept.size + 1e-9:
        raise NumericalError(f"effective rank {r} exceeded the spectrum rank {kept.size}")
    return r


def kernel_effective_dimension(s: Spectrum, lam: float) -> float:
    """Ridge-regularized dimension: sum of eig / (eig + lam).

    The relative zero threshold applies at every lam, not just lam = 0 where
    the value is the nonzero-eigenvalue count; otherwise a sub-threshold
    eigenvalue could push d_eff above the rank for tiny ridges. Each call
    checks the spectral lower bound (sum)^2 / (sum of squares + lam * sum).
    """
    if lam < 0:
        raise InvalidConfig("regularization must be >= 0")
    ev = s.nonzero()
    d_eff = float(np.sum(ev / (ev + lam)))
    total = float(ev.sum())
    denom = float((ev**2).sum()) + lam * total  # can underflow for subnormal spectra
    if total > 0.0 and denom > 0.0:
        bound = total * total / denom
        if d_eff < bound - 1e-9:
            raise NumericalError(f"effective dimension {d_eff} fell below its spectral lower bound {bound}")
    return d_eff


def entropy_bits(probs: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the entries p > 1e-12 of the last axis, in bits,
    clamped at 0 (so never -0.0): the entropy of a distribution, a spectrum,
    or a batch of spectra."""
    probs = np.where(probs > 1e-12, probs, 1.0)  # 1 log2 1 adds nothing
    return np.maximum(-(probs * np.log2(probs)).sum(axis=-1), 0.0)


def distributional_entropy(ds: Dataset, bins: int) -> float:
    """Shannon entropy (bits) of the empirical distribution over binned rows.

    Each column is split into `bins` equal-width bins over its own range; a
    row becomes the tuple of its bin ids. Constant columns land in bin 0.
    """
    if bins < 1:
        raise InvalidConfig("bins must be >= 1")
    m = scale_by_max_magnitude(ds.matrix)  # bin ids are invariant under this scaling
    lo = m.min(axis=0)
    hi = m.max(axis=0)
    width = (hi - lo) / bins
    ids = np.zeros(m.shape, dtype=np.int64)
    nz = width > 0
    if np.any(nz):
        ids[:, nz] = np.minimum(((m[:, nz] - lo[nz]) / width[nz]).astype(np.int64), bins - 1)
    _, counts = np.unique(ids, axis=0, return_counts=True)
    return float(entropy_bits(counts / counts.sum()))


def _set_partitions(items: tuple[int, ...]):
    """All partitions of a small index tuple into non-empty blocks."""
    if len(items) == 1:
        yield [items]
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1 :]
        yield [(first,)] + part


def cumulant_from_moments(items: tuple[int, ...], moment):
    """Joint cumulant of `items` from raw moments by the partition (Moebius)
    formula: the sum over set partitions pi of (-1)^(|pi|-1) (|pi|-1)! times
    the product of moment(block) over the blocks of pi.

    `moment` may return floats or equal-shaped float arrays (one entry per
    index set); an array-valued moment gives an array of cumulants, each
    entry computed with the same operations in the same order as the float
    case.
    """
    value = 0.0
    for part in _set_partitions(items):
        term = 1.0
        for block in part:
            term *= moment(block)
        r = len(part)
        value += (-1.0) ** (r - 1) * float(math.factorial(r - 1)) * term
    return value


def joint_cumulant(ds: Dataset, index_set: tuple[int, ...] | list[int]) -> CumulantValue:
    """Joint cumulant of distinct columns via the partition (Moebius) formula
    over the empirical raw moments of the blocks (cumulant_from_moments).
    Order 2 therefore reproduces the covariance entry on standardized data.
    """
    idx = tuple(int(i) for i in index_set)
    k = len(idx)
    if len(set(idx)) != k:
        raise InvalidIndexSet(f"repeated index in {idx}")
    if k < 2:
        raise InvalidIndexSet("cumulant order must be >= 2")
    if k > CUMULANT_ORDER_CAP:
        raise OrderTooHigh(f"order {k} above the cap {CUMULANT_ORDER_CAP}")
    if any(i < 0 or i >= ds.n_features for i in idx):
        raise InvalidIndexSet(f"index out of range in {idx}")
    if not ds.is_standardized:
        raise NotStandardized("cumulants are defined on standardized data")

    cols = {i: ds.matrix[:, i] for i in idx}
    moment_cache: dict[tuple[int, ...], float] = {}

    def moment(block: tuple[int, ...]) -> float:
        key = tuple(sorted(block))
        if key not in moment_cache:
            prod = cols[key[0]].copy()
            for i in key[1:]:
                prod *= cols[i]
            moment_cache[key] = float(prod.mean())
        return moment_cache[key]

    return CumulantValue(index_set=tuple(sorted(idx)), order=k, value=cumulant_from_moments(idx, moment))


def _chunk_cumulants(xt: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Joint cumulants of each row of ``sets``, an ``(S, k)`` array of
    ascending column indices into the ``(d, N)`` C-contiguous ``xt = X.T``.

    Each block moment is an ``(S, N)`` product of rows of ``xt``, multiplied
    in ascending column order as ``joint_cumulant`` does and averaged along
    its rows, so every entry equals ``joint_cumulant(...).value`` bit for bit.
    """
    moment_cache: dict[tuple[int, ...], np.ndarray] = {}

    def moment(block: tuple[int, ...]) -> np.ndarray:
        key = tuple(sorted(block))
        if key not in moment_cache:
            prod = xt[sets[:, key[0]]]
            for pos in key[1:]:
                prod *= xt[sets[:, pos]]
            moment_cache[key] = prod.mean(axis=1)
        return moment_cache[key]

    return cumulant_from_moments(tuple(range(sets.shape[1])), moment)


def _cumulant_chunks(ds: Dataset, order: int):
    """Yield ``(sets, values)`` over all index sets of one order.

    The sets are drawn lazily from ``combinations``, so chunks follow
    lexicographic order and the full list is never built; each chunk holds
    as many sets as make one ``(S, N)`` moment array ``CUMULANT_CHUNK_BYTES``.
    """
    xt = np.ascontiguousarray(ds.matrix.T)
    step = max(1, CUMULANT_CHUNK_BYTES // (xt.itemsize * ds.n_samples))
    it = combinations(range(ds.n_features), order)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(it, step)), dtype=np.intp)
        if flat.size == 0:
            return
        sets = flat.reshape(-1, order)
        yield sets, _chunk_cumulants(xt, sets)


def require_threshold(epsilon: float) -> None:
    """The one check of a significance threshold epsilon: finite and > 0."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidConfig(f"epsilon must be finite and > 0, got {epsilon}")


def interaction_order(ds: Dataset, epsilon: float) -> int:
    """Highest order k in 2..4 at which some cumulant's magnitude exceeds epsilon.

    Orders are scanned from min(4, d) down to 2, each over chunks of index
    sets (``_cumulant_chunks``, ``CUMULANT_CHUNK_BYTES`` = 256 KiB per
    moment array), and the scan stops at the first chunk with a significant
    cumulant. This is the integer the order-by-order maximum over all sets
    gives; NaN cumulants never count as significant. Returns 1 when no order
    is significant: datasets with no detectable interactions get a defined
    floor.
    """
    require_threshold(epsilon)
    if not ds.is_standardized:
        raise NotStandardized("interaction order is defined on standardized data")
    for k in range(min(CUMULANT_ORDER_CAP, ds.n_features), 1, -1):
        if any(np.any(np.abs(values) > epsilon) for _, values in _cumulant_chunks(ds, k)):
            return k
    return 1


def compression_ratio(ds: Dataset) -> float:
    """Compressed/original size of the canonical byte layout.

    The codec is pinned: zlib (DEFLATE) level 9 over row-major little-endian
    float64 bytes. Values near 0 mean highly regular data; values near 1 mean
    incompressible payloads.
    """
    raw = ds.canonical_bytes()
    if len(raw) == 0:
        raise EmptyDataset("nothing to compress")
    compressed = zlib.compress(raw, COMPRESSION_LEVEL)
    return len(compressed) / len(raw)


def kernel_gram(ds: Dataset, kind: str = "rbf", bandwidth: float = 1.0) -> np.ndarray:
    """N x N kernel Gram matrix; 'linear' is X X^T, 'rbf' is the Gaussian kernel.

    The rbf kernel exp(-||x - y||^2 / (2 bandwidth^2)) has unit diagonal.
    Its exponent is 0 where two rows are equal and reads -inf where the
    quotient overflows, so a bandwidth whose square underflows gives the
    limit kernel, 1 on equal rows and 0 elsewhere; a square that overflows
    reads inf and gives the all-ones kernel.
    """
    x = ds.matrix
    if kind == "linear":
        gram = x @ x.T
    elif kind == "rbf":
        if bandwidth <= 0:
            raise InvalidConfig("rbf bandwidth must be > 0")
        d2 = squared_distances(x)
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(d2, 2.0 * np.float64(bandwidth) ** 2, out=d2, where=d2 > 0.0)
        gram = np.exp(-d2)
        np.fill_diagonal(gram, 1.0)
    else:
        raise InvalidConfig(f"unknown kernel kind {kind!r}")
    if not np.all(np.isfinite(gram)):
        raise NumericalError("kernel matrix contains non-finite entries")
    return 0.5 * (gram + gram.T)


def gram_spectrum(gram: np.ndarray) -> Spectrum:
    """Eigenvalues of a PSD Gram matrix as a kernel Spectrum."""
    gram = np.asarray(gram, dtype=np.float64)
    if not np.all(np.isfinite(gram)):
        raise NumericalError("Gram matrix contains non-finite entries")
    ev = np.linalg.eigvalsh(gram)
    return Spectrum(eigenvalues=np.clip(ev, 0.0, None), source="kernel")
