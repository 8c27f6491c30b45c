"""Vietoris-Rips persistent homology over the two-element field.

The filtration enters a simplex at the largest pairwise distance among its
vertices; ties are broken by dimension and then lexicographic vertex order so
diagrams are reproducible. Reduction runs per boundary-matrix block (the
standard algorithm restricted to one dimension at a time) with columns stored
as integer bitmasks.

Conventions pinned here:
  - infinite bars are stored with death = max_scale and an `infinite` flag;
    persistence sums cap them at max_scale.
  - zero-length pairs (birth == death) are dropped from diagrams.
  - distance matrices only need symmetry and a zero diagonal; the triangle
    inequality is not required (fidelity dissimilarities may violate it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, NumericalError, TooManyPoints

DEFAULT_POINT_CAP = 512


@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidConfig("distance matrix must be square")
        if not np.all(np.isfinite(v)):
            raise NumericalError("non-finite distance")
        if np.any(np.abs(v - v.T) > 1e-12):
            raise InvalidConfig("distance matrix must be symmetric within 1e-12")
        if np.any(np.diag(v) != 0.0):
            raise InvalidConfig("distance matrix must have a zero diagonal")
        if np.any(v < 0.0):
            raise InvalidConfig("distances must be non-negative")
        v = 0.5 * (v + v.T)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def diameter(self) -> float:
        return float(self.values.max()) if self.n > 1 else 0.0


def distance_matrix_from_points(points: np.ndarray) -> DistanceMatrix:
    """Euclidean distances of a point cloud (rows = points)."""
    x = np.asarray(points, dtype=np.float64)
    sq = np.sum(x**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.clip(d2, 0.0, None, out=d2)
    d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(values=d)


@dataclass(frozen=True)
class Bar:
    dim: int
    birth: float
    death: float
    infinite: bool = False

    @property
    def lifetime(self) -> float:
        return self.death - self.birth


@dataclass(frozen=True)
class PersistenceDiagram:
    intervals: tuple[Bar, ...]
    max_scale: float
    max_dim: int

    def bars(self, dim: int) -> list[Bar]:
        return [b for b in self.intervals if b.dim == dim]

    def to_json_obj(self) -> list[dict]:
        return [
            {"dim": b.dim, "birth": b.birth, "death": b.death, "infinite": b.infinite}
            for b in self.intervals
        ]


@dataclass(frozen=True)
class Filtration:
    """Sorted simplex list; `by_dim[p]` holds (vertex tuple, value) pairs."""

    by_dim: tuple[tuple[tuple[tuple[int, ...], float], ...], ...]
    max_scale: float
    max_dim: int


def rips_filtration(
    dm: DistanceMatrix,
    max_scale: float | None = None,
    max_dim: int = 1,
    point_cap: int = DEFAULT_POINT_CAP,
) -> Filtration:
    """Build the Rips filtration up to (max_dim + 1)-simplices.

    Simplices of dimension max_dim + 1 are needed so that H_{max_dim} deaths
    are complete. Simplex value = max pairwise distance of its vertices.
    """
    if max_dim not in (0, 1, 2):
        raise InvalidConfig("max_dim must be 0, 1 or 2")
    n = dm.n
    if n > point_cap:
        raise TooManyPoints(f"{n} points exceeds the cap {point_cap}")
    d = dm.values
    if max_scale is None:
        max_scale = dm.diameter()
    if max_scale < 0:
        raise InvalidConfig("max_scale must be >= 0")

    vertices = tuple(((i,), 0.0) for i in range(n))
    adj = (d <= max_scale) & ~np.eye(n, dtype=bool)

    edges = []
    iu, ju = np.nonzero(np.triu(adj, k=1))
    for i, j in zip(iu.tolist(), ju.tolist()):
        edges.append(((i, j), float(d[i, j])))
    edges.sort(key=lambda sv: (sv[1], sv[0]))

    groups = [vertices, tuple(edges)]

    if max_dim >= 1:
        triangles = []
        for (i, j), val in edges:
            common = np.nonzero(adj[i] & adj[j])[0]
            for k in common[common > j].tolist():
                tval = max(val, float(d[i, k]), float(d[j, k]))
                triangles.append(((i, j, k), tval))
        triangles.sort(key=lambda sv: (sv[1], sv[0]))
        groups.append(tuple(triangles))

    if max_dim == 2:
        tets = []
        for (i, j, k), val in groups[2]:
            common = np.nonzero(adj[i] & adj[j] & adj[k])[0]
            for l in common[common > k].tolist():
                tval = max(val, float(d[i, l]), float(d[j, l]), float(d[k, l]))
                tets.append(((i, j, k, l), tval))
        tets.sort(key=lambda sv: (sv[1], sv[0]))
        groups.append(tuple(tets))

    return Filtration(by_dim=tuple(groups), max_scale=float(max_scale), max_dim=max_dim)


def _reduce_block(
    faces: tuple[tuple[tuple[int, ...], float], ...],
    cofaces: tuple[tuple[tuple[int, ...], float], ...],
) -> tuple[list[tuple[int, int]], list[int], set[int]]:
    """Reduce one boundary block: columns = cofaces, rows = faces.

    Returns (pairs of (face row, coface col)), creator coface columns, and
    the set of killed face rows.
    """
    face_index = {s: i for i, (s, _) in enumerate(faces)}
    pairs: list[tuple[int, int]] = []
    creators: list[int] = []
    pivot_owner: dict[int, int] = {}
    columns: dict[int, int] = {}

    for j, (simplex, _) in enumerate(cofaces):
        col = 0
        for omit in range(len(simplex)):
            face = simplex[:omit] + simplex[omit + 1 :]
            col ^= 1 << face_index[face]
        while col:
            low = col.bit_length() - 1
            owner = pivot_owner.get(low)
            if owner is None:
                pivot_owner[low] = j
                columns[j] = col
                pairs.append((low, j))
                break
            col ^= columns[owner]
        else:
            creators.append(j)
    killed = {r for r, _ in pairs}
    return pairs, creators, killed


def persistence_diagram(f: Filtration) -> PersistenceDiagram:
    """Boundary-matrix reduction over GF(2), one dimension block at a time."""
    by_dim = f.by_dim
    bars: list[Bar] = []
    creators_by_dim: dict[int, list[int]] = {0: list(range(len(by_dim[0])))}
    killed_by_dim: dict[int, set[int]] = {}

    for p in range(1, len(by_dim)):
        pairs, creators, killed = _reduce_block(by_dim[p - 1], by_dim[p])
        creators_by_dim[p] = creators
        killed_by_dim[p - 1] = killed
        for row, col in pairs:
            birth = by_dim[p - 1][row][1]
            death = by_dim[p][col][1]
            if death > birth and p - 1 <= f.max_dim:
                bars.append(Bar(dim=p - 1, birth=birth, death=death))
    killed_by_dim.setdefault(len(by_dim) - 1, set())

    for k in range(0, min(f.max_dim, len(by_dim) - 1) + 1):
        killed = killed_by_dim.get(k, set())
        for idx in creators_by_dim.get(k, []):
            if idx not in killed:
                birth = by_dim[k][idx][1]
                bars.append(Bar(dim=k, birth=birth, death=f.max_scale, infinite=True))

    bars.sort(key=lambda b: (b.dim, b.birth, b.death, not b.infinite))
    return PersistenceDiagram(intervals=tuple(bars), max_scale=f.max_scale, max_dim=f.max_dim)


def total_persistence(pd: PersistenceDiagram, k: int) -> float:
    """Sum of bar lifetimes in one dimension; infinite bars count to max_scale."""
    return float(sum(b.death - b.birth for b in pd.intervals if b.dim == k))


def betti_at_scale(pd: PersistenceDiagram, scale: float, k: int) -> int:
    """Number of dim-k bars alive at `scale` (birth <= scale < death)."""
    count = 0
    for b in pd.intervals:
        if b.dim != k or b.birth > scale:
            continue
        if b.infinite or scale < b.death:
            count += 1
    return count


def euler_characteristic(pd: PersistenceDiagram, scale: float) -> int:
    """Alternating sum of Betti numbers at one scale."""
    return int(sum((-1) ** k * betti_at_scale(pd, scale, k) for k in range(pd.max_dim + 1)))


def topological_complexity(pd: PersistenceDiagram, weights: tuple[float, ...]) -> float:
    """Weighted sum over dimensions of total persistence."""
    if any(w < 0 for w in weights):
        raise InvalidConfig("topology weights must be >= 0")
    return float(sum(w * total_persistence(pd, k) for k, w in enumerate(weights)))
