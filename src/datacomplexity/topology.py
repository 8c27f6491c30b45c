"""Vietoris-Rips persistent homology over the two-element field.

An implicit engine after Ripser (Bauer 2021): only vertices and edges are
listed, triangles and tetrahedra are integer keys computed when needed.

Filtration. A simplex enters at the largest pairwise distance among its
vertices. Edges are kept up to min(max_scale, enclosing radius), where the
enclosing radius is min_i max_j d_ij, and sorted by (value, i, j); an edge's
place in that order is its rank, and an n x n matrix holds the ranks (-1 where
there is no edge). A p-simplex with p >= 2 is keyed by one integer,
key(largest facet) * n + opposite vertex: the rank of its longest edge, then
its other vertices in decreasing order, base n. Key order refines the value
order, so it is a valid tie-break.

Persistence. H0 is union-find over the sorted edges (Kruskal). H1, and H2
when max_dim = 2, are persistent cohomology (de Silva, Morozov and
Vejdemo-Johansson 2011), columns in decreasing key order with the pivot at
the smallest coface:
  - clearing: columns that are pivots of the dimension below are skipped
    (for H1 these are the spanning-forest edges);
  - apparent pairs: a column whose smallest coface has that column as its
    largest facet is paired without reduction;
  - coboundaries are built on the fly from the rank matrix; columns that
    need reduction are sorted int64 key arrays added with np.setxor1d.

Conventions pinned here:
  - infinite bars are stored with death = max_scale and an `infinite` flag;
    persistence sums cap them at max_scale.
  - zero-length pairs (birth == death) are dropped from diagrams; then any
    tie-break between equal values gives the same diagram.
  - truncating at the enclosing radius is exact: from there on the complex
    is a cone, so every finite bar has died and one H0 class lives on.
  - distance matrices only need symmetry and a zero diagonal; the triangle
    inequality is not required (fidelity dissimilarities may violate it).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def squared_distances(x: np.ndarray) -> np.ndarray:
    """(N, N) squared Euclidean distances |a|^2 + |b|^2 - 2 a.b of the rows
    of x, clipped at 0 against rounding; two equal rows are exactly 0
    apart, since the rounding of a.b depends on where the pair sits in the
    product. The diagonal is left as computed."""
    sq = np.sum(x**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.clip(d2, 0.0, None, out=d2)
    label = np.unique(x, axis=0, return_inverse=True)[1].reshape(-1)
    equal = label[:, None] == label[None, :]
    np.fill_diagonal(equal, False)
    d2[equal] = 0.0
    return d2


def distance_matrix_from_points(points: np.ndarray) -> DistanceMatrix:
    """Euclidean distances of a point cloud (rows = points)."""
    d = np.sqrt(squared_distances(np.asarray(points, dtype=np.float64)))
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


@dataclass(frozen=True, eq=False)
class Filtration:
    """Vertices and edges of a Rips filtration; higher simplices stay implicit.

    `edges` (m, 2) and `values` (m,) hold the edges in rank order, and
    `rank[i, j]` is the rank of edge ij, or -1 where there is no edge.
    `by_dim` lists the simplices per dimension as arrays: the vertices
    np.arange(n), then `edges`.
    """

    by_dim: tuple[np.ndarray, np.ndarray]
    max_scale: float
    max_dim: int
    edges: np.ndarray
    values: np.ndarray
    rank: np.ndarray


def enclosing_radius(dm: DistanceMatrix) -> float:
    """min_i max_j d_ij: from this scale on the Rips complex is a cone."""
    return float(dm.values.max(axis=1).min()) if dm.n else 0.0


def rips_filtration(
    dm: DistanceMatrix,
    max_scale: float | None = None,
    max_dim: int = 1,
    point_cap: int = DEFAULT_POINT_CAP,
) -> Filtration:
    """Vertices and the edges up to min(max_scale, enclosing radius).

    Edges are sorted by (value, i, j); triangles and tetrahedra are never
    listed, persistence_diagram builds their keys from the rank matrix.
    """
    if max_dim not in (0, 1, 2):
        raise InvalidConfig("max_dim must be 0, 1 or 2")
    n = dm.n
    if n > point_cap:
        raise TooManyPoints(f"{n} points exceeds the cap {point_cap}")
    if max_scale is None:
        max_scale = dm.diameter()
    if max_scale < 0:
        raise InvalidConfig("max_scale must be >= 0")

    iu, ju = np.triu_indices(n, k=1)
    values = dm.values[iu, ju]
    keep = np.flatnonzero(values <= min(max_scale, enclosing_radius(dm)))
    keep = keep[np.argsort(values[keep], kind="stable")]
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    values = values[keep]
    rank = np.full((n, n), -1, dtype=np.int64)
    rank[edges[:, 0], edges[:, 1]] = rank[edges[:, 1], edges[:, 0]] = np.arange(len(keep))

    return Filtration(
        by_dim=(np.arange(n), edges),
        max_scale=float(max_scale),
        max_dim=max_dim,
        edges=edges,
        values=values,
        rank=rank,
    )


# Entries of one (columns, n) block in the vectorized coface scan.
_BLOCK_ENTRIES = 1 << 18


def _decode(f: Filtration, keys: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Longest-edge rank and vertices of p-simplices given by key.

    A key is the longest edge's rank followed by the other vertices in
    decreasing order, base n. Vertices come back as (p + 1, len(keys)):
    the longest edge's two endpoints, then the others, smallest last.
    """
    n = f.rank.shape[0]
    rest = []
    for _ in range(p - 1):
        keys, v = np.divmod(keys, n)
        rest.append(v)
    return keys, np.vstack([f.edges[keys].T] + rest[::-1])


def _lead_cofaces(f: Filtration, keys: np.ndarray, p: int):
    """Yield blocks (keys, ok) over the p-simplices given by key.

    ok[a, k] is true where adding vertex k to simplex keys[a] gives a coface
    whose largest facet is keys[a]; that coface's key is keys[a] * n + k,
    and every other coface of keys[a] has a larger key.
    """
    n = f.rank.shape[0]
    rank = f.rank.view(np.uint64)  # -1 (no edge) compares above every rank
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    for lo in range(0, len(keys), step):
        block = keys[lo : lo + step]
        longest, verts = _decode(f, block, p)
        bound = longest.astype(np.uint64)[:, None]
        ok = rank[verts[0]] < bound
        for v in verts[1:]:
            ok &= rank[v] < bound
        if p > 1:
            ok &= np.arange(n) < verts[-1][:, None]
        yield block, ok


def _simplices(f: Filtration, p: int) -> np.ndarray:
    """Keys of every p-simplex (p = 1 or 2), ascending."""
    edges = np.arange(len(f.values), dtype=np.int64)
    if p == 1:
        return edges
    n = f.rank.shape[0]
    parts = [np.empty(0, dtype=np.int64)]
    for block, ok in _lead_cofaces(f, edges, 1):
        rows, k = np.nonzero(ok)
        parts.append(block[rows] * n + k)
    return np.concatenate(parts)


def _apparent_cofaces(f: Filtration, keys: np.ndarray, p: int) -> np.ndarray:
    """Per p-simplex, its smallest coface if that coface has it as largest
    facet (an apparent pair, always of zero length), else -1."""
    n = f.rank.shape[0]
    parts = [np.empty(0, dtype=np.int64)]
    for block, ok in _lead_cofaces(f, keys, p):
        parts.append(np.where(ok.any(axis=1), block * n + ok.argmax(axis=1), -1))
    return np.concatenate(parts)


def _coboundary(f: Filtration, key: int, p: int) -> np.ndarray:
    """Sorted keys of the cofaces of one p-simplex."""
    n = f.rank.shape[0]
    longest, verts = _decode(f, np.array([key]), p)
    verts = verts[:, 0]
    rows = f.rank[verts]
    k = np.flatnonzero((rows >= 0).all(axis=0))
    if k.size == 0:
        return k.astype(np.int64)
    new = rows[:, k]
    top = new.argmax(axis=0)
    longest_new = new[top, np.arange(k.size)]
    via_new = longest_new > longest[0]
    # Drop the coface's longest-edge endpoints; the other p vertices follow
    # its rank in the key, largest first.
    drop = np.zeros((p + 2, k.size), dtype=bool)
    drop[:2, ~via_new] = True
    drop[top[via_new], np.flatnonzero(via_new)] = True
    drop[p + 1, via_new] = True
    members = np.vstack([np.repeat(verts[:, None], k.size, axis=1), k])
    others = np.sort(members.T[~drop.T].reshape(k.size, p), axis=1)
    keys = np.maximum(longest_new, longest[0])
    for v in others.T[::-1]:
        keys = keys * n + v
    return np.sort(keys)


def _union_find(f: Filtration, bars: list[Bar]) -> np.ndarray:
    """H0 by Kruskal over the sorted edges; returns the spanning-forest ranks."""
    n = f.rank.shape[0]
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    values = f.values.tolist()
    forest = []
    for r, (i, j) in enumerate(f.edges.tolist()):
        if len(forest) == n - 1:
            break
        a, b = root(i), root(j)
        if a != b:
            parent[max(a, b)] = min(a, b)
            forest.append(r)
            if values[r] > 0.0:
                bars.append(Bar(dim=0, birth=0.0, death=values[r]))
    bars.extend(Bar(dim=0, birth=0.0, death=f.max_scale, infinite=True) for _ in range(n - len(forest)))
    return np.array(forest, dtype=np.int64)


def _cohomology(f: Filtration, columns: np.ndarray, p: int, bars: list[Bar]) -> np.ndarray:
    """Reduce the p-coboundary matrix over `columns` (ascending keys).

    Columns run in decreasing key order with the pivot at the smallest
    coface. Apparent pairs are paired up front; the rest are sorted key
    arrays added with setxor1d. Appends the H_p bars and returns every
    pivot: the (p + 1)-simplices that dimension p + 1 clears.
    """
    n = f.rank.shape[0]
    values = f.values.tolist()
    tau = _apparent_cofaces(f, columns, p)
    apparent = tau >= 0
    owner = dict(zip(tau[apparent].tolist(), columns[apparent].tolist()))
    reduced: dict[int, np.ndarray] = {}
    for s in columns[~apparent][::-1].tolist():
        col = _coboundary(f, s, p)
        while col.size and (o := owner.get(int(col[0]))) is not None:
            other = reduced.get(o)
            if other is None:  # an apparent column is its own coboundary
                other = reduced[o] = _coboundary(f, o, p)
            col = np.setxor1d(col, other, assume_unique=True)
        birth = values[s // n ** (p - 1)]
        if col.size:
            owner[int(col[0])] = s
            reduced[s] = col
            death = values[int(col[0]) // n**p]
            if death > birth:
                bars.append(Bar(dim=p, birth=birth, death=death))
        else:
            bars.append(Bar(dim=p, birth=birth, death=f.max_scale, infinite=True))
    return np.fromiter(owner, dtype=np.int64, count=len(owner))


def persistence_diagram(f: Filtration) -> PersistenceDiagram:
    """H0 by union-find, then H1 (and H2) by persistent cohomology.

    Each dimension clears the columns that are pivots of the one below: the
    spanning-forest edges for H1, the H1 pivots for H2.
    """
    bars: list[Bar] = []
    cleared = _union_find(f, bars)
    for p in range(1, f.max_dim + 1):
        columns = _simplices(f, p)
        cleared = _cohomology(f, columns[~np.isin(columns, cleared)], p, bars)
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
