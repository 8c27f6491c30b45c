"""Test-only reference implementations of Rips persistence.

Two oracles, both slow and simple:
  - the explicit builder and reducer: `rips_filtration` lists every simplex
    up to dimension max_dim + 1 as a (vertex tuple, value) pair sorted by
    (value, vertices), and `persistence_diagram` reduces one boundary block
    at a time with columns stored as integer bitmasks;
  - the rank oracle: Betti numbers at one fixed scale from GF(2) ranks of
    the full boundary matrices (plain Gaussian elimination, no pairing).

The differential tests require the implicit engine in
`datacomplexity.topology` to give the same `PersistenceDiagram`, floats
included, as the explicit pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from datacomplexity.errors import InvalidConfig, TooManyPoints
from datacomplexity.topology import DEFAULT_POINT_CAP, Bar, DistanceMatrix, PersistenceDiagram


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


def oracle_simplices(d, scale, k):
    n = d.shape[0]
    out = []
    for verts in combinations(range(n), k + 1):
        if all(d[a, b] <= scale for a, b in combinations(verts, 2)):
            out.append(verts)
    return out


def gf2_rank(rows):
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        pivot = rows.pop()
        rank += 1
        high = pivot.bit_length() - 1
        rows = [r ^ pivot if (r >> high) & 1 else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def oracle_boundary_rank(faces, cofaces):
    index = {f: i for i, f in enumerate(faces)}
    rows = []
    for simplex in cofaces:
        col = 0
        for omit in range(len(simplex)):
            face = simplex[:omit] + simplex[omit + 1 :]
            col ^= 1 << index[face]
        rows.append(col)
    return gf2_rank(rows)


def oracle_betti(d, scale, k):
    sk = oracle_simplices(d, scale, k)
    if not sk:
        return 0
    rank_down = oracle_boundary_rank(oracle_simplices(d, scale, k - 1), sk) if k > 0 else 0
    rank_up = oracle_boundary_rank(sk, oracle_simplices(d, scale, k + 1))
    return len(sk) - rank_down - rank_up
