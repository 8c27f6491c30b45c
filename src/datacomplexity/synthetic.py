"""Deterministic synthetic dataset generators for profiling runs and tests."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .config import Rule, SeededRng
from .dataset import Dataset
from .errors import InvalidConfig


def gaussian_blob(rng: np.random.Generator, *, n: int = 96, d: int = 4) -> np.ndarray:
    return rng.normal(size=(n, d))


def parity(rng: np.random.Generator, *, n: int = 64) -> np.ndarray:
    """Balanced (x1, x2, x1*x2) rows over {-1, +1}^2; n rounds down to a
    multiple of 4 so the three-way cumulant is exact."""
    base = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64)
    reps = max(1, n // 4)
    return np.tile(base, (reps, 1))


def circle(rng: np.random.Generator, *, n: int = 100, radius: float = 1.0, noise: float = 0.05) -> np.ndarray:
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if noise > 0:
        pts = pts + rng.normal(scale=noise, size=pts.shape)
    return pts


def clusters(rng: np.random.Generator, *, n: int = 96, k: int = 3, d: int = 2, separation: float = 5.0) -> np.ndarray:
    centers = rng.normal(size=(k, d)) * separation
    labels = rng.integers(0, k, size=n)
    return centers[labels] + rng.normal(scale=0.1, size=(n, d))


def random_bytes(rng: np.random.Generator, *, n: int = 128, d: int = 8) -> np.ndarray:
    """Uniform-random 64-bit payloads reinterpreted as finite float64 values;
    non-finite draws are resampled so the matrix satisfies dataset invariants."""
    vals = rng.integers(0, 2**64, size=(n, d), dtype=np.uint64).view(np.float64)
    bad = ~np.isfinite(vals)
    while bad.any():
        fresh = rng.integers(0, 2**64, size=int(bad.sum()), dtype=np.uint64).view(np.float64)
        vals[bad] = fresh
        bad = ~np.isfinite(vals)
    return vals


def phase_ring(rng: np.random.Generator, *, n: int = 20) -> np.ndarray:
    """n exact points on the unit circle; under angle encoding the embedded
    states trace a closed loop in fidelity space."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


GENERATORS = {g.__name__: g for g in (gaussian_blob, parity, circle, clusters, random_bytes, phase_ring)}


def _keywords(generator: str) -> dict[str, str]:
    """A generator's keyword parameters, each with its annotation."""
    if generator not in GENERATORS:
        raise InvalidConfig(f"unknown generator {generator!r}; options: {tuple(GENERATORS)}")
    params = inspect.signature(GENERATORS[generator]).parameters.values()
    return {p.name: p.annotation for p in params if p.kind is p.KEYWORD_ONLY}


@dataclass(frozen=True)
class SyntheticSpec:
    """A generator, its seed and parameters. The generator's keyword signature
    declares each parameter with its type and default: an int parameter is a
    size (>= 1), a float one any finite number; anything else is invalid."""

    generator: str
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        keywords = _keywords(self.generator)
        for key, value in self.params.items():
            kind = keywords.get(key)
            if kind is None:
                raise InvalidConfig(f"{self.generator} has no parameter {key!r}; options: {tuple(keywords)}")
            Rule(lo=1 if kind == "int" else None).check(f"{self.generator} parameter {key}", kind, value)


def generate(spec: SyntheticSpec) -> Dataset:
    m = GENERATORS[spec.generator](SeededRng(spec.seed).child(), **spec.params)
    names = tuple(f"c{j}" for j in range(m.shape[1]))
    return Dataset(matrix=m, column_names=names, source=f"synth:{spec.generator}:seed={spec.seed}")


def parse_synth_uri(uri: str, default_seed: int = 0) -> SyntheticSpec:
    """Parse "synth:<generator>[:key=value,...]" into a SyntheticSpec. Each
    value is read by its parameter's annotation, `seed` as an int."""
    parts = uri.split(":", 2)
    if len(parts) < 2 or parts[0] != "synth":
        raise InvalidConfig(f"not a synthetic spec: {uri!r}")
    generator = parts[1]
    kinds = {"seed": "int", **_keywords(generator)}
    params: dict = {}
    if len(parts) > 2 and parts[2]:
        for item in parts[2].split(","):
            if not item:
                continue
            if "=" not in item:
                raise InvalidConfig(f"bad synthetic parameter {item!r}")
            key, text = item.split("=", 1)
            if key not in kinds:
                params[key] = text  # SyntheticSpec rejects the unknown name
                continue
            try:
                params[key] = int(text) if kinds[key] == "int" else float(text)
            except ValueError:
                raise InvalidConfig(f"{generator} parameter {key} must be {kinds[key]}, got {text!r}") from None
    seed = params.pop("seed", default_seed)
    return SyntheticSpec(generator=generator, seed=seed, params=params)
