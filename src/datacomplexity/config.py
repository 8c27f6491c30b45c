"""Configuration profile, canonical hashing, and seeded randomness.

Every tunable of the composite formulas lives in :class:`ConfigProfile` so a
single config file pins a full run. The config hash is 64-bit FNV-1a over the
canonical JSON serialization (sorted keys, compact separators, UTF-8), which
is what reports record for reproducibility.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .topology import DEFAULT_POINT_CAP

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of 4 uint32
# words, hashed and mixed with these constants.
_POOL = 4
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
# Seed states are derived for at most this many children at a time, so that
# a long run holds 32 bytes of state per child of one block, not per sample.
_CHILD_BLOCK = 4096


def _stream_index(value, what: str) -> int:
    """A seed or stream key: a non-negative integer, not a bool."""
    try:
        if isinstance(value, bool):
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise InvalidConfig(f"{what} must be an integer, got {value!r}") from None
    if index < 0:
        raise InvalidConfig(f"{what} must be >= 0, got {index}")
    return index


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer; [0] for 0."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _seed_states(head: list[int], last: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy words head + [last[i]]).generate_state(4, uint64)
    for every i, as a (len(last), 4) array. head holds the seed's words
    padded to the pool size and then the prefix keys' words, which is how
    SeedSequence assembles entropy and a non-empty spawn key."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    entropy = [np.uint32(w) for w in head] + [last]
    with np.errstate(over="ignore"):
        pool = [hashmix(entropy[j]) for j in range(_POOL)]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_const = _INIT_B
        state = np.empty((len(last), 2 * _POOL), dtype=np.uint32)
        for k in range(2 * _POOL):
            value = pool[k % _POOL] ^ hash_const
            hash_const = hash_const * _MULT_B
            value = value * hash_const
            state[:, k] = value ^ (value >> _XSHIFT)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


@functools.cache
def _given_state() -> type:
    """A seed sequence type whose state is already derived: PCG64 seeds
    itself from generate_state(4, uint64), which returns the given row. It
    is built on first use because numpy imports numpy.random, which defines
    ISeedSequence, only when it is first used (about 20 ms)."""

    class GivenState(np.random.bit_generator.ISeedSequence):
        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return GivenState


def _spawn(head: list[int], count: int) -> Iterator[np.random.Generator]:
    given_state = _given_state()
    for start in range(0, count, _CHILD_BLOCK):
        index = np.arange(start, min(start + _CHILD_BLOCK, count), dtype=np.uint32)
        for row in _seed_states(head, index):
            yield np.random.Generator(np.random.PCG64(given_state(row)))


@dataclass(frozen=True)
class SeededRng:
    """Reproducible random source: numpy's PCG64 bit generator.

    Identical seeds reproduce identical streams bit-for-bit. Child streams
    are derived from ``(seed, *keys)`` so that per-sample work is
    independent of evaluation order. The seed and every key are
    non-negative integers (InvalidConfig otherwise).
    """

    seed: int

    def __post_init__(self):
        _stream_index(self.seed, "seed")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def child(self, *keys: int) -> np.random.Generator:
        """PCG64 seeded by SeedSequence(entropy=seed, spawn_key=keys)."""
        keys = tuple(_stream_index(k, "stream key") for k in keys)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=keys)
        return np.random.Generator(np.random.PCG64(ss))

    def children(self, *prefix: int, count: int) -> Iterator[np.random.Generator]:
        """The streams child(*prefix, i) for i in 0..count-1, with the same
        draws bit for bit. Their seed states are derived a block of indices
        at a time in one numpy pass; each stream is valid until the next one
        is requested."""
        head = _words(self.seed)
        head += [0] * (_POOL - len(head))
        for k in prefix:
            head += _words(_stream_index(k, "stream key"))
        count = _stream_index(count, "child count")
        if count > 1 << 32:  # the index i is one 32-bit word
            raise InvalidConfig(f"child count must be <= 2^32, got {count}")
        return _spawn(head, count)


@dataclass(frozen=True)
class ConfigProfile:
    """All weights, thresholds, and numerical conventions of the metric suite.

    Defaults: uniform weights within each group, cumulant threshold 0.1 on
    standardized data, Rips scale capped at the dataset diameter (``None``),
    16 entropy bins per column, 75 fidelity bins.
    """

    # composite weights
    lambda_weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    alpha_weights: tuple[float, ...] = (0.2, 0.2, 0.2, 0.0, 0.2, 0.2)
    beta_weights: tuple[float, ...] = (1 / 6,) * 6
    gamma_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    w_topology: tuple[float, ...] = (0.5, 0.5)

    # thresholds
    epsilon_cumulant: float = 0.1
    epsilon_grad: float = 1e-4
    lambda_penalty: float = 1.0
    delta_topo: float = 1.0

    # kernel settings
    kernel_kind: str = "rbf"
    kernel_bandwidth: float = 1.0
    kernel_ridge: float = 1e-3

    # topology settings
    rips_max_scale: float | None = None  # None -> dataset diameter
    max_homology_dim: int = 1
    rips_point_cap: int = DEFAULT_POINT_CAP
    euler_scale_fraction: float = 0.5

    # discretization
    bins_entropy: int = 16
    bins_fidelity: int = 75

    # expressibility sampling inside profiling runs
    expressibility_samples: int = 1000

    # circuit resource heuristic coefficients
    resource_q0: float = 2.0
    resource_q1: float = 8.0
    resource_d0: float = 1.0
    resource_d1: float = 2.0

    seed: int = 0

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ConfigProfile":
        known = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(d) - set(known)
        if unknown:
            raise InvalidConfig(f"unknown config fields: {sorted(unknown)}")
        kwargs = {}
        for k, v in d.items():
            if isinstance(v, list):
                v = tuple(v)
            kwargs[k] = v
        return cls(**kwargs)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> int:
        return fnv1a64(self.canonical_json().encode("utf-8"))


# every scalar float field (rips_max_scale may also be None); NaN and +-inf
# pass the range checks below unnoticed, since comparisons with NaN are False
FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(ConfigProfile) if f.type in ("float", "float | None"))


def _has_type(annotation: str, value) -> bool:
    """Whether `value` fits a field annotation of ConfigProfile. An int field
    takes integers, a float field any real number; neither takes a bool,
    which Python counts as an int but JSON keeps apart."""
    if annotation.endswith(" | None"):
        return value is None or _has_type(annotation.removesuffix(" | None"), value)
    if annotation.startswith("tuple["):
        item = annotation.removeprefix("tuple[").split(",")[0].rstrip("]")
        return isinstance(value, tuple) and all(_has_type(item, v) for v in value)
    if annotation == "str":
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral if annotation == "int" else numbers.Real)


def _finite(value) -> bool:
    """math.isfinite, and False for an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# Checked before any allocation: the fidelity histogram holds one count per
# bin, and the expressibility sampler runs two states per sample.
MAX_FIDELITY_BINS = 1 << 16
MAX_EXPRESSIBILITY_SAMPLES = 1 << 16

WEIGHT_GROUPS = ("lambda_weights", "alpha_weights", "beta_weights", "gamma_weights", "w_topology")

GROUP_SIZES = {
    "lambda_weights": 4,
    "alpha_weights": 6,
    "beta_weights": 6,
    "gamma_weights": 3,
}


def validate_config(cfg: ConfigProfile) -> ConfigProfile:
    """Validate a config and return it unchanged.

    Raises :class:`InvalidConfig` on a value whose type does not fit its
    field's annotation, non-finite or negative weights, an all-zero weight
    group, a non-finite float field, non-positive thresholds, bin or sample
    counts out of range, a negative seed, or an unsupported homology dimension.
    """
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not _has_type(f.type, value):
            raise InvalidConfig(f"{f.name} must be of type {f.type}, got {value!r}")
    for group in WEIGHT_GROUPS:
        weights = getattr(cfg, group)
        expected = GROUP_SIZES.get(group)
        if expected is not None and len(weights) != expected:
            raise InvalidConfig(f"{group} must have {expected} entries, got {len(weights)}")
        if not all(_finite(w) for w in weights):
            raise InvalidConfig(f"non-finite weight in {group}: {weights}")
        if any(w < 0 for w in weights):
            raise InvalidConfig(f"negative weight in {group}: {weights}")
        if sum(weights) == 0:
            raise InvalidConfig(f"all-zero weight group {group}")

    for name in FLOAT_FIELDS:
        value = getattr(cfg, name)
        if value is not None and not _finite(value):
            raise InvalidConfig(f"{name} must be finite, got {value}")
    for name in ("epsilon_cumulant", "epsilon_grad", "kernel_bandwidth"):
        if getattr(cfg, name) <= 0:
            raise InvalidConfig(f"{name} must be > 0")
    for name in ("lambda_penalty", "delta_topo", "kernel_ridge"):
        if getattr(cfg, name) < 0:
            raise InvalidConfig(f"{name} must be >= 0")
    if cfg.kernel_kind not in ("linear", "rbf"):
        raise InvalidConfig(f"unknown kernel kind {cfg.kernel_kind!r}")
    if cfg.max_homology_dim not in (0, 1, 2):
        raise InvalidConfig("max_homology_dim must be 0, 1 or 2")
    if cfg.rips_max_scale is not None and cfg.rips_max_scale < 0:
        raise InvalidConfig("rips_max_scale must be >= 0")
    if cfg.bins_entropy < 1 or not 1 <= cfg.bins_fidelity <= MAX_FIDELITY_BINS:
        raise InvalidConfig(f"bin counts must be >= 1, and bins_fidelity <= {MAX_FIDELITY_BINS}")
    if not 0.0 <= cfg.euler_scale_fraction <= 1.0:
        raise InvalidConfig("euler_scale_fraction must lie in [0, 1]")
    if cfg.rips_point_cap < 1:
        raise InvalidConfig("rips_point_cap must be >= 1")
    if not 100 <= cfg.expressibility_samples <= MAX_EXPRESSIBILITY_SAMPLES:
        raise InvalidConfig(f"expressibility_samples must lie in 100..{MAX_EXPRESSIBILITY_SAMPLES}")
    if cfg.seed < 0:
        raise InvalidConfig("seed must be >= 0")
    return cfg


def load_config(path: str) -> ConfigProfile:
    """Read a JSON config file; missing fields take their defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise InvalidConfig(f"config file is not UTF-8 JSON text: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidConfig("config file must contain a JSON object")
    return validate_config(ConfigProfile.from_dict(data))
