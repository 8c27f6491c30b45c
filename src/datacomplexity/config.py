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

    def child(self, *keys: int) -> np.random.Generator:
        """PCG64 seeded by SeedSequence(entropy=seed, spawn_key=keys)."""
        keys = tuple(_stream_index(k, "stream key") for k in keys)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=keys)
        return np.random.Generator(np.random.PCG64(ss))

    def children(self, *prefix: int, count: int) -> Iterator[np.random.Generator]:
        """The streams child(*prefix, i) for i in 0..count-1, with the same
        draws bit for bit. Their seed states are derived a block of indices
        at a time in one numpy pass."""
        head = _words(self.seed)
        head += [0] * (_POOL - len(head))
        for k in prefix:
            head += _words(_stream_index(k, "stream key"))
        count = _stream_index(count, "child count")
        if count > 1 << 32:  # the index i is one 32-bit word
            raise InvalidConfig(f"child count must be <= 2^32, got {count}")
        return _spawn(head, count)


# Checked before any allocation: the fidelity histogram holds one count per
# bin, and the expressibility sampler runs two states per sample.
MAX_FIDELITY_BINS = 1 << 16
MAX_EXPRESSIBILITY_SAMPLES = 1 << 16


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
    """math.isfinite, and False for an integer too large for a float. A
    tuple is finite when its entries and their sum are: a composite or a
    bound that sums a weight group would read inf otherwise."""
    if isinstance(value, tuple):
        return all(map(_finite, value)) and _finite(sum(value))
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


@dataclass(frozen=True)
class Rule:
    """What a value takes besides its type and being finite: value >= lo,
    value <= hi and value > gt where given, or one of the choices. A tuple is
    a weight group: size entries (any count for None), each keeping the rest
    of the rule, and not all 0."""

    lo: float | None = None
    hi: float | None = None
    gt: float | None = None
    choices: tuple = ()
    size: int | None = None

    def bounds(self) -> list[tuple[str, float]]:
        return [(op, b) for op, b in ((">=", self.lo), ("<=", self.hi), (">", self.gt)) if b is not None]

    def admits(self, value) -> bool:
        if isinstance(value, tuple):
            return len(value) == (self.size or len(value)) and any(value) and all(map(self.admits, value))
        if value is None or self.choices:
            return value is None or value in self.choices
        return all(_COMPARE[op](value, b) for op, b in self.bounds())

    def describe(self, value) -> str:
        if self.choices:
            return " or ".join(map(repr, self.choices))
        rule = " and ".join(f"{op} {b}" for op, b in self.bounds())
        return f"{self.size or 'any number of'} entries {rule}, not all 0" if isinstance(value, tuple) else rule

    def check(self, name: str, annotation: str, value) -> None:
        """Raise InvalidConfig naming `name` unless value has the annotated
        type, is finite (a string or None has nothing to be) and keeps the
        rule, checked in that order so that NaN never meets a comparison."""
        if not _has_type(annotation, value):
            rule = f"of type {annotation}"
        elif not (value is None or isinstance(value, str) or _finite(value)):
            rule = "finite, with a finite sum" if isinstance(value, tuple) else "finite"
        elif not self.admits(value):
            rule = self.describe(value)
        else:
            return
        raise InvalidConfig(f"{name} must be {rule}, got {value!r}")


def _field(default, **rule):
    """A ConfigProfile field: its default, and the Rule that its value keeps."""
    return dataclasses.field(default=default, metadata={"rule": Rule(**rule)})


@dataclass(frozen=True)
class ConfigProfile:
    """All weights, thresholds, and numerical conventions of the metric suite.

    Defaults: uniform weights within each group, cumulant threshold 0.1 on
    standardized data, Rips scale capped at the dataset diameter (``None``),
    16 entropy bins per column, 75 fidelity bins. Each field declares its
    Rule beside its default, and validate_config checks it.
    """

    # composite weights
    lambda_weights: tuple[float, float, float, float] = _field((0.25, 0.25, 0.25, 0.25), lo=0, size=4)
    alpha_weights: tuple[float, ...] = _field((0.2, 0.2, 0.2, 0.0, 0.2, 0.2), lo=0, size=6)
    beta_weights: tuple[float, ...] = _field((1 / 6,) * 6, lo=0, size=6)
    gamma_weights: tuple[float, float, float] = _field((1 / 3, 1 / 3, 1 / 3), lo=0, size=3)
    w_topology: tuple[float, ...] = _field((0.5, 0.5), lo=0)

    # thresholds
    epsilon_cumulant: float = _field(0.1, gt=0)
    epsilon_grad: float = _field(1e-4, gt=0)
    lambda_penalty: float = _field(1.0, lo=0)
    delta_topo: float = _field(1.0, lo=0)

    # kernel settings
    kernel_kind: str = _field("rbf", choices=("linear", "rbf"))
    kernel_bandwidth: float = _field(1.0, gt=0)
    kernel_ridge: float = _field(1e-3, lo=0)

    # topology settings
    rips_max_scale: float | None = _field(None, lo=0)  # None -> dataset diameter
    max_homology_dim: int = _field(1, lo=0, hi=2)
    rips_point_cap: int = _field(DEFAULT_POINT_CAP, lo=1)
    euler_scale_fraction: float = _field(0.5, lo=0.0, hi=1.0)

    # discretization
    bins_entropy: int = _field(16, lo=1)
    bins_fidelity: int = _field(75, lo=1, hi=MAX_FIDELITY_BINS)

    # expressibility sampling inside profiling runs
    expressibility_samples: int = _field(1000, lo=100, hi=MAX_EXPRESSIBILITY_SAMPLES)

    # circuit resource heuristic coefficients; each >= 0, so that the
    # estimate grows with C
    resource_q0: float = _field(2.0, lo=0)
    resource_q1: float = _field(8.0, lo=0)
    resource_d0: float = _field(1.0, lo=0)
    resource_d1: float = _field(2.0, lo=0)

    seed: int = _field(0, lo=0)

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


def validate_config(cfg: ConfigProfile) -> ConfigProfile:
    """Validate a config and return it unchanged.

    Raises :class:`InvalidConfig` naming the field whose value breaks its
    Rule (type, finite, then the declared bounds), or the resource
    coefficients when the resource estimate is not finite at C = 1.
    """
    for f in dataclasses.fields(cfg):
        f.metadata["rule"].check(f.name, f.type, getattr(cfg, f.name))
    # The resource estimate is monotone in C, so it is finite on [0, 1] when it is at C = 1.
    if not _finite(cfg.resource_q0 + cfg.resource_q1):
        raise InvalidConfig("resource_q0 + resource_q1 (the qubit estimate at C = 1) must be finite")
    with np.errstate(all="ignore"):  # an exp past the float64 maximum reads inf
        depth = cfg.resource_d0 * np.exp(cfg.resource_d1)
    if not np.isfinite(depth):
        raise InvalidConfig("resource_d0 * exp(resource_d1) (the depth estimate at C = 1) must be finite")
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
