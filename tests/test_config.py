import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datacomplexity import config
from datacomplexity.config import (
    MAX_EXPRESSIBILITY_SAMPLES,
    MAX_FIDELITY_BINS,
    ConfigProfile,
    SeededRng,
    fnv1a64,
    load_config,
    validate_config,
)
from datacomplexity.errors import InvalidConfig
from datacomplexity.scoring import circuit_resource_estimate


def test_default_config_passes_unchanged():
    cfg = ConfigProfile()
    assert validate_config(cfg) == cfg


def test_negative_weight_rejected():
    cfg = dataclasses.replace(ConfigProfile(), lambda_weights=(-1.0, 0.0, 0.0, 0.0))
    with pytest.raises(InvalidConfig):
        validate_config(cfg)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weight_rejected(bad):
    cfg = dataclasses.replace(ConfigProfile(), alpha_weights=(bad, 0.2, 0.2, 0.0, 0.2, 0.2))
    with pytest.raises(InvalidConfig, match="alpha_weights"):
        validate_config(cfg)


def test_all_zero_group_rejected():
    cfg = dataclasses.replace(ConfigProfile(), gamma_weights=(0.0, 0.0, 0.0))
    with pytest.raises(InvalidConfig):
        validate_config(cfg)


@pytest.mark.parametrize("group", config.WEIGHT_GROUPS)
def test_weight_group_with_infinite_sum_rejected(group):
    """Each weight is finite, but the sum overflows: a composite or a
    topology bound would read inf, so the group is rejected by name."""
    size = len(getattr(ConfigProfile(), group))
    huge = dataclasses.replace(ConfigProfile(), **{group: (1e308,) * size})
    with pytest.raises(InvalidConfig, match=f"{group} must have a finite sum"):
        validate_config(huge)
    at_edge = dataclasses.replace(ConfigProfile(), **{group: (1e308 / size,) * size})
    assert validate_config(at_edge) == at_edge


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"resource_q0": -1.0}, "resource_q0"),
        ({"resource_q1": -0.5}, "resource_q1"),
        ({"resource_d0": -5.0}, "resource_d0"),
        ({"resource_d1": -1e-9}, "resource_d1"),
        ({"resource_q0": 1e308, "resource_q1": 1e308}, "resource_q0 \\+ resource_q1"),
        ({"resource_d1": 710.0}, "exp\\(resource_d1\\)"),
        ({"resource_d1": 100000.0}, "exp\\(resource_d1\\)"),
        ({"resource_d0": 1e300, "resource_d1": 30.0}, "resource_d0 \\* exp"),
        ({"resource_d0": 0.0, "resource_d1": 1000.0}, "exp\\(resource_d1\\)"),
    ],
)
def test_resource_heuristic_bounded(fields, named):
    """Coefficients are >= 0 and the estimate at C = 1 is finite, so
    circuit_resource_estimate is finite and monotone on [0, 1]."""
    with pytest.raises(InvalidConfig, match=named):
        validate_config(dataclasses.replace(ConfigProfile(), **fields))


def test_resource_heuristic_finite_at_the_edge():
    edge = dataclasses.replace(ConfigProfile(), resource_q0=8e307, resource_q1=9e307, resource_d0=1e300, resource_d1=18.0)
    assert validate_config(edge) == edge
    estimates = [circuit_resource_estimate(c, edge) for c in np.linspace(0.0, 1.0, 11)]
    assert estimates == sorted(estimates)
    assert all(isinstance(q, int) and isinstance(d, int) for q, d in estimates)


def test_bad_homology_dim_rejected():
    cfg = dataclasses.replace(ConfigProfile(), max_homology_dim=3)
    with pytest.raises(InvalidConfig):
        validate_config(cfg)


@pytest.mark.parametrize(
    "field, limit",
    [("bins_fidelity", MAX_FIDELITY_BINS), ("expressibility_samples", MAX_EXPRESSIBILITY_SAMPLES)],
)
def test_sampling_sizes_bounded_above(field, limit):
    at_limit = dataclasses.replace(ConfigProfile(), **{field: limit})
    assert validate_config(at_limit) == at_limit
    with pytest.raises(InvalidConfig, match=field):
        validate_config(dataclasses.replace(ConfigProfile(), **{field: limit + 1}))


def test_fnv1a64_known_vectors():
    # reference values for the 64-bit FNV-1a parameters
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_config_hash_changes_with_seed():
    a = ConfigProfile(seed=0)
    b = ConfigProfile(seed=1)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == ConfigProfile(seed=0).config_hash()


def test_config_file_round_trip(tmp_path):
    cfg = dataclasses.replace(ConfigProfile(), seed=77, kernel_bandwidth=2.5)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    loaded = load_config(str(path))
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


def test_unknown_config_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"no_such_field": 3}')
    with pytest.raises(InvalidConfig):
        load_config(str(path))


def test_seeded_rng_reproducible():
    a = SeededRng(123).generator().uniform(size=10)
    b = SeededRng(123).generator().uniform(size=10)
    assert np.array_equal(a, b)


def test_child_streams_independent_of_order():
    first = SeededRng(5).child(2, 7).uniform(size=4)
    SeededRng(5).child(9, 1).uniform(size=100)  # interleave another stream
    second = SeededRng(5).child(2, 7).uniform(size=4)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("keys", [(-1,), (2.7,), (True,), (3, -2), ("1",)])
def test_bad_stream_keys_rejected(keys):
    """A stream key is a non-negative integer: no float or bool is read as
    one, and a negative key is a config error, not numpy's ValueError."""
    with pytest.raises(InvalidConfig):
        SeededRng(0).child(*keys)
    with pytest.raises(InvalidConfig):
        SeededRng(0).children(*keys, count=2)


@pytest.mark.parametrize("count", [-1, 2.0, True, 2**32 + 1])
def test_bad_child_count_rejected(count):
    with pytest.raises(InvalidConfig):
        SeededRng(0).children(count=count)


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_bad_seed_rejected(seed):
    with pytest.raises(InvalidConfig):
        SeededRng(seed)


def assert_same_draws(gen, ref):
    assert np.array_equal(gen.uniform(size=(2, 5)), ref.uniform(size=(2, 5)))
    assert np.array_equal(gen.integers(0, 3, size=7), ref.integers(0, 3, size=7))
    assert np.array_equal(gen.standard_normal(3), ref.standard_normal(3))


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**70),
    prefix=st.lists(st.integers(0, 2**40), max_size=2),
    count=st.integers(0, 300),
)
def test_children_draw_as_child(seed, prefix, count):
    """children(*prefix, count) yields the streams child(*prefix, i), bit for
    bit, for seeds and keys of one or more 32-bit words."""
    rng = SeededRng(seed)
    n = 0
    for i, gen in enumerate(rng.children(*prefix, count=count)):
        assert_same_draws(gen, rng.child(*prefix, i))
        n += 1
    assert n == count


def test_children_across_derivation_blocks():
    """Seed states are derived a block at a time; the streams on both sides
    of a block boundary are still child(i)'s."""
    rng = SeededRng(7)
    block = config._CHILD_BLOCK
    gens = rng.children(3, count=block + 2)
    for i, gen in enumerate(gens):
        if i >= block - 1:
            assert_same_draws(gen, rng.child(3, i))
    assert i == block + 1


def test_cli_import_leaves_numpy_random_unloaded():
    """numpy loads numpy.random on first use, about 20 ms; a CLI run that
    draws nothing (profile of a CSV) should not pay for it at import."""
    code = "import sys, datacomplexity.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_jsonschema_loaded_only_by_the_report_verb():
    """jsonschema takes tens of milliseconds to import and only `report`
    validates against the schema, so a profile run never loads it."""
    code = (
        "import contextlib, io, sys, datacomplexity.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['profile', 'synth:parity'])\n"
        "print(rc, 'jsonschema' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "0 False\n"
