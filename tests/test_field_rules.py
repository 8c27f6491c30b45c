"""Each ConfigProfile field's Rule holds wherever its value enters.

A public function that takes a value a config field governs checks it with
config.require, by that field's Rule: NaN, an infinity, a bool, a fraction
where the field declares an integer, or a value just past the field's bound
raises InvalidConfig naming the field, as a config file holding it would.
GOVERNED maps every such field to its callers; CONFIG_ONLY lists the fields
that only a whole ConfigProfile carries. Together they name every field, so
a new field has to say where its value enters.
"""

import dataclasses
import math

import numpy as np
import pytest

from datacomplexity.classical import (
    Spectrum,
    distributional_entropy,
    interaction_order,
    kernel_effective_dimension,
    kernel_gram,
)
from datacomplexity.config import ConfigProfile, SeededRng, require
from datacomplexity.dataset import Dataset, standardize
from datacomplexity.errors import InvalidConfig
from datacomplexity.qmetrics import expressibility_kl, haar_bin_masses, quantum_interaction_order
from datacomplexity.scoring import (
    CLASSICAL_COMPONENTS,
    INDUCED_COMPONENTS,
    QUANTUM_COMPONENTS,
    MetricVector,
    classical_complexity,
    generalization_gap,
    induced_complexity,
    quantum_complexity,
    trainability_condition,
    trainability_prediction,
)
from datacomplexity.simulator import Gate, ParameterizedCircuit, zero_state
from datacomplexity.topology import DistanceMatrix, persistence_diagram, rips_filtration, topological_complexity

DS = standardize(Dataset(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]), ("a", "b")))
DM = DistanceMatrix(values=np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
DIAGRAM = persistence_diagram(rips_filtration(DM))
CIRCUIT = ParameterizedCircuit(1, (Gate("RY", (0,), param_slot=0),), 1)
MV = MetricVector()
for _name in CLASSICAL_COMPONENTS + QUANTUM_COMPONENTS + INDUCED_COMPONENTS:
    MV.add(_name, 0.5, (0.0, 1.0))

# field -> the public calls that take its value
GOVERNED = {
    "lambda_weights": [lambda v: classical_complexity(MV, v)],
    "alpha_weights": [lambda v: quantum_complexity(MV, v)],
    "beta_weights": [lambda v: induced_complexity(MV, v, "angle")],
    "w_topology": [lambda v: topological_complexity(DIAGRAM, v)],
    "epsilon_cumulant": [lambda v: interaction_order(DS, v), lambda v: quantum_interaction_order(zero_state(2), v)],
    "epsilon_grad": [lambda v: trainability_condition(0.5, v)],
    "lambda_penalty": [lambda v: generalization_gap(0.1, 0.5, 0.4, v)],
    "delta_topo": [lambda v: trainability_prediction(2, 1, 0.5, 0.1, 0.2, v)],
    "kernel_kind": [lambda v: kernel_gram(DS, v, 1.0)],
    "kernel_bandwidth": [lambda v: kernel_gram(DS, "rbf", v)],
    "kernel_ridge": [lambda v: kernel_effective_dimension(Spectrum(np.ones(3), "kernel"), v)],
    "rips_max_scale": [lambda v: rips_filtration(DM, max_scale=v)],
    "max_homology_dim": [lambda v: rips_filtration(DM, max_dim=v)],
    "rips_point_cap": [lambda v: rips_filtration(DM, point_cap=v)],
    "bins_entropy": [lambda v: distributional_entropy(DS, v)],
    "bins_fidelity": [lambda v: expressibility_kl(CIRCUIT, 100, v, SeededRng(0)), lambda v: haar_bin_masses(2, v)],
    "expressibility_samples": [lambda v: expressibility_kl(CIRCUIT, v, 10, SeededRng(0))],
}
# fields read only from a whole ConfigProfile
CONFIG_ONLY = {
    "gamma_weights",
    "euler_scale_fraction",
    "resource_q0",
    "resource_q1",
    "resource_d0",
    "resource_d1",
    "seed",
}
FIELDS = {f.name: f for f in dataclasses.fields(ConfigProfile)}


def past_the_bound(name):
    """Values just outside the field's Rule, from its declaration."""
    field = FIELDS[name]
    rule = field.metadata["rule"]
    default = field.default
    if isinstance(default, tuple):
        below = [(-5e-324, *default[1:]), (0.0,) * len(default)]
        return below + ([(*default, 0.5), default[:-1]] if rule.size else [])
    if rule.choices:
        return [choice.upper() for choice in rule.choices]
    integer = field.type == "int"

    def beyond(bound, direction):
        return bound + direction if integer else math.nextafter(bound, direction * math.inf)

    return (
        ([beyond(rule.lo, -1)] if rule.lo is not None else [])
        + ([beyond(rule.hi, 1)] if rule.hi is not None else [])
        + ([rule.gt] if rule.gt is not None else [])
    )


def bad_values(name):
    """NaN, the infinities, a bool, a fraction and a float where the field
    takes an integer, and each value past the bound; entry 0 of a weight
    group stands in for the group."""
    default = FIELDS[name].default
    odd = [math.nan, math.inf, -math.inf, True]
    if FIELDS[name].type == "int":
        odd += [2.5, float(default)]
    if isinstance(default, tuple):
        odd = [(value, *default[1:]) for value in odd]
    return odd + past_the_bound(name)


CASES = [
    pytest.param(name, i, value, id=f"{name}-{i}-{value!r}")
    for name, callers in GOVERNED.items()
    for i in range(len(callers))
    for value in bad_values(name)
]


def test_every_field_says_where_its_value_enters():
    assert set(GOVERNED).isdisjoint(CONFIG_ONLY)
    assert set(GOVERNED) | CONFIG_ONLY == set(FIELDS)


@pytest.mark.parametrize("name, i, value", CASES)
def test_governed_parameter_takes_its_fields_rule(name, i, value):
    with pytest.raises(InvalidConfig, match=f"^{name} must be "):
        GOVERNED[name][i](value)


@pytest.mark.parametrize("name", GOVERNED)
def test_governed_parameter_takes_the_default(name):
    """The field's default passes each caller, as a list for a weight group,
    which the rule reads as the tuple a config holds."""
    default = FIELDS[name].default
    for call in GOVERNED[name]:
        call(list(default) if isinstance(default, tuple) else default)


def test_require_returns_the_value():
    assert require("bins_entropy", 16) == 16
    assert require("rips_max_scale", None) is None
    with pytest.raises(InvalidConfig, match="^kernel_bandwidth must be > 0, got -1.0$"):
        require("kernel_bandwidth", -1.0)
