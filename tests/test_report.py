import json
from collections import Counter

import jsonschema
import numpy as np

from datacomplexity import qmetrics, scoring, simulator, topology
from datacomplexity import report as report_module
from datacomplexity.config import ConfigProfile, validate_config
from datacomplexity.dataset import Dataset
from datacomplexity.report import (
    REPORT_SCHEMA_V1,
    barren_study_report,
    profile_classical,
    profile_quantum,
    render_report,
)
from datacomplexity.synthetic import SyntheticSpec, generate

CFG = validate_config(ConfigProfile(seed=5))


def small_dataset():
    rng = np.random.default_rng(8)
    return Dataset(rng.uniform(size=(25, 3)), ("a", "b", "c"))


def test_profile_report_round_trip_lossless():
    report = profile_classical(small_dataset(), CFG)
    assert json.loads(report.to_json(include_timings=True)) == report.to_json_obj(include_timings=True)


def test_qprofile_report_round_trip_lossless():
    report = profile_quantum(small_dataset(), "angle", CFG)
    assert json.loads(report.to_json()) == report.to_json_obj()


def test_qprofile_computes_each_quantity_once(monkeypatch):
    """One profile_quantum pass embeds once, builds one fidelity Gram and
    runs Rips once; both composites read the shared results. The rows of a
    product map are held as per-qubit factors: no amplitude array is
    encoded, and no Schmidt spectrum, single-qubit entropy or statevector
    QFI is taken of one. No per-state density matrix is formed. The angle
    map's expressibility runs no statevector and the TEE of the pure
    ensemble is not evaluated."""
    expected = {
        "embed_dataset": 1,
        "ensemble_gram": 1,
        "quantum_topology_detail": 1,
        "rips_filtration": 1,
        "encode": 0,
        "encode_rows": 0,
        "schmidt_spectra": 0,
        "single_qubit_entropies": 0,
        "collective_z_qfis": 0,
        "partial_trace": 0,
        "von_neumann_entropy": 0,
        "run_batch": 0,
        "topological_entanglement_entropy": 0,
    }
    counted = {
        "embed_dataset": scoring.embed_dataset,
        "ensemble_gram": qmetrics.ensemble_gram,
        "quantum_topology_detail": scoring.quantum_topology_detail,
        "rips_filtration": topology.rips_filtration,
        "encode": simulator.encode,
        "encode_rows": simulator.encode_rows,
        "schmidt_spectra": qmetrics.schmidt_spectra,
        "single_qubit_entropies": qmetrics.single_qubit_entropies,
        "collective_z_qfis": qmetrics.collective_z_qfis,
        "partial_trace": simulator.partial_trace,
        "von_neumann_entropy": qmetrics.von_neumann_entropy,
        "run_batch": simulator.run_batch,
        "topological_entanglement_entropy": qmetrics.topological_entanglement_entropy,
    }
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (qmetrics, report_module, scoring, simulator, topology):
        for attr, value in list(vars(module).items()):
            for name, fn in counted.items():
                if value is fn:
                    monkeypatch.setattr(module, attr, counting(name, fn))
    for kind in ("angle", "basis"):
        calls.clear()
        profile_quantum(small_dataset(), kind, CFG)
        assert {name: calls[name] for name in counted} == expected, kind


def test_barren_report_round_trip_and_schema():
    report = barren_study_report(2, 4, 2, 200, "global", CFG)
    study = report.gradient_study
    obj = report.to_json_obj()
    jsonschema.validate(obj, REPORT_SCHEMA_V1)
    back = json.loads(report.to_json())
    assert back == obj
    assert back["gradient_study"] == study.to_json_obj()


def test_reports_validate_against_schema():
    for report in (
        profile_classical(generate(SyntheticSpec("parity", seed=1)), CFG),
        profile_quantum(generate(SyntheticSpec("phase_ring", seed=1)), "angle", CFG),
    ):
        jsonschema.validate(report.to_json_obj(), REPORT_SCHEMA_V1)


def test_timings_excluded_by_default():
    report = profile_classical(small_dataset(), CFG)
    assert report.metrics.timings  # measured internally
    assert report.to_json_obj()["timings_ms"] is None
    assert report.to_json_obj(include_timings=True)["timings_ms"]


def test_render_includes_composites_and_hash():
    report = profile_classical(small_dataset(), CFG)
    text = render_report(report.to_json_obj())
    assert report.config_hash in text
    assert "classical" in text
