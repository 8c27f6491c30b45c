"""Dense single-qubit matrices: the oracle side of the statevector engine's
tests, which build whole-register operators from them with np.kron. The
engine itself never forms these matrices."""

import math

import numpy as np

from datacomplexity.simulator import FIXED_GATES

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": FIXED_GATES["X"],
    "Y": FIXED_GATES["Y"],
    "Z": FIXED_GATES["Z"],
}


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if axis == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if axis == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if axis == "RZ":
        return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)
    raise ValueError(f"unknown rotation axis {axis!r}")
