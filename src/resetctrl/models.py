"""Concrete model builders: the oscillator-qubit family and qubit states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import CycleGenerator, SwitchingFunction
from .qcore import DensityMatrix, HilbertSpace, Operator

COHERENT_TAIL_LIMIT = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

QUBIT_SPACE = HilbertSpace((2,))


def pauli_vector(n_vec) -> np.ndarray:
    n = np.asarray(n_vec, dtype=float)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def annihilation(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for j in range(cutoff - 1):
        a[j, j + 1] = math.sqrt(j + 1)
    return a


def number_operator(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff, dtype=complex))


def quadrature_x(cutoff: int) -> np.ndarray:
    a = annihilation(cutoff)
    return 0.5 * (a + a.conj().T)


def quadrature_p(cutoff: int) -> np.ndarray:
    a = annihilation(cutoff)
    return (a - a.conj().T) / 2j


def fock_state(index: int, cutoff: int) -> np.ndarray:
    if not 0 <= index < cutoff:
        raise ValueError(f"Fock index {index} outside [0, {cutoff})")
    v = np.zeros(cutoff, dtype=complex)
    v[index] = 1.0
    return v


def minimal_coherent_cutoff(alpha: complex) -> int:
    """Smallest truncation whose discarded Poisson tail is at most ``COHERENT_TAIL_LIMIT``."""
    mean = abs(alpha) ** 2
    if mean == 0.0:
        return 1
    log_term = -mean  # log of the n = 0 Poisson weight
    cumulative = math.exp(log_term)
    n = 0
    while 1.0 - cumulative > COHERENT_TAIL_LIMIT:
        n += 1
        log_term += math.log(mean) - math.log(n)
        cumulative += math.exp(log_term)
        if n > 10 ** 6:
            raise ValueError("coherent tail does not converge")
    return n + 1


def coherent_state(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent state, renormalized after the tail check."""
    needed = minimal_coherent_cutoff(alpha)
    if cutoff < needed:
        raise ValueError(
            f"cutoff {cutoff} leaves truncated tail mass above {COHERENT_TAIL_LIMIT:.0e}; "
            f"need cutoff >= {needed}"
        )
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps / np.linalg.norm(amps)


def bloch_density(vector) -> DensityMatrix:
    """Qubit state (I + r . sigma) / 2 from a Bloch vector of norm <= 1."""
    r = np.asarray(vector, dtype=float)
    if r.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if np.linalg.norm(r) > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector norm {np.linalg.norm(r):.6f} exceeds 1")
    return DensityMatrix(Operator(0.5 * (np.eye(2) + pauli_vector(r)), QUBIT_SPACE))


@dataclass(frozen=True)
class OscillatorQubitModel:
    """Harmonic oscillator steered through a qubit actuator.

    H(tau) = nu a'a + (omega/2) sigma_z + g(tau/dt) X kron (n . sigma),
    truncated at ``cutoff`` Fock levels. ``cutoff=2`` gives the
    qubit-qubit reduction used in the scaling experiments.
    """

    nu: float
    omega: float
    n_vec: tuple[float, float, float]
    cutoff: int
    g: SwitchingFunction

    def __post_init__(self):
        n = np.asarray(self.n_vec, dtype=float)
        if n.shape != (3,):
            raise ValueError("n_vec must have three components")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError(f"n_vec must be unit norm, got |n| = {np.linalg.norm(n)!r}")
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        object.__setattr__(self, "n_vec", tuple(float(x) for x in n))


def build_oscillator_qubit(model: OscillatorQubitModel) -> CycleGenerator:
    space_s = HilbertSpace((model.cutoff,))
    h_s = Operator(model.nu * number_operator(model.cutoff), space_s)
    h_a = Operator(0.5 * model.omega * SIGMA_Z, QUBIT_SPACE)
    h_sa = Operator(
        np.kron(quadrature_x(model.cutoff), pauli_vector(model.n_vec)),
        space_s.tensor(QUBIT_SPACE),
    )
    return CycleGenerator(
        space_S=space_s,
        space_A=QUBIT_SPACE,
        h_S=h_s,
        h_A=h_a,
        h_SA=h_sa,
        g=model.g,
    )


def qubit_qubit_model(
    nu: float, omega: float, n_vec, g: SwitchingFunction
) -> OscillatorQubitModel:
    """Two-level truncation of the oscillator-qubit model."""
    return OscillatorQubitModel(nu=nu, omega=omega, n_vec=tuple(n_vec), cutoff=2, g=g)
