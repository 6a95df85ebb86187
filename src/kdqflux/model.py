"""Physical ingredients of the memory-mediated qubit collision model.

A system qubit S talks to a memory qubit M, which in turn collides with a
stream of fresh environment qubits A. Conventions used throughout:

* subsystem ordering is S (x) M (x) A for all 8-dimensional operators;
* natural units, hbar = k_B = 1;
* local Hamiltonians are (omega/2) sigma_z, so |0> carries energy +omega/2.

The module holds the parameter dataclasses, the two collision propagators
(``collision_unitaries``) and the Gibbs states of memory and environment
(``thermal_state``); the tomography probes are ``tomography.PROBES``.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import exp_hermitian_generator

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

ISOTROPIC = "isotropic"
ANISOTROPIC = "anisotropic"

# Inverse temperatures above this produce degenerate Gibbs weights in double
# precision; reject instead of silently returning a rank-deficient state.
BETA_MAX = 1e3

# exp(x) overflows exactly for x above this double, log(DBL_MAX) rounded down
_EXP_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class SpinParams:
    """Angular frequencies of the three qubits (natural units)."""

    omega_s: float = 1.0
    omega_m: float = 1.0
    omega_a: float = 1.0

    def __post_init__(self):
        for name in ("omega_s", "omega_m", "omega_a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.omega_s <= 0:
            # at omega_s = 0 the energy basis of the KDQ witness is degenerate
            raise ValueError(f"omega_s={self.omega_s:g} must be > 0")


@dataclass(frozen=True)
class CouplingParams:
    """Interaction strengths, collision durations and S-M interaction kind.

    ``aniso_strength`` multiplies the anisotropic S-M Hamiltonian; ``None``
    selects ``g_sm / 2``: at ``gamma = 0`` that is (g_sm/4)(XX + YY) +
    (g_sm/2) ZZ, whose flip-flop terms have half the strength of the
    isotropic (g_sm/2)(XX + YY + ZZ).
    """

    g_sm: float = 0.2
    g_ma: float = 0.2
    tau1: float = 0.2
    tau2: float = 0.2
    gamma: float = 0.0
    sm_interaction_kind: str = ISOTROPIC
    aniso_strength: float | None = None

    def __post_init__(self):
        for name in ("g_sm", "g_ma", "tau1", "tau2", "aniso_strength"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.tau1 < 0 or self.tau2 < 0:
            raise ValueError("collision durations tau1, tau2 must be >= 0")
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"anisotropy gamma={self.gamma} outside [-1, 1]")
        if self.sm_interaction_kind not in (ISOTROPIC, ANISOTROPIC):
            raise ValueError(
                f"unknown sm_interaction_kind {self.sm_interaction_kind!r}")


@dataclass(frozen=True)
class ThermalSpec:
    """Inverse temperature of memory and environment qubits (k_B = 1)."""

    beta: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError("beta must be finite and >= 0")
        if self.beta > BETA_MAX:
            raise ValueError(f"beta={self.beta:g} exceeds supported maximum {BETA_MAX:g}")


def _constant(m: np.ndarray) -> np.ndarray:
    """``m``, made read-only."""
    m.flags.writeable = False
    return m


# Pauli products on S (x) M (x) A, built once with Kronecker products. The
# propagators only scale and add them; their Hamiltonians can differ from
# Kronecker products of scaled 2-qubit Hamiltonians in the signs of zero
# entries, but not after the symmetrization of ``exp_hermitian_generator``,
# so the propagators are the same bits.
_XX = np.kron(SIGMA_X, SIGMA_X)
_YY = np.kron(SIGMA_Y, SIGMA_Y)
_ZZ = np.kron(SIGMA_Z, SIGMA_Z)
_ZII = _constant(np.kron(np.kron(SIGMA_Z, IDENTITY_2), IDENTITY_2))
_IZI = _constant(np.kron(np.kron(IDENTITY_2, SIGMA_Z), IDENTITY_2))
_IIZ = _constant(np.kron(np.kron(IDENTITY_2, IDENTITY_2), SIGMA_Z))
_XXI = _constant(np.kron(_XX, IDENTITY_2))
_YYI = _constant(np.kron(_YY, IDENTITY_2))
_ZZI = _constant(np.kron(_ZZ, IDENTITY_2))
_HEISENBERG_SM = _constant(np.kron(_XX + _YY + _ZZ, IDENTITY_2))
_HEISENBERG_MA = _constant(np.kron(IDENTITY_2, _XX + _YY + _ZZ))


def _aniso_strength(couplings: CouplingParams) -> float:
    s = couplings.aniso_strength
    return couplings.g_sm / 2.0 if s is None else s


def phase_error_bound(spins: SpinParams, couplings: CouplingParams) -> float:
    """eps B tau, the larger over the propagators exp(-i H tau) of
    ``collision_unitaries``: their phase error, as ``eigh`` resolves H only to
    about eps ||H||, and B, the sum of H's absolute Pauli coefficients, bounds ||H||."""
    free = (abs(spins.omega_s) + abs(spins.omega_m) + abs(spins.omega_a)) / 2.0
    sm = 1.5 * abs(couplings.g_sm)
    if couplings.sm_interaction_kind == ANISOTROPIC:
        # |1 - gamma|/2 + |1 + gamma|/2 + 1 = 2 for gamma in [-1, 1]
        sm = 2.0 * abs(_aniso_strength(couplings))
    return np.finfo(float).eps * max((free + sm) * couplings.tau1,
                                     (free + 1.5 * abs(couplings.g_ma)) * couplings.tau2)


def collision_unitaries(spins: SpinParams,
                        couplings: CouplingParams) -> tuple[np.ndarray, np.ndarray]:
    """The two 8x8 propagators of a collision step, on S (x) M (x) A.

    ``u_sm`` generates the system-memory collision of duration tau1 and
    ``u_ma`` the memory-environment collision of duration tau2; both include
    the free evolution of all three qubits. Each Hamiltonian is a sum of
    the constant Pauli products above, scaled by the parameters; both are
    exponentiated together, as one (2, 8, 8) stack.
    """
    h_free = (spins.omega_s / 2.0 * _ZII + spins.omega_m / 2.0 * _IZI
              + spins.omega_a / 2.0 * _IIZ)
    if couplings.sm_interaction_kind == ANISOTROPIC:
        strength = _aniso_strength(couplings)
        gamma = couplings.gamma
        h_sm = strength * ((1.0 - gamma) / 2.0 * _XXI + (1.0 + gamma) / 2.0 * _YYI
                           + _ZZI)
    else:
        h_sm = couplings.g_sm / 2.0 * _HEISENBERG_SM
    h_ma = couplings.g_ma / 2.0 * _HEISENBERG_MA
    h = np.empty((2, 8, 8), dtype=complex)
    np.add(h_free, h_sm, out=h[0])
    np.add(h_free, h_ma, out=h[1])
    u_sm, u_ma = exp_hermitian_generator(
        h, np.array([[couplings.tau1], [couplings.tau2]]))
    return u_sm, u_ma


def thermal_state(spec: ThermalSpec, omega: float) -> np.ndarray:
    """Gibbs state exp(-beta H)/Z for H = (omega/2) sigma_z.

    Diagonal in the computational basis; for omega > 0 the excited level is
    |0> so the ground population sits on |1>. Once beta |omega| / 2 is past
    the range of exp (about 709), the weight of the ground level overflows;
    the state is then its exact limit, the pure ground state. The weights
    are computed in double precision whatever the type of beta and omega.
    """
    beta, omega = float(spec.beta), float(omega)
    x0, x1 = -beta * (omega / 2.0), -beta * (-omega / 2.0)
    if x0 > _EXP_MAX or x1 > _EXP_MAX:
        w0, w1 = float(x0 > _EXP_MAX), float(x1 > _EXP_MAX)
    else:
        w0, w1 = np.exp([x0, x1]).tolist()
        z = w0 + w1
        w0, w1 = w0 / z, w1 / z
    return np.array([[w0, 0.0], [0.0, w1]], dtype=complex)
