"""Energy-change quasiprobabilities and non-Markovianity witnesses.

Per collision the analysis tracks:

* the Kirkwood-Dirac quasiprobability (KDQ) distribution of two-point energy
  outcomes under the single-step map, and its non-positivity functional N_q;
* complete-positivity margins of the single-step map and the RHP increment
  g_n from the trace norm of its Choi matrix;
* the quantum mutual information between the evolving system and an
  untouched reference, whose positive increments build the LFS measure;
* the average system energy change, whose sign reversals mark anomalous
  energy fluxes.

N_q > 0 requires a population-sector entry of the single-step map to leave
[0, 1], which forces a negative Choi eigenvalue: non-positivity of the
energy-change distribution witnesses a CP-divisibility violation.
"""

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (block_eigvalsh, eigvalsh2, partial_trace, trace_norm,
                     von_neumann_entropy)
from .tomography import PhaseCovariantEntries, apply_superoperator


@dataclass(frozen=True)
class EnergyBasis:
    """Measurement basis of the system Hamiltonian (omega_s/2) sigma_z.

    Outcome index 0 is the first computational basis vector |0>, which
    carries energy +omega_s/2; index 1 is |1> with -omega_s/2.
    """

    omega_s: float

    @property
    def energies(self) -> tuple[float, float]:
        return (self.omega_s / 2.0, -self.omega_s / 2.0)

    @property
    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.diag([1.0, 0.0]).astype(complex),
                np.diag([0.0, 1.0]).astype(complex))

    def energy_changes(self) -> np.ndarray:
        """u[in, fin] = E_fin - E_in."""
        e = np.asarray(self.energies)
        return e[np.newaxis, :] - e[:, np.newaxis]


@dataclass(frozen=True)
class KdqDistribution:
    """KDQ values q[in, fin] and the energy changes u[in, fin] they label."""

    q: np.ndarray
    u: np.ndarray | None = None

    def total(self) -> complex:
        return complex(self.q.sum())

    def marginal_in(self) -> np.ndarray:
        """Sum over final outcomes; equals the pre-collision populations."""
        return self.q.sum(axis=1)


class CpMargins(NamedTuple):
    """Signed margins of the four CP conditions (negative means violated)."""

    a_margin: float      # min(a, 1 - a)
    b_margin: float      # min(b, 1 - b)
    c_margin: float      # a(1 - b) - |c|^2
    d_margin: float      # b(1 - a) - |d|^2


@dataclass(frozen=True)
class WitnessRecord:
    """Per-collision bundle of witnesses and map diagnostics."""

    n: int
    p0: float
    p1: float
    a: float
    b: float
    c: complex
    d: complex
    residual: float
    n_q: float
    g_n: float
    delta_i: float
    avg_de: float
    c_abs2_margin: float
    d_abs2_margin: float
    choi_min_eig: float


def kdq_general(sop: np.ndarray, rho_pre: np.ndarray,
                basis: EnergyBasis) -> KdqDistribution:
    """q[in, fin] = Tr[Pi_fin Lambda[Pi_in rho]] for the given superoperator.

    This is the defining two-point expression; it keeps the coherences of
    ``rho_pre`` in the first slot, so the values may be negative or complex.
    """
    pi = basis.projectors
    q = np.empty((2, 2), dtype=complex)
    for i_in in range(2):
        evolved = apply_superoperator(sop, pi[i_in] @ rho_pre)
        for i_fin in range(2):
            q[i_in, i_fin] = np.trace(pi[i_fin] @ evolved)
    return KdqDistribution(q=q, u=basis.energy_changes())


def kdq_closed_form(a: float, b: float, p0: float, p1: float,
                    basis: EnergyBasis | None = None) -> KdqDistribution:
    """KDQ of a phase covariant single-step map from its population entries.

    q(0->0) = a p0, q(0->1) = (1-a) p0, q(1->0) = b p1, q(1->1) = (1-b) p1.
    """
    if abs(p0 + p1 - 1.0) > 1e-10 or not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
        raise ValueError(f"populations ({p0}, {p1}) are not normalized")
    q = np.array([[a * p0, (1.0 - a) * p0],
                  [b * p1, (1.0 - b) * p1]], dtype=complex)
    return KdqDistribution(q=q, u=basis.energy_changes() if basis else None)


def nonpositivity(kdq: KdqDistribution) -> float:
    """N_q = -1 + sum |q|; zero exactly for a genuine probability distribution."""
    return float(np.abs(kdq.q).sum() - 1.0)


def cp_conditions(entries: PhaseCovariantEntries) -> tuple[bool, CpMargins]:
    """Complete positivity of a phase covariant map, with signed margins.

    CP holds iff a and b lie in [0, 1], |c|^2 <= a(1-b) and |d|^2 <= b(1-a).
    """
    a, b = entries.a, entries.b
    margins = CpMargins(
        a_margin=min(a, 1.0 - a),
        b_margin=min(b, 1.0 - b),
        c_margin=a * (1.0 - b) - abs(entries.c) ** 2,
        d_margin=b * (1.0 - a) - abs(entries.d) ** 2)
    return all(m >= 0.0 for m in margins), margins


def rhp_increment(choi_matrix: np.ndarray) -> float:
    """g_n = ||J||_1 / 2 - 1; zero iff the Choi matrix is PSD.

    The Choi state of the step map is J/2 up to an ancilla-ordering swap
    that leaves the trace norm unchanged.
    """
    return trace_norm(choi_matrix) / 2.0 - 1.0


def avg_energy_change(entries: PhaseCovariantEntries, p0: float, p1: float,
                      omega_s: float) -> float:
    """Average system energy change omega_s [(a - 1) p0 + b p1] over one step."""
    if abs(p0 + p1 - 1.0) > 1e-10:
        raise ValueError(f"populations ({p0}, {p1}) are not normalized")
    return float(omega_s * ((entries.a - 1.0) * p0 + entries.b * p1))


def qmi(rho_ls: np.ndarray) -> float:
    """Quantum mutual information S(rho_L) + S(rho_S) - S(rho_LS), in bits."""
    s_l = von_neumann_entropy(partial_trace(rho_ls, [2, 2], keep=[0]))
    s_s = von_neumann_entropy(partial_trace(rho_ls, [2, 2], keep=[1]))
    return s_l + s_s - von_neumann_entropy(rho_ls)


def _entropy_from_eigs(w: np.ndarray) -> np.ndarray:
    """Batched -sum w log2 w with clipping of round-off negatives."""
    w = np.clip(w, 0.0, None)
    logs = np.zeros_like(w)
    np.log2(w, out=logs, where=w > 0.0)
    return -(w * logs).sum(axis=-1)


def lfs_series(chois: Sequence[np.ndarray], tol_pos: float = 1e-10,
               density_tol: float = 1e-8) -> tuple[np.ndarray, float]:
    """QMI increments of the reference-system pair along the cumulative maps.

    ``chois[n]`` is the Choi matrix of the cumulative map after n collisions;
    J/2 realizes the joint state of the untouched reference and the evolved
    system, starting from the maximally entangled pair at n = 0. Returns
    (delta_i, i_lfs) with delta_i[n] = I(n+1) - I(n) and i_lfs the sum of
    increments exceeding ``tol_pos``. The spectra are taken in closed form
    (``linalg.block_eigvalsh`` and ``linalg.eigvalsh2``).
    """
    stack = np.asarray(chois, dtype=complex) / 2.0
    herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    traces = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    w_ls = block_eigvalsh((stack + stack.conj().transpose(0, 2, 1)) / 2)
    bad = (herm > density_tol) | (traces > density_tol) \
        | (w_ls.min(axis=1) < -density_tol)
    if bad.any():
        raise ValueError(f"reference-system state at step {int(np.argmax(bad))} "
                         "is not a valid density matrix")
    four = stack.reshape(-1, 2, 2, 2, 2)
    rho_l = np.einsum("nalbl->nab", four)
    rho_s = np.einsum("nlalb->nab", four)
    s_l, s_s = (_entropy_from_eigs(eigvalsh2(r[:, 0, 0].real, r[:, 1, 1].real,
                                             r[:, 1, 0])) for r in (rho_l, rho_s))
    qmis = s_l + s_s - _entropy_from_eigs(w_ls)
    delta_i = np.diff(qmis)
    i_lfs = float(delta_i[delta_i > tol_pos].sum()) if delta_i.size else 0.0
    return delta_i, i_lfs


def rhp_measure(g_values: Sequence[float], tol_pos: float = 1e-10) -> float:
    """Cumulative RHP measure: sum of the increments g_n above ``tol_pos``.

    The threshold is the one I_LFS and sum N_q use, so round-off increments
    of a CP-divisible run count as zero in all three measures.
    """
    g = np.asarray(g_values, dtype=float)
    return float(g[g > tol_pos].sum())
