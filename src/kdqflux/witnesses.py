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

``analysis._witness_columns`` evaluates the per-collision values as array
expressions over a whole run; this module holds the record they fill and the
mutual-information series.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import eigvalsh2, hermiticity_deviation

# A state passed to qmi whose Hermiticity or trace error, or negative
# eigenvalue, exceeds this is not a density matrix.
DENSITY_TOL = 1e-8


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


def _entropy_from_eigs(w: np.ndarray) -> np.ndarray:
    """Batched -sum w log2 w with clipping of round-off negatives."""
    w = np.clip(w, 0.0, None)
    logs = np.zeros_like(w)
    np.log2(w, out=logs, where=w > 0.0)
    return -(w * logs).sum(axis=-1)


def qmi(rho_ls: np.ndarray) -> np.ndarray:
    """Quantum mutual information S(rho_L) + S(rho_S) - S(rho_LS), in bits.

    ``rho_ls`` is a two-qubit state or a (..., 4, 4) stack of them; the
    result has the stack's shape. The joint spectra come from ``eigvalsh``,
    the marginal ones from the 2x2 formula ``linalg.eigvalsh2``. Raises
    ValueError for the first state, in flattened stack order, that is not a
    density matrix within ``DENSITY_TOL``.
    """
    rho_ls = np.asarray(rho_ls, dtype=complex)
    herm = hermiticity_deviation(rho_ls)
    traces = np.abs(np.trace(rho_ls, axis1=-2, axis2=-1) - 1.0)
    w_ls = np.linalg.eigvalsh((rho_ls + rho_ls.conj().swapaxes(-1, -2)) / 2)
    bad = (herm > DENSITY_TOL) | (traces > DENSITY_TOL) \
        | (w_ls.min(axis=-1) < -DENSITY_TOL)
    if bad.any():
        raise ValueError(f"state {int(np.argmax(bad))} is not a valid density matrix")
    four = rho_ls.reshape(rho_ls.shape[:-2] + (2, 2, 2, 2))
    rho_l = np.einsum("...albl->...ab", four)
    rho_s = np.einsum("...lalb->...ab", four)
    s_l, s_s = (_entropy_from_eigs(eigvalsh2(r[..., 0, 0].real, r[..., 1, 1].real,
                                             r[..., 1, 0])) for r in (rho_l, rho_s))
    return s_l + s_s - _entropy_from_eigs(w_ls)


def lfs_series(family: np.ndarray) -> np.ndarray:
    """QMI increments of the reference-system pair along the cumulative maps.

    ``family[n]`` holds (a, b, c, d) of the cumulative map after n
    collisions. Its Choi matrix over 2, J/2, is the joint state of the
    untouched reference and the evolved system, the maximally entangled
    pair at n = 0: the blocks [[a, c], [c*, 1-b]]/2 and [[1-a, d*], [d, b]]/2,
    with reference marginal I/2 and system marginal diag((a+b)/2, (2-a-b)/2).
    Returns delta_i with delta_i[n] = I(n+1) - I(n); ``analysis.summarize``
    adds up the increments above its threshold into I_LFS. Raises ValueError
    for the first J/2 with an eigenvalue below -``DENSITY_TOL`` or not finite.
    """
    a, b, c, d = family[:, 0].real, family[:, 1].real, family[:, 2], family[:, 3]
    w = np.concatenate([eigvalsh2(a, 1.0 - b, c), eigvalsh2(1.0 - a, b, d)],
                       axis=-1) / 2.0
    bad = ~(w.min(axis=-1) >= -DENSITY_TOL)   # a NaN eigenvalue is bad too
    if bad.any():
        raise ValueError(f"state {int(np.argmax(bad))} is not a valid density matrix")
    marginal = np.stack([a + b, (1.0 - a) + (1.0 - b)], axis=-1) / 2.0
    return np.diff(1.0 + _entropy_from_eigs(marginal) - _entropy_from_eigs(w))
