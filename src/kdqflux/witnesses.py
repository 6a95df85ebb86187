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

``witness_columns`` takes every column of a run's witness table from its
step maps, ``lfs_series`` delta_i from its cumulative maps, both as array
expressions over (a, b, c, d) stacks (``tomography``).
"""

from dataclasses import dataclass

import numpy as np

from .tomography import choi_eigenvalues

# A reference-system state J/2 of ``lfs_series`` with an eigenvalue below
# -DENSITY_TOL is not a density matrix.
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


def witness_columns(steps: np.ndarray, rho_pre: np.ndarray,
                    delta_i: np.ndarray, omega_s: float) -> dict[str, np.ndarray]:
    """One array per WitnessRecord field, in its order, for the (n, 4) step
    maps (a, b, c, d) of collisions 1..n on the (n, 2, 2) states ``rho_pre``
    and the n QMI increments ``delta_i``. The KDQ values
    q[in, fin] = Tr[Pi_fin Lambda[Pi_in rho]] in the energy basis are
    a p0, (1-a) p0, b p1 and (1-b) p1; the CP margins are the Choi block
    determinants of ``choi_eigenvalues``; ``residual`` is 0."""
    a, b, c, d = steps[:, 0].real, steps[:, 1].real, steps[:, 2], steps[:, 3]
    p0, p1 = rho_pre[:, 0, 0].real, rho_pre[:, 1, 1].real
    w, c_margin, d_margin = choi_eigenvalues(steps)
    return {"n": np.arange(1, len(a) + 1), "p0": p0, "p1": p1, "a": a, "b": b,
            "c": c, "d": d, "residual": np.zeros(len(a)),
            "n_q": np.abs(a * p0) + np.abs((1.0 - a) * p0)
            + np.abs(b * p1) + np.abs((1.0 - b) * p1) - 1.0,
            "g_n": np.abs(w).sum(axis=-1) / 2.0 - 1.0, "delta_i": delta_i,
            "avg_de": omega_s * ((a - 1.0) * p0 + b * p1),
            "c_abs2_margin": c_margin, "d_abs2_margin": d_margin,
            "choi_min_eig": w.min(axis=-1)}


def _entropy_from_eigs(w: np.ndarray) -> np.ndarray:
    """Batched -sum w log2 w with clipping of round-off negatives."""
    w = np.clip(w, 0.0, None)
    logs = np.zeros_like(w)
    np.log2(w, out=logs, where=w > 0.0)
    return -(w * logs).sum(axis=-1)


def lfs_series(family: np.ndarray) -> np.ndarray:
    """QMI increments of the reference-system pair along the cumulative maps.

    ``family[n]`` holds (a, b, c, d) of the cumulative map after n
    collisions. Its Choi matrix over 2, J/2, is the joint state of the
    untouched reference and the evolved system, the maximally entangled
    pair at n = 0 (spectrum: ``tomography.choi_eigenvalues``, halved), with
    reference marginal I/2 and system marginal diag((a+b)/2, (2-a-b)/2).
    Returns delta_i with delta_i[n] = I(n+1) - I(n); ``analysis.summarize``
    adds up the increments above its threshold into I_LFS. Raises ValueError
    for the first J/2 with an eigenvalue below -``DENSITY_TOL`` or not finite.
    """
    w = choi_eigenvalues(family)[0] / 2.0
    bad = ~(w.min(axis=-1) >= -DENSITY_TOL)   # a NaN eigenvalue is bad too
    if bad.any():
        raise ValueError(f"state {int(np.argmax(bad))} is not a valid density matrix")
    a, b = family[:, 0].real, family[:, 1].real
    marginal = np.stack([a + b, (1.0 - a) + (1.0 - b)], axis=-1) / 2.0
    return np.diff(1.0 + _entropy_from_eigs(marginal) - _entropy_from_eigs(w))
