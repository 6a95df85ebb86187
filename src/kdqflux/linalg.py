"""Dense complex linear algebra for small Hilbert spaces (dimensions 2-16).

Everything operates on plain numpy complex arrays. All functions are pure and
hold no global state, so they are safe to call from concurrent workers.
Hermitian decompositions are delegated to LAPACK via ``numpy.linalg.eigh``,
which returns eigenvalues in ascending order. Stacks of 2x2 Hermitian
matrices, and 4x4 ones made of two 2x2 blocks (the Choi matrices of
phase-covariant qubit maps), get their eigenvalues in closed form instead.
"""

import numpy as np

# Absolute, max-entry tolerance for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-10

# Largest cross-block entry with which ``block_eigvalsh`` still uses the two
# 2x2 blocks; by Weyl's bound, dropping such entries moves no eigenvalue by
# more than twice this.
BLOCK_TOL = 1e-15


def _require_hermitian(m: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Hermitian part of a matrix or a (..., d, d) stack, after checking that
    no entry of any member deviates from it by more than ``tol``."""
    m_dag = m.conj().swapaxes(-1, -2)
    dev = float(np.max(np.abs(m - m_dag), initial=0.0))
    if dev > tol:
        raise ValueError(f"{what}: input is not Hermitian (max deviation {dev:.3e})")
    # symmetrize round-off so eigh sees an exactly Hermitian matrix
    return (m + m_dag) / 2


def eigvalsh2(p: np.ndarray, q: np.ndarray, o: np.ndarray,
              det: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues (..., 2) of the Hermitian stack [[p, o], [o*, q]], p, q real:
    ``det`` (default p q - |o|^2) over the larger-magnitude root
    tr/2 + hypot((p - q)/2, |o|), signed like the trace, then that root."""
    half = (p + q) / 2.0
    big = half + np.copysign(np.hypot((p - q) / 2.0, np.abs(o)), half)
    if det is None:
        det = p * q - np.abs(o) ** 2
    small = np.divide(det, big, out=np.zeros_like(big), where=big != 0.0)
    return np.stack([small, big], axis=-1)


def block_eigvalsh(h: np.ndarray, det03: np.ndarray | None = None,
                   det12: np.ndarray | None = None) -> np.ndarray:
    """Unsorted eigenvalues of a (..., 4, 4) Hermitian stack from its 2x2
    blocks on the index pairs (0, 3) and (1, 2), whose determinants
    ``det03`` and ``det12`` may be given. Members with a cross-block entry
    above ``BLOCK_TOL`` go through ``eigvalsh`` instead."""
    w = np.concatenate(
        [eigvalsh2(h[..., i, i].real, h[..., j, j].real, h[..., i, j], det)
         for i, j, det in ((0, 3, det03), (1, 2, det12))], axis=-1)
    fallback = np.abs(h[..., (0, 0, 3, 3), (1, 2, 1, 2)]).max(axis=-1) > BLOCK_TOL
    if fallback.any():
        w[fallback] = np.linalg.eigvalsh(h[fallback])
    return w


def exp_hermitian_generator(h: np.ndarray, t: float,
                            tol: float = HERMITICITY_TOL) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via spectral decomposition.

    The result is unitary to machine precision for any real ``t``.
    """
    w, v = np.linalg.eigh(_require_hermitian(h, tol, "exp_hermitian_generator"))
    return (v * np.exp(-1j * w * t)) @ v.conj().T
