"""Dense complex linear algebra for small Hilbert spaces (dimensions 2-16).

Everything operates on plain numpy complex arrays. All functions are pure and
hold no global state, so they are safe to call from concurrent workers.
Hermitian decompositions are delegated to LAPACK via ``numpy.linalg.eigh``,
which returns eigenvalues in ascending order. Stacks of 2x2 Hermitian
matrices (the blocks of the Choi matrices of phase-covariant qubit maps)
get their eigenvalues in closed form instead.
"""

import numpy as np

# Absolute, max-entry tolerance for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-10

# Upper-triangle indices, diagonal included, of d x d matrices, d <= 16.
_UPPER = [np.triu_indices(d) for d in range(17)]


def hermiticity_deviation(m: np.ndarray) -> np.ndarray:
    """Largest |m_ij - conj(m_ji)| of each member of a (..., d, d) stack.

    Each pair i < j and each diagonal entry is taken once: bit for bit the
    maximum of |m - m^H| over the whole matrix. A non-finite entry gives a
    non-finite value; a NaN or infinite real part on the diagonal gives NaN.
    """
    i, j = _UPPER[m.shape[-1]]
    dev = m[..., j, i]
    np.conjugate(dev, out=dev)
    np.subtract(m[..., i, j], dev, out=dev)
    return np.abs(dev).max(axis=-1)


def _require_hermitian(m: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Hermitian part of a matrix or a (..., d, d) stack, after checking that
    no entry of any member deviates from it by more than ``tol``."""
    dev = float(np.max(hermiticity_deviation(m), initial=0.0))
    if not dev <= tol:   # a NaN entry gives a NaN deviation
        raise ValueError(f"{what}: input is not Hermitian (max deviation {dev:.3e})")
    # symmetrize round-off so eigh sees an exactly Hermitian matrix
    return (m + m.conj().swapaxes(-1, -2)) / 2


def eigvalsh2(p: np.ndarray, q: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., 2) of the Hermitian stack [[p, o], [o*, q]], with p,
    q real and p, q, o of one shape: the determinant p q - |o|^2 over the
    larger-magnitude root tr/2 + hypot((p - q)/2, |o|), signed like the
    trace, then that root."""
    half = (p + q) / 2.0
    w = np.zeros(half.shape + (2,))
    small, big = w[..., 0], w[..., 1]
    np.add(half, np.copysign(np.hypot((p - q) / 2.0, np.abs(o)), half), out=big)
    np.divide(p * q - np.abs(o) ** 2, big, out=small, where=big != 0.0)
    return w


def exp_hermitian_generator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for h Hermitian within ``HERMITICITY_TOL``, via spectral
    decomposition; unitary to machine precision for any real ``t``."""
    w, v = np.linalg.eigh(_require_hermitian(h, HERMITICITY_TOL, "exp_hermitian_generator"))
    return (v * np.exp(-1j * w * t)) @ v.conj().T
