"""Dense complex linear algebra for small Hilbert spaces (dimensions 2-16).

Everything operates on plain numpy complex arrays. All functions are pure and
hold no global state, so they are safe to call from concurrent workers.
Hermitian decompositions are delegated to LAPACK via ``numpy.linalg.eigh``,
which returns eigenvalues in ascending order. Stacks of 2x2 Hermitian
matrices, and 4x4 ones made of two 2x2 blocks (the Choi matrices of
phase-covariant qubit maps), get their eigenvalues in closed form instead.
"""

from typing import NamedTuple, Sequence

import numpy as np

# Absolute, max-entry tolerance for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-10

# Largest cross-block entry with which ``block_eigvalsh`` still uses the two
# 2x2 blocks; by Weyl's bound, dropping such entries moves no eigenvalue by
# more than twice this.
BLOCK_TOL = 1e-15

# Eigenvalues in [-EIG_CLIP, 0] are treated as exact zeros (round-off from
# positive-semidefinite matrices); anything below -EIG_CLIP is an error.
EIG_CLIP = 1e-10


class HermitianEigen(NamedTuple):
    """Spectral decomposition A = V diag(w) V^dag with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns are orthonormal eigenvectors


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True if max |m - m^dag| entry is within ``tol``."""
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unit_trace(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True if |Tr m - 1| is within ``tol``."""
    return bool(abs(np.trace(m) - 1.0) <= tol)


def is_psd(m: np.ndarray, tol: float = EIG_CLIP) -> bool:
    """True if all eigenvalues of the Hermitian part exceed ``-tol``."""
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(w.min() >= -tol)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(a, b)


def partial_trace(m: np.ndarray, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    Args:
        m: square matrix on the tensor product of the subsystems.
        dims: dimension of each subsystem, in tensor order.
        keep: indices (into ``dims``) of the subsystems to retain; the
            reduced matrix keeps them in their original relative order.

    Returns:
        The reduced matrix on the kept subsystems (a 1x1 matrix holding the
        full trace when ``keep`` is empty).
    """
    dims = list(dims)
    d = int(np.prod(dims))
    if m.shape != (d, d):
        raise ValueError(
            f"matrix shape {m.shape} does not match subsystem dims {dims}")
    keep = sorted(set(keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    out = m.reshape(dims + dims)
    nsub = len(dims)
    for ax in reversed([i for i in range(len(dims)) if i not in keep]):
        out = np.trace(out, axis1=ax, axis2=ax + nsub)
        nsub -= 1
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return out.reshape(d_keep, d_keep)


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


def hermitian_eig(m: np.ndarray, tol: float = HERMITICITY_TOL) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    h = _require_hermitian(m, tol, "hermitian_eig")
    w, v = np.linalg.eigh(h)
    return HermitianEigen(eigenvalues=w, eigenvectors=v)


def exp_hermitian_generator(h: np.ndarray, t: float,
                            tol: float = HERMITICITY_TOL) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via spectral decomposition.

    The result is unitary to machine precision for any real ``t``.
    """
    w, v = hermitian_eig(h, tol=tol)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def trace_norm(m: np.ndarray, tol: float = HERMITICITY_TOL) -> float:
    """Sum of absolute eigenvalues (trace norm of a Hermitian matrix)."""
    h = _require_hermitian(m, tol, "trace_norm")
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def von_neumann_entropy(rho: np.ndarray, tol: float = HERMITICITY_TOL) -> float:
    """Von Neumann entropy -Tr[rho log2 rho] in bits, with 0 log 0 = 0.

    ``rho`` must be Hermitian with unit trace; eigenvalues in
    ``[-EIG_CLIP, 0]`` are clipped to zero, anything lower raises.
    """
    h = _require_hermitian(rho, tol, "von_neumann_entropy")
    if not is_unit_trace(h):
        raise ValueError(f"von_neumann_entropy: trace is {np.trace(h):.6g}, expected 1")
    w = np.linalg.eigvalsh(h)
    if w.min() < -EIG_CLIP:
        raise ValueError(
            f"von_neumann_entropy: eigenvalue {w.min():.3e} below -{EIG_CLIP:g}; "
            "input is not a valid state")
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))
