"""Process tomography of the reduced qubit dynamics.

The cumulative maps are reconstructed as affine transformations of Bloch
vectors, r_n = M_n r_0 + c_n, from the trajectories of the four probe states
P0, P1, P+, PR. Inverses and single-step (time-local) compositions follow by
3x3 algebra; conversion to the superoperator representation uses the
matrix-element basis (rho_00, rho_01, rho_10, rho_11), in which a phase
covariant channel has the sparse pattern

    [[a, 0,  0,  b ],
     [0, c,  d,  0 ],
     [0, d*, c*, 0 ],
     [1-a, 0, 0, 1-b]]

with d = 0 unless the interaction breaks excitation-number conservation.

An AffineBlochMap may hold a stack of maps, M of shape (..., 3, 3) and c of
shape (..., 3); ``reconstruct_affine``, ``time_local_family``,
``affine_to_superoperator`` and ``choi`` act on every member at once, so a
whole run is converted in a few array operations.
"""

from dataclasses import dataclass

import numpy as np

from .model import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# A predecessor map with |det M| below SINGULAR_DET, or a Frobenius condition
# estimate ||M||_F ||M^-1||_F above COND_THRESHOLD, cannot be inverted.
SINGULAR_DET = 1e-12
COND_THRESHOLD = 1e8

# Superoperator entries forced to vanish by phase covariance, as (rows, cols).
_OFF_ROWS, _OFF_COLS = np.array(
    ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))).T


class SingularMapError(RuntimeError):
    """A reconstructed map is not invertible; trajectory analysis halts."""

    def __init__(self, det: float, cond: float, step: int):
        self.det = det
        self.cond = cond
        self.step = step
        super().__init__(
            f"singular Bloch map at step {step}: |det M| = {abs(det):.3e}, "
            f"condition estimate {cond:.3e}")


@dataclass(frozen=True)
class AffineBlochMap:
    """Qubit channel as r -> M r + c on Bloch vectors (M real 3x3, c real 3).

    A stack of channels has M of shape (..., 3, 3) and c of shape (..., 3).
    """

    m: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.m.shape[-2:] != (3, 3) or self.c.shape != self.m.shape[:-1]:
            raise ValueError("AffineBlochMap needs 3x3 matrices and matching 3-vectors")
        if not (np.all(np.isfinite(self.m)) and np.all(np.isfinite(self.c))):
            raise ValueError("AffineBlochMap entries must be finite")


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (Tr[sigma_x rho], Tr[sigma_y rho], Tr[sigma_z rho])."""
    return np.array([np.trace(p @ rho).real for p in _PAULIS])


def density_from_bloch(r: np.ndarray) -> np.ndarray:
    """Density matrix (I + r . sigma)/2."""
    r = np.asarray(r, dtype=float)
    return 0.5 * (IDENTITY_2 + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)


def reconstruct_affine(probe_blochs_at_n: np.ndarray) -> AffineBlochMap:
    """Affine map from the evolved Bloch vectors of the four probes.

    ``probe_blochs_at_n`` holds the step-n Bloch vectors of (P0, P1, P+, PR)
    as rows, shape (4, 3), or a stack of them, shape (..., 4, 3), which gives
    a stack of maps. The shift comes from the image of the identity,
    c = (r(P0) + r(P1))/2, and the matrix columns from the images of the
    Pauli operators obtained by the same linear combinations that express
    sigma_x, sigma_y, sigma_z in terms of the probes.
    """
    b = np.asarray(probe_blochs_at_n, dtype=float)
    if b.shape[-2:] != (4, 3):
        raise ValueError("expected four Bloch vectors as a (..., 4, 3) array")
    b0, b1, bp, br = (b[..., i, :] for i in range(4))
    c = (b0 + b1) / 2.0
    m = np.stack([bp - c, br - c, (b0 - b1) / 2.0], axis=-1)
    return AffineBlochMap(m=m, c=c)


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinants of a (..., 3, 3) stack by cofactor expansion."""
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def _adjugate3(m: np.ndarray) -> np.ndarray:
    """Adjugates of a (..., 3, 3) stack."""
    rows = (
        (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1],
         m[..., 0, 2] * m[..., 2, 1] - m[..., 0, 1] * m[..., 2, 2],
         m[..., 0, 1] * m[..., 1, 2] - m[..., 0, 2] * m[..., 1, 1]),
        (m[..., 1, 2] * m[..., 2, 0] - m[..., 1, 0] * m[..., 2, 2],
         m[..., 0, 0] * m[..., 2, 2] - m[..., 0, 2] * m[..., 2, 0],
         m[..., 0, 2] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 2]),
        (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0],
         m[..., 0, 1] * m[..., 2, 0] - m[..., 0, 0] * m[..., 2, 1],
         m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]),
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def time_local_family(family: AffineBlochMap
                      ) -> tuple[AffineBlochMap, SingularMapError | None]:
    """Single-step maps of a whole cumulative family in one array pass.

    ``family`` is the one-dimensional stack (M_n, c_n), n = 0..N. Member
    n - 1 of the returned stack is the step-n map, lambda_n composed with
    the inverse of lambda_{n-1}: M_n M~_{n-1} with shift M_n c~_{n-1} + c_n,
    where (M~, c~) = (M^-1, -M^-1 c) is the inverse map, taken by explicit
    3x3 adjugate. A predecessor is singular when |det M| < ``SINGULAR_DET``
    or its Frobenius condition estimate exceeds ``COND_THRESHOLD``. The
    stack stops before the first step whose predecessor is singular, and the
    SingularMapError of that step is returned with it; the error is None
    when all N steps exist.
    """
    m_prev, c_prev = family.m[:-1], family.c[:-1]
    det = _det3(m_prev)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_inv = _adjugate3(m_prev) / det[:, np.newaxis, np.newaxis]
        cond = (np.linalg.norm(m_prev, axis=(1, 2))
                * np.linalg.norm(m_inv, axis=(1, 2)))
    small = np.abs(det) < SINGULAR_DET
    bad = small | (cond > COND_THRESHOLD)
    error = None
    steps = len(det)
    if bad.any():
        steps = int(np.argmax(bad))
        error = SingularMapError(
            det=float(det[steps]),
            cond=float("inf") if small[steps] else float(cond[steps]),
            step=steps + 1)
    m_inv, c_prev = m_inv[:steps], c_prev[:steps]
    m_next, c_next = family.m[1:steps + 1], family.c[1:steps + 1]
    c_inv = (-m_inv @ c_prev[:, :, np.newaxis])[:, :, 0]
    return (AffineBlochMap(m=m_next @ m_inv,
                           c=(m_next @ c_inv[:, :, np.newaxis])[:, :, 0] + c_next),
            error)


def affine_to_superoperator(bloch_map: AffineBlochMap) -> np.ndarray:
    """4x4 superoperator on vectorized operators (rho_00, rho_01, rho_10, rho_11).

    The affine data fixes the images of the identity and the Paulis,
    Lambda[I] = I + c . sigma and Lambda[sigma_j] = sum_i M_ij sigma_i; any
    2x2 operator is mapped by linear extension, which makes the result
    trace-preserving and Hermiticity-preserving by construction. Each column
    below is the image of a matrix unit, written out as the vectorized form
    of p0 I + p . sigma, namely (p0 + pz, px - i py, px + i py, p0 - pz).
    A stack of maps gives a (..., 4, 4) stack of superoperators.
    """
    m, c = bloch_map.m, bloch_map.c
    # E_00 -> (I + c.sigma + sum_i M_iz sigma_i) / 2, and so on
    p_vecs = ((0.5, (c + m[..., 2]) / 2.0),    # E_00
              (0.0, (m[..., 0] + 1j * m[..., 1]) / 2.0),   # E_01
              (0.0, (m[..., 0] - 1j * m[..., 1]) / 2.0),   # E_10
              (0.5, (c - m[..., 2]) / 2.0))    # E_11
    cols = [np.stack((p0 + p[..., 2], p[..., 0] - 1j * p[..., 1],
                      p[..., 0] + 1j * p[..., 1], p0 - p[..., 2]), axis=-1)
            for p0, p in p_vecs]
    return np.stack(cols, axis=-1)


def _off_pattern_residual(sop: np.ndarray) -> np.ndarray:
    """Largest magnitude among the entries phase covariance forces to zero,
    including the imaginary parts of a and b; one value per member of a
    (..., 4, 4) stack."""
    return np.maximum(np.abs(sop[..., _OFF_ROWS, _OFF_COLS]).max(axis=-1),
                      np.maximum(np.abs(sop[..., 0, 0].imag),
                                 np.abs(sop[..., 0, 3].imag)))


def choi(sop: np.ndarray) -> np.ndarray:
    """Choi matrix J = sum_ij |i><j| (x) Lambda[|i><j|]; Tr J = 2 for TP maps.

    The ancilla index comes first, so block (i, j) of J is the image of the
    matrix unit |i><j| under the channel. A (..., 4, 4) stack of
    superoperators gives the stack of their Choi matrices.
    """
    sop = np.asarray(sop, dtype=complex)
    units = sop.reshape(sop.shape[:-2] + (2, 2, 2, 2))   # [..., k, l, i, j]
    return np.einsum("...klij->...ikjl", units).reshape(sop.shape)

