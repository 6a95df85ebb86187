"""Per-collision reference code that the tests check the package against.

The package computes every stage as one array pass over a run; these
functions compute them one collision or one matrix at a time: the
allocating collision loop, the adjugate time-local map, the defining
two-point KDQ expression, the checked ``eigh`` decomposition, and trace
norm, entropy and mutual information from ``eigvalsh`` spectra.
"""

from typing import Sequence

import numpy as np

from kdqflux.linalg import HERMITICITY_TOL, _require_hermitian
from kdqflux.model import collision_unitaries, thermal_state
from kdqflux.tomography import (AffineBlochMap, SingularMapError, _adjugate3,
                                _det3)

# Eigenvalues in [-EIG_CLIP, 0] are treated as exact zeros (round-off from
# positive-semidefinite matrices); anything below -EIG_CLIP is an error.
EIG_CLIP = 1e-10


# ------------------------------------------------------------- collisions

def _half_step(x, u, u_dag, env):
    """One half-collision on a (G, 4, k, 4) stack, allocating every array.

    Broadcast Kronecker product with the environment state, (u @ x) @ u_dag
    through the same reshapes, and the two-slice partial trace.
    """
    g, _, k, _ = x.shape
    x = (x[:, :, np.newaxis, :, :, np.newaxis]
         * env[:, np.newaxis, :, np.newaxis, np.newaxis, :]).reshape(g, 8, k, 8)
    x = ((u @ x.reshape(g, 8, 8 * k)).reshape(g, 8 * k, 8)
         @ u_dag).reshape(g, 4, 2, k, 4, 2)
    return x[:, :, 0, :, :, 0] + x[:, :, 1, :, :, 1]


def joint_history(configs, states, n_max):
    """Joint states (n_max + 1, G, k, 4, 4) of the allocating collision loop."""
    unitaries = [collision_unitaries(c.spins, c.couplings) for c in configs]
    u_sm = np.stack([u for u, _ in unitaries])
    u_ma = np.stack([u for _, u in unitaries])
    rho_m = np.stack([thermal_state(c.thermal, c.spins.omega_m) for c in configs])
    rho_a = np.stack([thermal_state(c.thermal, c.spins.omega_a) for c in configs])
    g, k = len(configs), len(states)
    x = np.einsum("kij,gab->giakjb", states, rho_m).reshape(g, 4, k, 4)
    history = [x.transpose(0, 2, 1, 3)]
    for _ in range(n_max):
        for u in (u_sm, u_ma):
            x = _half_step(x, u, u.conj().transpose(0, 2, 1), rho_a)
        history.append(x.transpose(0, 2, 1, 3))
    return np.stack(history)


# ------------------------------------------------------------- tomography

def time_local_map(family: AffineBlochMap, n: int) -> AffineBlochMap:
    """Step-n map of a stack of cumulative maps: lambda_n composed with the
    inverse of lambda_{n-1}.

    The inverse (M~, c~) = (M^-1, -M^-1 c) of M = M_{n-1} is taken by
    explicit 3x3 adjugate; M^tl = M_n M~ and c^tl = M_n c~ + c_n. Raises
    SingularMapError at step n when |det M| < 1e-12 or the Frobenius
    condition estimate ||M||_F ||M^-1||_F exceeds 1e8.
    """
    m_prev, m_n = family.m[n - 1], family.m[n]
    det = float(_det3(m_prev))
    if abs(det) < 1e-12:
        raise SingularMapError(det=det, cond=float("inf"), step=n)
    m_inv = _adjugate3(m_prev) / det
    cond = float(np.linalg.norm(m_prev) * np.linalg.norm(m_inv))
    if cond > 1e8:
        raise SingularMapError(det=det, cond=cond, step=n)
    return AffineBlochMap(m=m_n @ m_inv,
                          c=m_n @ (-m_inv @ family.c[n - 1]) + family.c[n])


def apply_superoperator(sop: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """Action of a superoperator on a 2x2 operator."""
    return (sop @ operator.reshape(4)).reshape(2, 2)


# -------------------------------------------------------------- witnesses

def kdq_general(sop: np.ndarray, rho_pre: np.ndarray) -> np.ndarray:
    """q[in, fin] = Tr[Pi_fin Lambda[Pi_in rho]] for the given superoperator.

    This is the defining two-point expression; it keeps the coherences of
    ``rho_pre`` in the first slot, so the values may be negative or complex.
    """
    # energy eigenstates of (omega_s/2) sigma_z: outcome 0 is |0>, at +omega_s/2
    pi = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    q = np.empty((2, 2), dtype=complex)
    for i_in in range(2):
        evolved = apply_superoperator(sop, pi[i_in] @ rho_pre)
        for i_fin in range(2):
            q[i_in, i_fin] = np.trace(pi[i_fin] @ evolved)
    return q


# ----------------------------------------------------------------- linalg

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


def hermitian_eig(m: np.ndarray, tol: float = HERMITICITY_TOL):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    return np.linalg.eigh(_require_hermitian(m, tol, "hermitian_eig"))


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
    if abs(np.trace(h) - 1.0) > 1e-10:
        raise ValueError(f"von_neumann_entropy: trace is {np.trace(h):.6g}, expected 1")
    w = np.linalg.eigvalsh(h)
    if w.min() < -EIG_CLIP:
        raise ValueError(
            f"von_neumann_entropy: eigenvalue {w.min():.3e} below -{EIG_CLIP:g}; "
            "input is not a valid state")
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def qmi(rho_ls: np.ndarray) -> float:
    """Quantum mutual information S(rho_L) + S(rho_S) - S(rho_LS), in bits."""
    s_l = von_neumann_entropy(partial_trace(rho_ls, [2, 2], keep=[0]))
    s_s = von_neumann_entropy(partial_trace(rho_ls, [2, 2], keep=[1]))
    return s_l + s_s - von_neumann_entropy(rho_ls)
