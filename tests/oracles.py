"""Per-collision reference code that the tests check the package against.

The package computes every stage as one array pass over a run; these
functions compute them one collision or one matrix at a time, or by the
general route the package's closed forms specialize: the propagators as
Kronecker products of the 2-qubit Hamiltonians (``local_hamiltonian``,
``heisenberg_interaction``, ``anisotropic_sm_interaction``), the Gibbs
weights as they were before their overflow limit, the allocating collision
loop and the LAPACK Cholesky certificate of its drift check, the
Pauli-trace Bloch vectors (and ``density_from_bloch`` back) and the maps
and spectra the array pass took from them, the 3x3 affine route of the
tomography (maps r -> M r + c on Bloch vectors, adjugate inverses, 4x4
superoperators and Choi matrices,
``eigvalsh`` spectra), the defining two-point KDQ expression, the
whole-matrix Hermiticity deviation, the checked ``eigh`` decomposition, and
trace norm, entropy and mutual information from ``eigvalsh`` spectra, with
the maximally entangled state they start the LFS series from. The
``stacked_eigvalsh2`` function is ``linalg.eigvalsh2`` as it assembled its
output with ``np.stack`` and took a given determinant; without one, the
preallocating one must match it bit for bit. ``replaced_sweep_point_config``
is ``cli.sweep_point_config`` as it rebuilt a grid point from the base
configuration with nested ``dataclasses.replace``.
"""

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from kdqflux import witnesses
from kdqflux.linalg import (HERMITICITY_TOL, _require_hermitian,
                            exp_hermitian_generator)
from kdqflux.model import (ANISOTROPIC, IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z,
                           thermal_state)
from kdqflux.tomography import SingularMapError, time_local_family

# Eigenvalues in [-EIG_CLIP, 0] are treated as exact zeros (round-off from
# positive-semidefinite matrices); anything below -EIG_CLIP is an error.
EIG_CLIP = 1e-10


def same_bits(a, b) -> bool:
    """Whether two arrays have one shape and dtype and the same bits, signs
    of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ------------------------------------------------------------- collisions

def local_hamiltonian(omega):
    """(omega/2) sigma_z."""
    return (omega / 2.0) * SIGMA_Z


def heisenberg_interaction(g):
    """(g/2)(XX + YY + ZZ) on two qubits; conserves total z-magnetization."""
    return (g / 2.0) * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)
                        + np.kron(SIGMA_Z, SIGMA_Z))


def anisotropic_sm_interaction(gamma, strength=1.0):
    """Anisotropic exchange (1-gamma)/2 XX + (1+gamma)/2 YY + ZZ, times
    ``strength``; for gamma != 0 it breaks excitation-number conservation."""
    return strength * ((1.0 - gamma) / 2.0 * np.kron(SIGMA_X, SIGMA_X)
                       + (1.0 + gamma) / 2.0 * np.kron(SIGMA_Y, SIGMA_Y)
                       + np.kron(SIGMA_Z, SIGMA_Z))


def kron_hamiltonians(spins, couplings):
    """The S-M and M-A Hamiltonians of ``model.collision_unitaries``, with
    every S (x) M (x) A term a Kronecker product of the 2-qubit ones above."""
    h_free = (
        np.kron(np.kron(local_hamiltonian(spins.omega_s), IDENTITY_2), IDENTITY_2)
        + np.kron(np.kron(IDENTITY_2, local_hamiltonian(spins.omega_m)), IDENTITY_2)
        + np.kron(np.kron(IDENTITY_2, IDENTITY_2), local_hamiltonian(spins.omega_a)))
    if couplings.sm_interaction_kind == ANISOTROPIC:
        strength = couplings.aniso_strength
        if strength is None:
            strength = couplings.g_sm / 2.0
        h_sm = anisotropic_sm_interaction(couplings.gamma, strength)
    else:
        h_sm = heisenberg_interaction(couplings.g_sm)
    return (h_free + np.kron(h_sm, IDENTITY_2),
            h_free + np.kron(IDENTITY_2, heisenberg_interaction(couplings.g_ma)))


def kron_collision_unitaries(spins, couplings):
    """The propagators of ``model.collision_unitaries`` from
    ``kron_hamiltonians``."""
    h_sm, h_ma = kron_hamiltonians(spins, couplings)
    return (exp_hermitian_generator(h_sm, couplings.tau1),
            exp_hermitian_generator(h_ma, couplings.tau2))


def pauli_coefficients(h):
    """The 64 coefficients Tr(P h) / 8 of an 8x8 matrix in the Pauli
    strings P on three qubits."""
    paulis = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
    return np.array([np.trace(np.kron(np.kron(p, q), r) @ h) / 8.0
                     for p in paulis for q in paulis for r in paulis])


def exp_thermal_state(spec, omega):
    """Gibbs state exp(-beta H)/Z for H = (omega/2) sigma_z as
    ``model.thermal_state`` computed it before it took the overflow limit:
    normalized ``exp`` weights, NaN once the weight of the ground level
    overflows."""
    w = np.exp(-spec.beta * np.array([omega / 2.0, -omega / 2.0]))
    w /= w.sum()
    return np.diag(w).astype(complex)


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
    unitaries = [kron_collision_unitaries(c.spins, c.couplings) for c in configs]
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
    # C-contiguous, as the loop's check blocks are: numpy sums the diagonal
    # of the transposed layout in another order, an ulp off in the trace
    return np.ascontiguousarray(np.stack(history))


def replaced_sweep_point_config(spec, value):
    """The run configuration of one grid value of a detuning or anisotropy
    sweep, replaced field by field in the spec's base configuration."""
    base = spec.base
    if spec.kind == "detuning_sweep":
        spins = dataclasses.replace(base.spins,
                                    omega_s=base.spins.omega_m + value)
        return dataclasses.replace(base, spins=spins)
    couplings = dataclasses.replace(base.couplings,
                                    sm_interaction_kind=ANISOTROPIC,
                                    gamma=value)
    return dataclasses.replace(base, couplings=couplings)


def cholesky_certified(states, shift):
    """Which members of a (..., 4, 4) stack LAPACK's Cholesky factorization
    accepts once ``shift`` is added to the diagonal, one member at a time.

    The drift check took this certificate, for a whole block at once,
    before it factorized the states in closed form.
    """
    flat = np.reshape(states, (-1, 4, 4)) + shift * np.eye(4)
    ok = np.ones(len(flat), dtype=bool)
    for i, member in enumerate(flat):
        try:
            np.linalg.cholesky(member)
        except np.linalg.LinAlgError:
            ok[i] = False
    return ok.reshape(np.shape(states)[:-2])


# ------------------------------------------------------------- tomography

def pauli_bloch_history(probes):
    """Bloch vectors Tr(sigma rho) of a (..., 2, 2) stack as one Pauli einsum."""
    pauli = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
    return np.einsum("pij,...ji->...p", pauli, probes).real


def density_from_bloch(r):
    """Density matrix (I + r . sigma)/2 of a Bloch vector."""
    r = np.asarray(r, dtype=float)
    return 0.5 * (IDENTITY_2 + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)


def bloch_phase_covariant_maps(probe_blochs):
    """(a, b, c, d) of the maps that take the probes (P0, P1, P+, PR) to
    the (..., 4, 3) Bloch vectors ``probe_blochs``, as the package read
    them off Bloch vectors: a = (1 + z(P0))/2, b = (1 + z(P1))/2,
    c = (x(P+) + y(PR) + i(x(PR) - y(P+)))/2 and
    d = (x(P+) - y(PR) - i(x(PR) + y(P+)))/2. Raises ValueError for a
    non-finite entry."""
    r = np.asarray(probe_blochs, dtype=float)
    if not np.isfinite(r).all():
        raise ValueError("probe Bloch vectors must be finite")
    x_plus, y_plus, x_r, y_r = (r[..., 2, 0], r[..., 2, 1], r[..., 3, 0],
                                r[..., 3, 1])
    maps = np.zeros(r.shape[:-1], dtype=complex)
    re, im = maps.real, maps.imag
    re[..., 0], re[..., 1] = (1.0 + r[..., 0, 2]) / 2.0, (1.0 + r[..., 1, 2]) / 2.0
    re[..., 2], im[..., 2] = (x_plus + y_r) / 2.0, (x_r - y_plus) / 2.0
    re[..., 3], im[..., 3] = (x_plus - y_r) / 2.0, -(x_r + y_plus) / 2.0
    return maps


def bloch_route(states, omega_s):
    """The map family, the witness table and the SingularMapError (or None)
    of a run from its (n+1, 5, 2, 2) states, by the route of the array pass
    before it read the maps off the states: Pauli-trace Bloch vectors,
    ``bloch_phase_covariant_maps``, and Choi spectra from
    ``stacked_eigvalsh2``, given the CP margins as the step maps' block
    determinants. The step maps are ``tomography.time_local_family``'s.
    Keys are the WitnessRecord field names."""
    family = bloch_phase_covariant_maps(pauli_bloch_history(states[:, 1:]))
    a, b, c, d = family[:, 0].real, family[:, 1].real, family[:, 2], family[:, 3]
    w = np.concatenate([stacked_eigvalsh2(a, 1.0 - b, c),
                        stacked_eigvalsh2(1.0 - a, b, d)], axis=-1) / 2.0
    marginal = np.stack([a + b, (1.0 - a) + (1.0 - b)], axis=-1) / 2.0
    delta_i = np.diff(1.0 + witnesses._entropy_from_eigs(marginal)
                      - witnesses._entropy_from_eigs(w))
    steps, error = time_local_family(family)
    n = len(steps)
    a, b, c, d = steps[:, 0].real, steps[:, 1].real, steps[:, 2], steps[:, 3]
    p0, p1 = states[:n, 0, 0, 0].real, states[:n, 0, 1, 1].real
    c_margin = a * (1.0 - b) - np.abs(c) ** 2
    d_margin = b * (1.0 - a) - np.abs(d) ** 2
    w = np.concatenate([stacked_eigvalsh2(a, 1.0 - b, c, c_margin),
                        stacked_eigvalsh2(1.0 - a, b, d, d_margin)], axis=-1)
    columns = {
        "n": np.arange(1, n + 1), "p0": p0, "p1": p1, "a": a, "b": b,
        "c": c, "d": d, "residual": np.zeros(n),
        "n_q": np.abs(a * p0) + np.abs((1.0 - a) * p0)
        + np.abs(b * p1) + np.abs((1.0 - b) * p1) - 1.0,
        "g_n": np.abs(w).sum(axis=1) / 2.0 - 1.0,
        "delta_i": delta_i[:n],
        "avg_de": omega_s * ((a - 1.0) * p0 + b * p1),
        "c_abs2_margin": c_margin, "d_abs2_margin": d_margin,
        "choi_min_eig": w.min(axis=1)}
    return family, columns, error


@dataclass(frozen=True)
class AffineBlochMap:
    """Qubit channel as r -> M r + c on Bloch vectors (M real 3x3, c real 3).

    A stack of channels has M of shape (..., 3, 3) and c of shape (..., 3).
    """

    m: np.ndarray
    c: np.ndarray


def reconstruct_affine(b) -> AffineBlochMap:
    """Affine maps from a (..., 4, 3) stack of the Bloch vectors of the
    evolved probes (P0, P1, P+, PR): the shift is the image of the identity,
    c = (r(P0) + r(P1))/2, and the matrix columns are the images of the
    Pauli operators, by the combinations that express them in the probes."""
    b0, b1, bp, br = (b[..., i, :] for i in range(4))
    c = (b0 + b1) / 2.0
    return AffineBlochMap(
        m=np.stack([bp - c, br - c, (b0 - b1) / 2.0], axis=-1), c=c)


def affine_family(states) -> AffineBlochMap:
    """Affine cumulative maps of a run from its (n+1, 5, 2, 2) states."""
    return reconstruct_affine(pauli_bloch_history(states[:, 1:]))


def det3(m):
    """Determinants of a (..., 3, 3) stack by cofactor expansion."""
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def adjugate3(m):
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


def frobenius_condition3(m):
    """Frobenius condition estimate ||M||_F ||M^-1||_F of a (..., 3, 3)
    stack, with the inverse taken by adjugate."""
    return (np.linalg.norm(m, axis=(-2, -1))
            * np.linalg.norm(adjugate3(m) / det3(m)[..., np.newaxis, np.newaxis],
                             axis=(-2, -1)))


def affine_to_superoperator(bloch_map: AffineBlochMap) -> np.ndarray:
    """4x4 superoperators on vectorized operators (rho_00, rho_01, rho_10,
    rho_11) of an affine stack: the columns are the images of the matrix
    units under Lambda[I] = I + c . sigma, Lambda[sigma_j] = sum_i M_ij
    sigma_i, each written as (p0 + pz, px - i py, px + i py, p0 - pz)."""
    m, c = bloch_map.m, bloch_map.c
    p_vecs = ((0.5, (c + m[..., 2]) / 2.0),
              (0.0, (m[..., 0] + 1j * m[..., 1]) / 2.0),
              (0.0, (m[..., 0] - 1j * m[..., 1]) / 2.0),
              (0.5, (c - m[..., 2]) / 2.0))
    cols = [np.stack((p0 + p[..., 2], p[..., 0] - 1j * p[..., 1],
                      p[..., 0] + 1j * p[..., 1], p0 - p[..., 2]), axis=-1)
            for p0, p in p_vecs]
    return np.stack(cols, axis=-1)


# Superoperator entries forced to vanish by phase covariance, as (rows, cols).
_OFF_ROWS, _OFF_COLS = np.array(
    ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))).T


def off_pattern_residual(sop):
    """Largest magnitude among the superoperator entries phase covariance
    forces to zero, including the imaginary parts of a and b; one value per
    member of a (..., 4, 4) stack."""
    return np.maximum(np.abs(sop[..., _OFF_ROWS, _OFF_COLS]).max(axis=-1),
                      np.maximum(np.abs(sop[..., 0, 0].imag),
                                 np.abs(sop[..., 0, 3].imag)))


def choi(sop):
    """Choi matrices J = sum_ij |i><j| (x) Lambda[|i><j|] of a (..., 4, 4)
    superoperator stack, ancilla index first; Tr J = 2 for TP maps."""
    sop = np.asarray(sop, dtype=complex)
    units = sop.reshape(sop.shape[:-2] + (2, 2, 2, 2))   # [..., k, l, i, j]
    return np.einsum("...klij->...ikjl", units).reshape(sop.shape)


def pattern_entries(sop):
    """(a, b, c, d) = (S[0, 0], S[0, 3], S[1, 1], S[1, 2]) of a (..., 4, 4)
    superoperator stack, as a (..., 4) stack with a, b real."""
    maps = np.asarray(sop, dtype=complex)[..., (0, 0, 1, 1), (0, 3, 1, 2)]
    maps[..., :2] = maps[..., :2].real
    return maps


def pattern_superoperator(maps):
    """The phase covariant superoperators of a (..., 4) stack (a, b, c, d)."""
    maps = np.asarray(maps, dtype=complex)
    a, b, c, d = (maps[..., i] for i in range(4))
    sop = np.zeros(maps.shape[:-1] + (4, 4), dtype=complex)
    sop[..., 0, 0], sop[..., 0, 3] = a, b
    sop[..., 3, 0], sop[..., 3, 3] = 1.0 - a, 1.0 - b
    sop[..., 1, 1], sop[..., 1, 2] = c, d
    sop[..., 2, 1], sop[..., 2, 2] = d.conj(), c.conj()
    return sop


def time_local_map(family: AffineBlochMap, n: int) -> AffineBlochMap:
    """Step-n map of a stack of cumulative maps: lambda_n composed with the
    inverse of lambda_{n-1}.

    The inverse (M~, c~) = (M^-1, -M^-1 c) of M = M_{n-1} is taken by
    explicit 3x3 adjugate; M^tl = M_n M~ and c^tl = M_n c~ + c_n. Raises
    SingularMapError at step n when |det M| < 1e-12 or the Frobenius
    condition estimate ||M||_F ||M^-1||_F exceeds 1e8.
    """
    m_prev, m_n = family.m[n - 1], family.m[n]
    det = float(det3(m_prev))
    if abs(det) < 1e-12:
        raise SingularMapError(det=det, cond=float("inf"), step=n)
    m_inv = adjugate3(m_prev) / det
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


def affine_columns(states, omega_s):
    """The witness table of a run by the 3x3 affine route, and the
    SingularMapError that stops it, if any.

    ``states`` are the run's (n+1, 5, 2, 2) system states. Every step map is
    ``time_local_map`` of the affine family, its superoperator and Choi
    matrix come from ``affine_to_superoperator`` and ``choi``, the Choi
    spectra and those of the states J_n / 2 from ``eigvalsh``, ``N_q`` from
    the superoperator entries, ``delta_i`` from ``qmi`` of each J_n / 2,
    and ``residual`` from the entries outside the phase covariant pattern.
    Keys are the WitnessRecord field names.
    """
    family = affine_family(states)
    sop_family = affine_to_superoperator(family)
    delta_i = np.diff([qmi(j) for j in choi(sop_family) / 2.0])
    sops, error = [], None
    for n in range(1, len(states)):
        try:
            sops.append(affine_to_superoperator(time_local_map(family, n)))
        except SingularMapError as exc:
            error = exc
            break
    sops = np.array(sops, dtype=complex).reshape(-1, 4, 4)
    n = len(sops)
    rho = states[:n, 0]
    r00, r01, r10, r11 = rho[:, 0, 0], rho[:, 0, 1], rho[:, 1, 0], rho[:, 1, 1]
    q = [sops[:, 0, 0] * r00 + sops[:, 0, 1] * r01,
         sops[:, 3, 0] * r00 + sops[:, 3, 1] * r01,
         sops[:, 0, 2] * r10 + sops[:, 0, 3] * r11,
         sops[:, 3, 2] * r10 + sops[:, 3, 3] * r11]
    a, b = sops[:, 0, 0].real, sops[:, 0, 3].real
    c, d = sops[:, 1, 1], sops[:, 1, 2]
    p0, p1 = r00.real, r11.real
    j_mat = choi(sops)
    w = np.linalg.eigvalsh((j_mat + j_mat.conj().swapaxes(-1, -2)) / 2)
    columns = {
        "n": np.arange(1, n + 1), "p0": p0, "p1": p1, "a": a, "b": b,
        "c": c, "d": d, "residual": off_pattern_residual(sops),
        "n_q": sum(np.abs(x) for x in q) - 1.0,
        "g_n": np.abs(w).sum(axis=1) / 2.0 - 1.0,
        "delta_i": delta_i[:n],
        "avg_de": omega_s * ((a - 1.0) * p0 + b * p1),
        "c_abs2_margin": a * (1.0 - b) - np.abs(c) ** 2,
        "d_abs2_margin": b * (1.0 - a) - np.abs(d) ** 2,
        "choi_min_eig": w[:, 0]}
    return columns, error


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


def stacked_eigvalsh2(p, q, o, det=None):
    """``linalg.eigvalsh2`` of the 2x2 Hermitian stack [[p, o], [o*, q]],
    with ``det`` (default p q - |o|^2) over the larger-magnitude root as the
    other one."""
    half = (p + q) / 2.0
    big = half + np.copysign(np.hypot((p - q) / 2.0, np.abs(o)), half)
    if det is None:
        det = p * q - np.abs(o) ** 2
    small = np.divide(det, big, out=np.zeros_like(big), where=big != 0.0)
    return np.stack([small, big], axis=-1)


def hermiticity_max(m: np.ndarray) -> np.ndarray:
    """max |m - m^H| over each whole matrix of a (..., d, d) stack."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


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


def maximally_entangled_state() -> np.ndarray:
    """Projector onto (|00> + |11>)/sqrt(2) on two qubits."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def qmi(rho_ls: np.ndarray) -> float:
    """Quantum mutual information S(rho_L) + S(rho_S) - S(rho_LS), in bits."""
    s_l = von_neumann_entropy(partial_trace(rho_ls, [2, 2], keep=[0]))
    s_s = von_neumann_entropy(partial_trace(rho_ls, [2, 2], keep=[1]))
    return s_l + s_s - von_neumann_entropy(rho_ls)
