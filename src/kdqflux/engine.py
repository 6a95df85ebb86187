"""Discrete-time collision dynamics of the system-memory pair.

One collision step evolves the joint S-M state with a fresh thermal
environment qubit: first the S-M propagator acts on rho_SM (x) rho_A, the
environment is traced out, then the M-A propagator acts with the same fresh
rho_A and the environment is traced out again. The joint state is carried
over between steps; environment qubits are never stored. rho_A is a diagonal
Gibbs state, so only the two diagonal blocks of rho_SM (x) rho_A are formed.

A single trajectory is inherently sequential, but distinct trajectories
(tomography probes, sweep points) share only immutable inputs, so they are
stepped together as one stack.
"""

import contextlib
from dataclasses import dataclass, field

import numpy as np

from . import model

# Density-matrix invariant drift beyond this aborts a run.
DRIFT_TOL = 1e-8


class InvariantDriftError(RuntimeError):
    """A density-matrix invariant drifted beyond tolerance at collision ``step``."""

    def __init__(self, message: str, step: int):
        self.step = step
        super().__init__(message)


@dataclass(frozen=True)
class RunConfig:
    """Full parameter set of one collision-model run."""

    spins: model.SpinParams = field(default_factory=model.SpinParams)
    couplings: model.CouplingParams = field(default_factory=model.CouplingParams)
    thermal: model.ThermalSpec = field(default_factory=model.ThermalSpec)
    initial_system: np.ndarray = field(
        default_factory=lambda: 0.5 * np.eye(2, dtype=complex))
    n_max: int = 1000

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        rho = np.asarray(self.initial_system, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError("initial_system must be a 2x2 density matrix")
        if not np.isfinite(rho).all():
            # every comparison below is False for a NaN entry
            raise ValueError("initial_system entries must be finite")
        if (np.max(np.abs(rho - rho.conj().T)) > DRIFT_TOL
                or abs(np.trace(rho) - 1.0) > DRIFT_TOL
                or np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
                < -DRIFT_TOL):
            raise ValueError("initial_system is not a valid density matrix")
        object.__setattr__(self, "initial_system", rho)


# The collision loop keeps its stack of G x k joint states in the layout
# [point, row, state, column], shape (G, 4, k, 4) for S-M and (G, 8, k, 8)
# with the environment qubit, so that each unitary product is one 2-D matrix
# product per grid point: a point's arithmetic does not depend on G.

# Joint states are checked for invariant drift in blocks of this many
# collisions, so the check never holds the whole joint history.
CHECK_BLOCK = 64

# The drift check's Cholesky shift stays this far below the tolerance, well
# above the few 1e-16 of rounding in Cholesky and eigvalsh of a 4x4 state.
CHOLESKY_MARGIN = 1e-14


def _check_block(states: np.ndarray, start: int, drift_tol: float,
                 errors: list) -> None:
    """Invariant check of the (m, G, k, 4, 4) joint states ``start..start+m-1``.

    Sets ``errors[g]`` to the error of point g's first offending collision,
    unless an earlier block already did. A state with a non-finite entry
    (from overflowing inputs) makes ``herm`` non-finite and is an offending
    one, so it fails only its own point.
    """
    m, g, k = states.shape[:3]
    flat = states.reshape(m, g * k, 4, 4)
    herm = np.abs(flat - flat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = np.abs(np.trace(flat, axis1=-2, axis2=-1) - 1.0)
    finite = np.isfinite(herm)
    if finite.all() and (herm <= drift_tol).all() and (tr <= drift_tol).all():
        # a stack that still has a Cholesky factor when shifted by
        # drift_tol - CHOLESKY_MARGIN has no eigenvalue below -drift_tol;
        # only a failed factorization needs the eigenvalues
        with contextlib.suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(
                flat + (drift_tol - CHOLESKY_MARGIN) * np.eye(4))
            return
    # eigvalsh rejects non-finite matrices: those states get a zero matrix
    # and report a nan minimum eigenvalue
    safe = flat if finite.all() else np.where(finite[..., None, None], flat, 0)
    min_eig = np.where(finite, np.linalg.eigvalsh(safe).min(axis=-1), np.nan)
    bad = ~finite | (herm > drift_tol) | (tr > drift_tol) | (min_eig < -drift_tol)
    if not bad.any():
        return
    bad = bad.reshape(m, g, k)
    for p in np.flatnonzero(bad.any(axis=(0, 2))):
        if errors[p] is None:
            n, i = divmod(int(np.argmax(bad[:, p])), k)
            j = (n, p * k + i)
            errors[p] = InvariantDriftError(
                f"density-matrix invariants violated at collision {start + n}: "
                f"hermiticity {herm[j]:.2e}, trace {tr[j]:.2e}, "
                f"min eigenvalue {min_eig[j]:.2e}", step=start + n)


def evolve_grid(configs, initial_systems: np.ndarray
                ) -> tuple[np.ndarray, list[InvariantDriftError | None]]:
    """Evolve the same initial states under every configuration at once.

    ``initial_systems`` has shape (k, 2, 2); the configurations must share
    ``n_max``. Within a configuration all k trajectories see the same
    unitaries and the same fresh thermal environment each collision. The G
    points are stepped together as one (G, 4, k, 4) stack, with the same
    floating-point arithmetic per point as a run of that point alone.

    Returns the (n_max + 1, G, k, 2, 2) system states, index n = 0 being the
    initial ones, and one entry per configuration: None, or the
    InvariantDriftError of its first collision whose joint state left the
    density-matrix invariants (``DRIFT_TOL``). A drifting point does not
    affect the others; its states from ``step`` on are not valid.
    """
    configs = list(configs)
    n_max = configs[0].n_max
    if any(c.n_max != n_max for c in configs):
        raise ValueError("grid configurations must share n_max")
    initial_systems = np.asarray(initial_systems, dtype=complex)
    g, k = len(configs), initial_systems.shape[0]

    unitaries = [model.collision_unitaries(c.spins, c.couplings) for c in configs]
    u_sm = np.stack([u for u, _ in unitaries])
    u_ma = np.stack([u for _, u in unitaries])
    u_sm_dag = u_sm.conj().transpose(0, 2, 1)
    u_ma_dag = u_ma.conj().transpose(0, 2, 1)
    rho_m = np.stack([model.thermal_state(c.thermal, c.spins.omega_m)
                      for c in configs])
    rho_a = np.stack([model.thermal_state(c.thermal, c.spins.omega_a)
                      for c in configs])

    n1 = n_max + 1
    system = np.empty((n1, g, k, 2, 2), dtype=complex)
    block = np.empty((min(CHECK_BLOCK, n1), g, k, 4, 4), dtype=complex)
    errors: list[InvariantDriftError | None] = [None] * g

    # buffers written through fixed views: x, x (x) rho_A, u @ (x (x) rho_A)
    # and its product with u_dag, whose environment trace goes back into x
    x = np.empty((g, 4, k, 4), dtype=complex)
    np.einsum("kij,gab->giakjb", initial_systems, rho_m,
              out=x.reshape(g, 2, 2, k, 2, 2))
    # rho_A is diagonal (model.thermal_state), so the blocks of x (x) rho_A
    # off its diagonal stay zero and only the two diagonal ones are written,
    # through the diagonal view of xe
    xe = np.zeros((g, 4, 2, k, 4, 2), dtype=complex)
    xe_diag = np.einsum("giasja->giasj", xe)
    x_env = x[:, :, np.newaxis]
    p_a = rho_a.diagonal(0, 1, 2)[:, np.newaxis, :, np.newaxis, np.newaxis]
    y = np.empty((g, 8, 8 * k), dtype=complex)
    z = np.empty((g, 8 * k, 8), dtype=complex)
    xe_flat, y_r = xe.reshape(g, 8, 8 * k), y.reshape(g, 8 * k, 8)
    z6 = z.reshape(g, 4, 2, k, 4, 2)
    z00, z11 = z6[:, :, 0, :, :, 0], z6[:, :, 1, :, :, 1]
    x_t = x.transpose(0, 2, 1, 3)
    for n in range(n1):
        if n:
            for u, u_dag in ((u_sm, u_sm_dag), (u_ma, u_ma_dag)):
                np.multiply(x_env, p_a, out=xe_diag)
                np.matmul(u, xe_flat, out=y)
                np.matmul(y_r, u_dag, out=z)
                np.add(z00, z11, out=x)
        j = n % CHECK_BLOCK
        block[j] = x_t
        if j == CHECK_BLOCK - 1 or n == n_max:
            states, start = block[:j + 1], n - j
            system[start:n + 1] = np.einsum(
                "ngkaibi->ngkab", states.reshape(j + 1, g, k, 2, 2, 2, 2))
            _check_block(states, start, DRIFT_TOL, errors)
    return system, errors
