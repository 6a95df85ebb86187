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
from .linalg import partial_trace

# Density-matrix invariant drift beyond this aborts a run.
DRIFT_TOL = 1e-8


class InvariantDriftError(RuntimeError):
    """A density-matrix invariant drifted beyond tolerance at collision ``step``.

    ``evolve_grid`` attaches ``trajectories``: the recorded states before
    that collision, so a caller can still analyze the valid prefix.
    """

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        self.trajectories: list[Trajectory] | None = None
        super().__init__(message)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the engine and the analysis chain."""

    drift: float = DRIFT_TOL          # density-matrix invariant violation -> abort
    tol_pos: float = 1e-10            # threshold for declaring N_q, g_n, dI positive
    singular_det: float = 1e-12       # |det M| below this -> singular map
    cond_threshold: float = 1e8       # condition estimate above this -> singular map


@dataclass(frozen=True)
class RunConfig:
    """Full parameter set of one collision-model run."""

    spins: model.SpinParams = field(default_factory=model.SpinParams)
    couplings: model.CouplingParams = field(default_factory=model.CouplingParams)
    thermal: model.ThermalSpec = field(default_factory=model.ThermalSpec)
    initial_system: np.ndarray = field(
        default_factory=lambda: 0.5 * np.eye(2, dtype=complex))
    n_max: int = 1000
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        rho = np.asarray(self.initial_system, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError("initial_system must be a 2x2 density matrix")
        if (np.max(np.abs(rho - rho.conj().T)) > self.tolerances.drift
                or abs(np.trace(rho) - 1.0) > self.tolerances.drift
                or np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
                < -self.tolerances.drift):
            raise ValueError("initial_system is not a valid density matrix")
        object.__setattr__(self, "initial_system", rho)


@dataclass
class Trajectory:
    """Recorded states of one run; index n = 0 is the pre-collision state."""

    system_states: np.ndarray          # (n_max + 1, 2, 2)
    joint_states: np.ndarray | None = None   # (n_max + 1, 4, 4) when kept

    def __len__(self) -> int:
        return self.system_states.shape[0]


def collision_step(rho_sm: np.ndarray, unitaries: tuple[np.ndarray, np.ndarray],
                   env_state: np.ndarray, drift_tol: float = DRIFT_TOL) -> np.ndarray:
    """Apply one full collision to the joint S-M state.

    Returns the updated 4x4 joint state after tracing out the environment
    qubit; aborts if trace, Hermiticity or positivity drift beyond
    ``drift_tol``.
    """
    u_sm, u_ma = unitaries
    x = np.kron(rho_sm, env_state)
    x = u_sm @ x @ u_sm.conj().T
    sm = partial_trace(x, [4, 2], keep=[0])
    y = np.kron(sm, env_state)
    y = u_ma @ y @ u_ma.conj().T
    out = partial_trace(y, [4, 2], keep=[0])
    _check_states(out[np.newaxis], drift_tol, collision=None)
    return out


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


def _check_states(stack: np.ndarray, drift_tol: float, collision: int | None):
    """Validate density-matrix invariants on a stack of states."""
    herm = np.max(np.abs(stack - stack.conj().transpose(0, 2, 1)))
    tr = np.max(np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0))
    min_eig = np.linalg.eigvalsh(stack).min()
    if herm > drift_tol or tr > drift_tol or min_eig < -drift_tol:
        where = "" if collision is None else f" at collision {collision}"
        raise InvariantDriftError(
            f"density-matrix invariants violated{where}: "
            f"hermiticity {herm:.2e}, trace {tr:.2e}, min eigenvalue {min_eig:.2e}",
            step=collision)


def _check_block(states: np.ndarray, start: int, drift_tol: np.ndarray,
                 errors: list) -> None:
    """Invariant check of the (m, G, k, 4, 4) joint states ``start..start+m-1``.

    ``drift_tol`` holds each point's tolerance once per state, shape (G * k,).
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
                flat + (drift_tol - CHOLESKY_MARGIN)[:, None, None] * np.eye(4))
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


def evolve_grid(configs, initial_systems: np.ndarray, keep_joint: bool = False
                ) -> list[list[Trajectory] | InvariantDriftError]:
    """Evolve the same initial states under every configuration at once.

    ``initial_systems`` has shape (k, 2, 2); the configurations must share
    ``n_max``. Within a configuration all k trajectories see the same
    unitaries and the same fresh thermal environment each collision. The G
    points are stepped together as one (G, 4, k, 4) stack, with the same
    floating-point arithmetic per point as a run of that point alone.

    Returns one entry per configuration: its k trajectories, or the
    InvariantDriftError of its first collision whose joint state left the
    density-matrix invariants, with ``step`` and the trajectories truncated
    before that collision attached. A drifting point does not affect the
    others.
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
    drift_tol = np.repeat([c.tolerances.drift for c in configs], k)

    n1 = n_max + 1
    system = np.empty((n1, g, k, 2, 2), dtype=complex)
    joint = np.empty((n1, g, k, 4, 4), dtype=complex) if keep_joint else None
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
            if keep_joint:
                joint[start:n + 1] = states
            _check_block(states, start, drift_tol, errors)

    outcomes = []
    for p, error in enumerate(errors):
        stop = n1 if error is None else error.step
        trajectories = [
            Trajectory(system_states=system[:stop, p, i],
                       joint_states=joint[:stop, p, i] if keep_joint else None)
            for i in range(k)]
        if error is None:
            outcomes.append(trajectories)
        else:
            error.trajectories = trajectories
            outcomes.append(error)
    return outcomes


def evolve_batch(config: RunConfig, initial_systems: np.ndarray,
                 keep_joint: bool = False) -> list[Trajectory]:
    """Run one trajectory per initial system state, sharing all parameters.

    ``initial_systems`` has shape (k, 2, 2). This is ``evolve_grid`` of one
    point: a violation raises its InvariantDriftError, with the first
    offending collision as ``step`` and the trajectories truncated before it
    attached.
    """
    (outcome,) = evolve_grid([config], initial_systems, keep_joint)
    if isinstance(outcome, InvariantDriftError):
        raise outcome
    return outcome


def run_trajectory(config: RunConfig, keep_joint: bool = False) -> Trajectory:
    """Evolve ``config.initial_system`` for ``config.n_max`` collisions."""
    return evolve_batch(config, config.initial_system[np.newaxis],
                        keep_joint=keep_joint)[0]


def run_probe_bundle(config: RunConfig) -> tuple[Trajectory, Trajectory,
                                                 Trajectory, Trajectory]:
    """Trajectories of the four tomography probes under ``config``'s dynamics.

    The probes replace the initial system state; memory and environment
    initialization and all parameters are identical across the four runs.
    """
    probes = np.stack(model.probe_states())
    t0, t1, tp, tr = evolve_batch(config, probes)
    return t0, t1, tp, tr
