"""Discrete-time collision dynamics of the system-memory pair.

One collision step evolves the joint S-M state with a fresh thermal
environment qubit: first the S-M propagator acts on rho_SM (x) rho_A, the
environment is traced out, then the M-A propagator acts with the same fresh
rho_A and the environment is traced out again. The joint state is carried
over between steps; environment qubits are never stored.

A single trajectory is inherently sequential, but distinct trajectories
(tomography probes, sweep points) share only immutable inputs and can run
concurrently.
"""

from dataclasses import dataclass, field

import numpy as np

from . import model
from .linalg import partial_trace

# Density-matrix invariant drift beyond this aborts a run.
DRIFT_TOL = 1e-8


class InvariantDriftError(RuntimeError):
    """A density-matrix invariant drifted beyond tolerance at collision ``step``.

    ``evolve_batch`` attaches ``trajectories``: the recorded states before
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
    positivity: float = 1e-10         # eigenvalue clipping window for states
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


# The collision step keeps its stack of k joint states in the layout
# [row, state, column], shape (4, k, 4) for S-M and (8, k, 8) with the
# environment qubit, so that each unitary product over the whole stack is a
# single 2-D matrix product.

def _with_env(rho_sm: np.ndarray, env_state: np.ndarray) -> np.ndarray:
    """rho_sm (x) env_state for every state of a (4, k, 4) stack."""
    k = rho_sm.shape[1]
    return (rho_sm[:, np.newaxis, :, :, np.newaxis]
            * env_state[:, np.newaxis, np.newaxis, :]).reshape(8, k, 8)


def _trace_env(x: np.ndarray) -> np.ndarray:
    """Partial trace over the environment qubit of a (8, k, 8) stack."""
    x = x.reshape(4, 2, -1, 4, 2)
    return x[:, 0, :, :, 0] + x[:, 1, :, :, 1]


def _conjugate(u: np.ndarray, u_dag: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(u @ x_i) @ u_dag for every state x_i of a (8, k, 8) stack."""
    k = x.shape[1]
    return ((u @ x.reshape(8, 8 * k)).reshape(8 * k, 8) @ u_dag).reshape(8, k, 8)


def _step_batch(rho_sm: np.ndarray, u_sm: np.ndarray, u_sm_dag: np.ndarray,
                u_ma: np.ndarray, u_ma_dag: np.ndarray,
                env_state: np.ndarray) -> np.ndarray:
    """One collision applied to a batch of joint states, shape (k, 4, 4)."""
    x = rho_sm.transpose(1, 0, 2)
    sm = _trace_env(_conjugate(u_sm, u_sm_dag, _with_env(x, env_state)))
    out = _trace_env(_conjugate(u_ma, u_ma_dag, _with_env(sm, env_state)))
    return out.transpose(1, 0, 2)


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


def _check_history(joint: np.ndarray, drift_tol: float) -> InvariantDriftError | None:
    """Vectorized invariant check over a (n+1, k, 4, 4) history.

    Returns the error of the first offending collision, so numerical drift
    is attributable to a step, or None when every state is valid.
    """
    k = joint.shape[1]
    flat = joint.reshape(-1, 4, 4)
    herm = np.abs(flat - flat.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    tr = np.abs(np.trace(flat, axis1=1, axis2=2) - 1.0)
    min_eig = np.linalg.eigvalsh(flat).min(axis=1)
    bad = (herm > drift_tol) | (tr > drift_tol) | (min_eig < -drift_tol)
    if bad.any():
        first = int(np.argmax(bad))
        n = first // k
        return InvariantDriftError(
            f"density-matrix invariants violated at collision {n}: "
            f"hermiticity {herm[first]:.2e}, trace {tr[first]:.2e}, "
            f"min eigenvalue {min_eig[first]:.2e}", step=n)
    return None


def evolve_batch(config: RunConfig, initial_systems: np.ndarray,
                 keep_joint: bool = False) -> list[Trajectory]:
    """Run one trajectory per initial system state, sharing all parameters.

    ``initial_systems`` has shape (k, 2, 2). All trajectories see the same
    unitaries and the same fresh thermal environment each collision. The
    invariant checks run vectorized over the recorded history; a violation
    raises InvariantDriftError with the first offending collision as
    ``step`` and the trajectories truncated before it attached.
    """
    initial_systems = np.asarray(initial_systems, dtype=complex)
    k = initial_systems.shape[0]
    u_sm, u_ma = model.collision_unitaries(config.spins, config.couplings)
    rho_m = model.thermal_state(config.thermal, config.spins.omega_m)
    rho_a = model.thermal_state(config.thermal, config.spins.omega_a)

    joint = np.empty((config.n_max + 1, k, 4, 4), dtype=complex)
    joint[0] = np.einsum("nij,kl->nikjl", initial_systems, rho_m).reshape(k, 4, 4)
    u_sm_dag, u_ma_dag = u_sm.conj().T, u_ma.conj().T
    for n in range(1, config.n_max + 1):
        joint[n] = _step_batch(joint[n - 1], u_sm, u_sm_dag, u_ma, u_ma_dag,
                               rho_a)

    error = _check_history(joint, config.tolerances.drift)
    if error is not None:
        error.trajectories = _trajectories(joint[:error.step], keep_joint)
        raise error
    return _trajectories(joint, keep_joint)


def _trajectories(joint: np.ndarray, keep_joint: bool) -> list[Trajectory]:
    """Split a (n+1, k, 4, 4) joint history into k trajectories."""
    n1, k = joint.shape[:2]
    system = np.einsum("nkaibi->nkab", joint.reshape(n1, k, 2, 2, 2, 2))
    return [Trajectory(system_states=np.ascontiguousarray(system[:, i]),
                       joint_states=np.ascontiguousarray(joint[:, i]) if keep_joint else None)
            for i in range(k)]


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
