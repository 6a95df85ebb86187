import numpy as np
import pytest

from kdqflux.engine import (CHECK_BLOCK, DRIFT_TOL, InvariantDriftError,
                            RunConfig, Tolerances, _check_block, collision_step,
                            evolve_batch, evolve_grid, run_probe_bundle,
                            run_trajectory)
from kdqflux.linalg import kron, partial_trace
from kdqflux.model import (ANISOTROPIC, CouplingParams, SpinParams,
                           ThermalSpec, collision_unitaries, local_hamiltonian,
                           probe_states, thermal_state)

I2 = np.eye(2, dtype=complex)
SWAP_TAU1 = np.pi / (2 * 0.2)   # g_sm * tau1 = pi/2, full S-M swap


def fig1_config(**kwargs) -> RunConfig:
    return RunConfig(**kwargs)


# ------------------------------------------------------------ single steps

def test_collision_step_identity_unitaries():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    env = thermal_state(ThermalSpec(), 1.0)
    out = collision_step(rho, (np.eye(8, dtype=complex), np.eye(8, dtype=complex)), env)
    assert np.allclose(out, rho, atol=1e-13)


def test_collision_step_preserves_energy_when_resonant():
    # brute-force the 8x8 state before/after the S-M unitary
    config = fig1_config()
    u_sm, _ = collision_unitaries(config.spins, config.couplings)
    h0 = (kron(kron(local_hamiltonian(1.0), I2), I2)
          + kron(kron(I2, local_hamiltonian(1.0)), I2)
          + kron(kron(I2, I2), local_hamiltonian(1.0)))
    rho_m = thermal_state(config.thermal, 1.0)
    rho_sma = kron(kron(config.initial_system, rho_m), rho_m)
    evolved = u_sm @ rho_sma @ u_sm.conj().T
    e_before = np.trace(h0 @ rho_sma).real
    e_after = np.trace(h0 @ evolved).real
    assert abs(e_after - e_before) <= 1e-10


def test_collision_step_invariants_enforced():
    env = thermal_state(ThermalSpec(), 1.0)
    bad = np.diag([1.5, -0.5, 0, 0]).astype(complex)   # not PSD
    with pytest.raises(RuntimeError):
        collision_step(bad, (np.eye(8, dtype=complex),) * 2, env)


def test_total_energy_conserved_through_both_unitaries_resonant():
    config = fig1_config()
    u_sm, u_ma = collision_unitaries(config.spins, config.couplings)
    h0 = (kron(kron(local_hamiltonian(1.0), I2), I2)
          + kron(kron(I2, local_hamiltonian(1.0)), I2)
          + kron(kron(I2, I2), local_hamiltonian(1.0)))
    rho_a = thermal_state(config.thermal, 1.0)
    rho_sm = kron(config.initial_system, thermal_state(config.thermal, 1.0))
    for _ in range(5):
        x = kron(rho_sm, rho_a)
        e_in = np.trace(h0 @ x).real
        x = u_sm @ x @ u_sm.conj().T
        assert abs(np.trace(h0 @ x).real - e_in) <= 1e-10
        y = kron(partial_trace(x, [4, 2], keep=[0]), rho_a)
        e_mid = np.trace(h0 @ y).real
        y = u_ma @ y @ u_ma.conj().T
        assert abs(np.trace(h0 @ y).real - e_mid) <= 1e-10
        rho_sm = partial_trace(y, [4, 2], keep=[0])


# ------------------------------------------------------------ trajectories

def test_run_trajectory_zero_collisions():
    traj = run_trajectory(fig1_config(n_max=0))
    assert len(traj) == 1
    assert np.allclose(traj.system_states[0], I2 / 2, atol=1e-14)


def test_run_trajectory_unit_traces():
    traj = run_trajectory(fig1_config(n_max=50))
    traces = np.trace(traj.system_states, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) <= 1e-12


def test_run_trajectory_populations_drift_to_thermal_before_window():
    # cooling from I/2: the ground population grows monotonically until the
    # anomalous window opens at collision ~40
    traj = run_trajectory(fig1_config(n_max=45))
    p1 = traj.system_states[:, 1, 1].real
    assert np.all(np.diff(p1[:40]) > 0)
    assert p1[39] < np.e / (1 + np.e)


def test_run_trajectory_joint_states_kept_on_request():
    traj = run_trajectory(fig1_config(n_max=3), keep_joint=True)
    assert traj.joint_states.shape == (4, 4, 4)
    reduced = partial_trace(traj.joint_states[2], [2, 2], keep=[0])
    assert np.allclose(reduced, traj.system_states[2], atol=1e-13)


def test_run_trajectory_deterministic():
    a = run_trajectory(fig1_config(n_max=40))
    b = run_trajectory(fig1_config(n_max=40))
    assert np.array_equal(a.system_states, b.system_states)


def test_evolve_batch_matches_sequential_steps():
    config = fig1_config(n_max=25)
    traj = run_trajectory(config, keep_joint=True)
    u = collision_unitaries(config.spins, config.couplings)
    env = thermal_state(config.thermal, 1.0)
    rho = kron(config.initial_system, thermal_state(config.thermal, 1.0))
    for n in range(1, 26):
        rho = collision_step(rho, u, env)
        assert np.max(np.abs(rho - traj.joint_states[n])) <= 1e-13


# ------------------------------------------------------------ grid stacks

GRID_N_MAX = 2 * CHECK_BLOCK + 20   # three invariant-check blocks
GRID = [
    RunConfig(n_max=GRID_N_MAX),
    RunConfig(spins=SpinParams(omega_s=0.8, omega_m=1.1, omega_a=0.9),
              n_max=GRID_N_MAX),
    RunConfig(couplings=CouplingParams(g_sm=0.3, g_ma=0.1, tau1=0.35, tau2=0.15),
              thermal=ThermalSpec(beta=0.4), n_max=GRID_N_MAX),
    RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC,
                                       gamma=0.6),
              thermal=ThermalSpec(beta=2.5), n_max=GRID_N_MAX),
    RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC,
                                       gamma=-0.3, aniso_strength=0.2, tau2=0.5),
              spins=SpinParams(omega_s=1.3), n_max=GRID_N_MAX),
    RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC),
              n_max=GRID_N_MAX),
]


def test_evolve_grid_equals_single_point_evolution_exactly():
    states = np.concatenate([I2[np.newaxis] / 2, np.stack(probe_states())])
    outcomes = evolve_grid(GRID, states, keep_joint=True)
    assert len(outcomes) == len(GRID)
    for config, trajectories in zip(GRID, outcomes):
        single = evolve_batch(config, states, keep_joint=True)
        assert len(trajectories) == len(single) == len(states)
        for got, want in zip(trajectories, single):
            assert len(got) == GRID_N_MAX + 1
            assert np.array_equal(got.system_states, want.system_states)
            assert np.array_equal(got.joint_states, want.joint_states)


def _reference_half_step(x, u, u_dag, env):
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


def _reference_joint_history(configs, states, n_max):
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
            x = _reference_half_step(x, u, u.conj().transpose(0, 2, 1), rho_a)
        history.append(x.transpose(0, 2, 1, 3))
    return np.stack(history)


def test_evolve_grid_matches_allocating_reference_loop_bit_for_bit():
    states = np.concatenate([I2[np.newaxis] / 2, np.stack(probe_states())])
    want = _reference_joint_history(GRID, states, GRID_N_MAX)
    outcomes = evolve_grid(GRID, states, keep_joint=True)
    for p, trajectories in enumerate(outcomes):
        for i, traj in enumerate(trajectories):
            got, ref = traj.joint_states, want[:, p, i]
            assert np.array_equal(got, ref)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


def test_evolve_grid_drifting_point_fails_alone():
    states = np.stack(probe_states())
    tight = RunConfig(n_max=GRID_N_MAX, tolerances=Tolerances(drift=1e-14))
    outcomes = evolve_grid([GRID[1], tight, GRID[3]], states)
    error = outcomes[1]
    assert isinstance(error, InvariantDriftError)
    with pytest.raises(InvariantDriftError) as exc_info:
        evolve_batch(tight, states)
    assert error.step == exc_info.value.step
    assert str(error) == str(exc_info.value)
    assert [len(t) for t in error.trajectories] == [error.step] * len(states)
    full = evolve_batch(GRID[0], states)   # same dynamics, default tolerance
    for got, want in zip(error.trajectories, full):
        assert np.array_equal(got.system_states, want.system_states[:error.step])
    for config, index in ((GRID[1], 0), (GRID[3], 2)):
        for got, want in zip(outcomes[index], evolve_batch(config, states)):
            assert np.array_equal(got.system_states, want.system_states)


def test_evolve_grid_non_finite_point_fails_alone():
    # exp(-beta omega_m / 2) underflows and its partner overflows: the memory
    # state and every joint state of that point are NaN
    states = np.stack(probe_states())
    overflow = RunConfig(spins=SpinParams(omega_m=1e300), n_max=GRID_N_MAX)
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = evolve_grid([GRID[1], overflow], states)
    error = outcomes[1]
    assert isinstance(error, InvariantDriftError)
    assert error.step == 0 and "nan" in str(error)
    for got, want in zip(outcomes[0], evolve_batch(GRID[1], states)):
        assert np.array_equal(got.system_states, want.system_states)


def test_evolve_grid_requires_a_shared_horizon():
    with pytest.raises(ValueError):
        evolve_grid([RunConfig(n_max=3), RunConfig(n_max=4)],
                     np.stack(probe_states()))


# ------------------------------------------------------------- drift check

def _state_with_min_eig(lam_min, rotation):
    """Trace-one Hermitian 4x4 state with eigenvalues lam_min, 0.4, 0.3, rest."""
    lam = np.array([lam_min, 0.4, 0.3, 0.3 - lam_min])
    rho = rotation @ np.diag(lam) @ rotation.conj().T
    return (rho + rho.conj().T) / 2


def _check_alone(state, tol=DRIFT_TOL):
    """``_check_block`` on one state, as one collision of one point."""
    errors = [None]
    _check_block(state[np.newaxis, np.newaxis, np.newaxis], 5,
                 np.array([tol]), errors)
    return errors[0]


def test_drift_check_flags_exactly_the_eigenvalue_rule():
    rng = np.random.default_rng(11)
    tol = DRIFT_TOL
    levels = (-tol * (1 + 1e-6), -tol * (1 - 1e-6), -tol, 0.0)
    flagged = dict.fromkeys(levels, 0)
    for lam_min in levels:
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4))
                                + 1j * rng.normal(size=(4, 4)))
            state = _state_with_min_eig(lam_min, q)
            rule = np.linalg.eigvalsh(state).min() < -tol
            error = _check_alone(state)
            assert (error is not None) == rule, (lam_min, error)
            flagged[lam_min] += rule
            if rule:
                assert error.step == 5 and "min eigenvalue -1.00e-08" in str(error)
        # the diagonal state has its exact eigenvalues
        diagonal = _state_with_min_eig(lam_min, np.eye(4))
        assert (_check_alone(diagonal) is not None) == (lam_min < -tol)
    assert flagged[levels[0]] == 100
    assert flagged[levels[1]] == flagged[0.0] == 0


def test_drift_check_state_failing_cholesky_but_not_eigvalsh_passes():
    tol = DRIFT_TOL
    state = _state_with_min_eig(-tol, np.eye(4))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(state + tol * np.eye(4))
    assert np.linalg.eigvalsh(state).min() == -tol
    assert _check_alone(state) is None
    # the same state as one collision of a clean block of three points
    clean = _state_with_min_eig(0.1, np.eye(4))
    block = np.broadcast_to(clean, (4, 3, 2, 4, 4)).copy()
    block[2, 1, 0] = state
    errors = [None] * 3
    _check_block(block, 0, np.full(6, tol), errors)
    assert errors == [None] * 3


@pytest.mark.parametrize("defect, message", [
    ("nan", "hermiticity nan, trace 0.00e+00, min eigenvalue nan"),
    ("trace", "hermiticity 0.00e+00, trace 3.00e-08, min eigenvalue 1.25e-01"),
    ("hermiticity", "hermiticity 2.00e-08, trace 0.00e+00, "
                    "min eigenvalue 1.25e-01"),
])
def test_drift_check_reports_the_first_bad_collision(defect, message):
    clean = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
    block = np.broadcast_to(clean, (6, 2, 3, 4, 4)).copy()
    bad = clean.copy()
    if defect == "nan":
        bad[0, 1] = np.nan
    elif defect == "trace":
        bad[1, 1] += 3e-8
    else:
        bad[0, 1] = 2e-8j       # eigvalsh reads the lower triangle only
    block[4, 1, 2] = block[5, 1, 0] = bad
    errors = [None, None]
    _check_block(block, 128, np.full(6, DRIFT_TOL), errors)
    assert errors[0] is None
    assert errors[1].step == 132
    assert str(errors[1]) == (
        f"density-matrix invariants violated at collision 132: {message}")


# ---------------------------------------------------------------- probes

def test_probe_bundle_states_stay_valid():
    for traj in run_probe_bundle(fig1_config(n_max=30)):
        for rho in traj.system_states:
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_probe_bundle_diagonal_probes_stay_diagonal():
    t0, t1, _, _ = run_probe_bundle(fig1_config(n_max=60))
    for traj in (t0, t1):
        off = np.abs(traj.system_states[:, 0, 1])
        assert off.max() <= 1e-12


def test_probe_bundle_full_swap_maps_probes_to_thermal():
    # g_sm tau1 = pi/2: one collision replaces any probe with the memory state
    config = fig1_config(
        couplings=CouplingParams(tau1=SWAP_TAU1), n_max=1)
    rho_m = thermal_state(config.thermal, 1.0)
    for traj in run_probe_bundle(config):
        assert np.allclose(traj.system_states[1], rho_m, atol=1e-12)


def test_probe_bundle_initial_states_are_probes():
    bundle = run_probe_bundle(fig1_config(n_max=0))
    for traj, probe in zip(bundle, probe_states()):
        assert np.allclose(traj.system_states[0], probe, atol=1e-14)


# ------------------------------------------------------------- validation

def test_run_config_rejects_bad_initial_state():
    with pytest.raises(ValueError):
        RunConfig(initial_system=np.diag([1.2, -0.2]).astype(complex))
    with pytest.raises(ValueError):
        RunConfig(initial_system=np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        RunConfig(n_max=-1)


def test_tolerances_defaults():
    tol = Tolerances()
    assert tol.tol_pos == 1e-10
    assert tol.cond_threshold == 1e8
    assert tol.singular_det == 1e-12
