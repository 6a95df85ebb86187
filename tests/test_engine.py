import numpy as np
import pytest

from kdqflux import engine, model
from kdqflux.analysis import TOL_POS
from kdqflux.engine import (CHECK_BLOCK, CHECK_STATES, DRIFT_TOL,
                            ROUNDING_MARGIN, InvariantDriftError, RunConfig,
                            _check_block, _ldl_certified, evolve_grid)
from kdqflux.model import (ANISOTROPIC, CouplingParams, SpinParams,
                           ThermalSpec, collision_unitaries, thermal_state)
from kdqflux.tomography import COND_THRESHOLD, PROBES, SINGULAR_DET
from oracles import (cholesky_certified, exp_thermal_state, hermiticity_max,
                     joint_history, local_hamiltonian, partial_trace)

I2 = np.eye(2, dtype=complex)
SWAP_TAU1 = np.pi / (2 * 0.2)   # g_sm * tau1 = pi/2, full S-M swap
# free Hamiltonian of S (x) M (x) A at omega = 1
H0 = (np.kron(np.kron(local_hamiltonian(1.0), I2), I2)
      + np.kron(np.kron(I2, local_hamiltonian(1.0)), I2)
      + np.kron(np.kron(I2, I2), local_hamiltonian(1.0)))


def fig1_config(**kwargs) -> RunConfig:
    return RunConfig(**kwargs)


def evolve(config: RunConfig, states: np.ndarray) -> np.ndarray:
    """The (k, n_max + 1, 2, 2) histories of ``states`` under one configuration."""
    history, (error,) = evolve_grid([config], states)
    if error is not None:
        raise error
    return history[:, 0].swapaxes(0, 1)


def run_trajectory(config: RunConfig):
    return evolve(config, config.initial_system[np.newaxis])[0]


# ------------------------------------------------------------ single steps

def test_collision_step_identity_unitaries():
    # zero-duration collisions leave the system state untouched
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    config = fig1_config(couplings=CouplingParams(tau1=0.0, tau2=0.0), n_max=5)
    (traj,) = evolve(config, rho[np.newaxis])
    assert np.allclose(traj, rho, atol=1e-13)


def test_collision_step_preserves_energy_when_resonant():
    # brute-force the 8x8 state before/after the S-M unitary
    config = fig1_config()
    u_sm, _ = collision_unitaries(config.spins, config.couplings)
    rho_m = thermal_state(config.thermal, 1.0)
    rho_sma = np.kron(np.kron(config.initial_system, rho_m), rho_m)
    evolved = u_sm @ rho_sma @ u_sm.conj().T
    e_before = np.trace(H0 @ rho_sma).real
    e_after = np.trace(H0 @ evolved).real
    assert abs(e_after - e_before) <= 1e-10


def test_collision_step_invariants_enforced():
    bad = np.diag([1.5, -0.5]).astype(complex)   # not PSD
    with pytest.raises(InvariantDriftError) as exc_info:
        evolve(fig1_config(n_max=1), bad[np.newaxis])
    assert exc_info.value.step == 0


def test_total_energy_conserved_through_both_unitaries_resonant():
    config = fig1_config()
    u_sm, u_ma = collision_unitaries(config.spins, config.couplings)
    rho_a = thermal_state(config.thermal, 1.0)
    rho_sm = np.kron(config.initial_system, thermal_state(config.thermal, 1.0))
    for _ in range(5):
        x = np.kron(rho_sm, rho_a)
        e_in = np.trace(H0 @ x).real
        x = u_sm @ x @ u_sm.conj().T
        assert abs(np.trace(H0 @ x).real - e_in) <= 1e-10
        y = np.kron(partial_trace(x, [4, 2], keep=[0]), rho_a)
        e_mid = np.trace(H0 @ y).real
        y = u_ma @ y @ u_ma.conj().T
        assert abs(np.trace(H0 @ y).real - e_mid) <= 1e-10
        rho_sm = partial_trace(y, [4, 2], keep=[0])


# ------------------------------------------------------------ trajectories

def test_run_trajectory_zero_collisions():
    traj = run_trajectory(fig1_config(n_max=0))
    assert len(traj) == 1
    assert np.allclose(traj[0], I2 / 2, atol=1e-14)


def test_run_trajectory_unit_traces():
    traj = run_trajectory(fig1_config(n_max=50))
    traces = np.trace(traj, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) <= 1e-12


def test_run_trajectory_populations_drift_to_thermal_before_window():
    # cooling from I/2: the ground population grows monotonically until the
    # anomalous window opens at collision ~40
    traj = run_trajectory(fig1_config(n_max=45))
    p1 = traj[:, 1, 1].real
    assert np.all(np.diff(p1[:40]) > 0)
    assert p1[39] < np.e / (1 + np.e)


def test_run_trajectory_deterministic():
    a = run_trajectory(fig1_config(n_max=40))
    b = run_trajectory(fig1_config(n_max=40))
    assert np.array_equal(a, b)


def test_evolve_batch_matches_sequential_steps():
    config = fig1_config(n_max=25)
    traj = run_trajectory(config)
    joint = joint_history([config], config.initial_system[np.newaxis], 25)
    for n in range(1, 26):
        rho = partial_trace(joint[n, 0, 0], [2, 2], keep=[0])
        assert np.max(np.abs(rho - traj[n])) <= 1e-13


# ------------------------------------------------------------ grid stacks

# three invariant-check blocks: at G = 6 a block holds CHECK_BLOCK collisions
GRID_N_MAX = 2 * CHECK_BLOCK + 20
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
    states = np.concatenate([I2[np.newaxis] / 2, PROBES])
    history, errors = evolve_grid(GRID, states)
    assert history.shape == (GRID_N_MAX + 1, len(GRID), len(states), 2, 2)
    assert errors == [None] * len(GRID)
    for p, config in enumerate(GRID):
        assert np.array_equal(history[:, p].swapaxes(0, 1), evolve(config, states))


def test_evolve_grid_matches_allocating_reference_loop_bit_for_bit():
    states = np.concatenate([I2[np.newaxis] / 2, PROBES])
    joint = joint_history(GRID, states, GRID_N_MAX)
    # the memory trace, as the loop takes it from its recorded joint states
    want = np.einsum("ngkaibi->ngkab",
                     joint.reshape(joint.shape[:3] + (2, 2, 2, 2)))
    got, _ = evolve_grid(GRID, states)
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def test_evolve_grid_drifting_point_fails_alone(monkeypatch):
    # under a 1e-14 bound every grid point drifts, each at its own step
    states = PROBES
    full, _ = evolve_grid(GRID, states)   # default bound
    monkeypatch.setattr(engine, "DRIFT_TOL", 1e-14)
    history, errors = evolve_grid(GRID, states)
    assert len({error.step for error in errors}) == len(GRID)
    for p, (config, error) in enumerate(zip(GRID, errors)):
        assert isinstance(error, InvariantDriftError)
        with pytest.raises(InvariantDriftError) as exc_info:
            evolve(config, states)
        assert error.step == exc_info.value.step
        assert str(error) == str(exc_info.value)
        assert 0 < error.step <= GRID_N_MAX
        assert np.array_equal(history[:error.step, p], full[:error.step, p])


def _deviations(joint):
    """Hermiticity, trace and minimum-eigenvalue deviations (n_max + 1, k)
    of a one-point joint history, taken collision by collision."""
    devs = []
    for states in joint[:, 0]:
        devs.append((hermiticity_max(states),
                     np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0),
                     np.linalg.eigvalsh(states).min(axis=-1)))
    return [np.stack(dev) for dev in zip(*devs)]


@pytest.mark.parametrize("block, first", [(0, 150), (1, 256)])
def test_single_run_drift_is_found_across_its_longer_blocks(monkeypatch, block,
                                                            first):
    # a single run checks its five trajectories CHECK_STATES // 5 = 256
    # collisions at a time; the bound is lowered to the largest deviation of
    # collisions 0..first-1, so the first state past it lies in the given
    # block, and the loop must name it as a per-collision scan does
    size = CHECK_STATES // 5
    assert size == 256
    n_max = 2 * size + 20
    config = RunConfig(n_max=n_max)
    states = np.concatenate([config.initial_system[np.newaxis], PROBES])
    herm, tr, min_eig = _deviations(joint_history([config], states, n_max))
    tol = float(max(herm[:first].max(), tr[:first].max(),
                    -min_eig[:first].min()))
    bad = (herm > tol) | (tr > tol) | (min_eig < -tol)
    step = int(np.argmax(bad.any(axis=1)))
    assert first <= step and step // size == block
    i = int(np.argmax(bad[step]))
    monkeypatch.setattr(engine, "DRIFT_TOL", tol)
    with pytest.raises(InvariantDriftError) as exc_info:
        evolve(config, states)
    assert exc_info.value.step == step
    assert str(exc_info.value) == (
        f"density-matrix invariants violated at collision {step}: "
        f"hermiticity {herm[step, i]:.2e}, trace {tr[step, i]:.2e}, "
        f"min eigenvalue {min_eig[step, i]:.2e}")


def test_evolve_grid_non_finite_point_fails_alone(monkeypatch):
    # with the Gibbs weights normalized as plain exp values, the weight
    # exp(beta omega_m / 2) of the memory's ground level overflows: the
    # memory state and every joint state of that point are NaN
    monkeypatch.setattr(model, "thermal_state", exp_thermal_state)
    states = PROBES
    overflow = RunConfig(spins=SpinParams(omega_m=1.5),
                         thermal=ThermalSpec(beta=1000.0), n_max=GRID_N_MAX)
    with np.errstate(over="ignore", invalid="ignore"):
        history, (ok, error) = evolve_grid([GRID[1], overflow], states)
    assert ok is None and isinstance(error, InvariantDriftError)
    assert error.step == 0 and "nan" in str(error)
    assert np.array_equal(history[:, 0].swapaxes(0, 1), evolve(GRID[1], states))


def test_evolve_grid_requires_a_shared_horizon():
    with pytest.raises(ValueError):
        evolve_grid([RunConfig(n_max=3), RunConfig(n_max=4)],
                     PROBES)


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
                 tol, errors)
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
    _check_block(block, 0, tol, errors)
    assert errors == [None] * 3


def _certificate_cases(rng, tol):
    """Random rotated states with their minimum eigenvalue at and around
    -tol, at 0 and well below -tol, and random pure states."""
    levels = (-2 * tol, -tol * (1 + 1e-6), -tol, -tol * (1 - 1e-6),
              -tol + ROUNDING_MARGIN, 0.0)
    rotations, _ = np.linalg.qr(rng.normal(size=(len(levels), 100, 4, 4))
                                + 1j * rng.normal(size=(len(levels), 100, 4, 4)))
    states = [_state_with_min_eig(lam_min, q)
              for lam_min, qs in zip(levels, rotations) for q in qs]
    psi = rng.normal(size=(100, 4)) + 1j * rng.normal(size=(100, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    states += list(psi[:, :, np.newaxis] * psi[:, np.newaxis].conj())
    return np.stack(states)


# at tol = 1e-14 the shift is 0 and every case lies within 1e-13 of it
@pytest.mark.parametrize("tol, n_clear", [(DRIFT_TOL, 300), (1e-12, 300),
                                          (1e-14, 0)])
def test_closed_form_certificate_is_sound_and_matches_cholesky(tol, n_clear):
    rng = np.random.default_rng(17)
    states = _certificate_cases(rng, tol)
    shift = tol - ROUNDING_MARGIN
    certified = _ldl_certified(states, shift)
    min_eig = np.linalg.eigvalsh(states).min(axis=-1)
    # never certifies a state that eigvalsh puts below -tol ...
    assert not (certified & (min_eig < -tol)).any()
    # ... and agrees with LAPACK's Cholesky away from the shifted boundary
    clear = np.abs(min_eig + shift) > 1e-13
    assert clear.sum() == n_clear
    assert np.array_equal(certified[clear],
                          cholesky_certified(states, shift)[clear])
    # a stack's members are certified as they are alone
    assert np.array_equal(certified, [_ldl_certified(s[np.newaxis], shift)[0]
                                      for s in states])


def test_closed_form_certificate_in_multi_point_blocks():
    # boundary states among clean ones in blocks of three points: every
    # point fails exactly at its first state that eigvalsh puts below -tol
    rng = np.random.default_rng(23)
    tol = DRIFT_TOL
    cases = _certificate_cases(rng, tol)
    clean = _state_with_min_eig(0.1, np.eye(4)).astype(complex)
    for _ in range(20):
        block = np.broadcast_to(clean, (8, 3, 5, 4, 4)).copy()
        picks = rng.choice(len(cases), size=6, replace=False)
        for pick in picks:
            block[tuple(rng.integers(0, (8, 3, 5)))] = cases[pick]
        min_eig = np.linalg.eigvalsh(block).min(axis=-1)
        flat = block.reshape(-1, 4, 4)
        assert not (_ldl_certified(flat, tol - ROUNDING_MARGIN)
                    & (min_eig.reshape(-1) < -tol)).any()
        errors = [None] * 3
        _check_block(block, 64, tol, errors)
        for p in range(3):
            bad = (min_eig[:, p] < -tol).reshape(-1)
            if not bad.any():
                assert errors[p] is None
            else:
                assert errors[p].step == 64 + int(np.argmax(bad)) // 5


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
    _check_block(block, 128, DRIFT_TOL, errors)
    assert errors[0] is None
    assert errors[1].step == 132
    assert str(errors[1]) == (
        f"density-matrix invariants violated at collision 132: {message}")


# ---------------------------------------------------------------- probes

def test_probe_bundle_states_stay_valid():
    for traj in evolve(fig1_config(n_max=30), PROBES):
        for rho in traj:
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_probe_bundle_diagonal_probes_stay_diagonal():
    t0, t1, _, _ = evolve(fig1_config(n_max=60), PROBES)
    for traj in (t0, t1):
        off = np.abs(traj[:, 0, 1])
        assert off.max() <= 1e-12


def test_probe_bundle_full_swap_maps_probes_to_thermal():
    # g_sm tau1 = pi/2: one collision replaces any probe with the memory state
    config = fig1_config(
        couplings=CouplingParams(tau1=SWAP_TAU1), n_max=1)
    rho_m = thermal_state(config.thermal, 1.0)
    for traj in evolve(config, PROBES):
        assert np.allclose(traj[1], rho_m, atol=1e-12)


def test_probe_bundle_initial_states_are_probes():
    bundle = evolve(fig1_config(n_max=0), PROBES)
    for traj, probe in zip(bundle, PROBES):
        assert np.allclose(traj[0], probe, atol=1e-14)


# ------------------------------------------------------------- validation

def test_run_config_rejects_bad_initial_state():
    with pytest.raises(ValueError):
        RunConfig(initial_system=np.diag([1.2, -0.2]).astype(complex))
    with pytest.raises(ValueError):
        RunConfig(initial_system=np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        RunConfig(n_max=-1)
    with pytest.raises(ValueError, match="finite"):
        RunConfig(initial_system=np.array([[np.nan, 0], [0, 1.0]]))


@pytest.mark.parametrize("n_max", [10.0, True, False, "5", np.float64(5.0)])
def test_run_config_rejects_non_integer_n_max(n_max):
    with pytest.raises(ValueError, match="n_max"):
        RunConfig(n_max=n_max)


def test_run_config_stores_n_max_as_a_plain_int():
    config = RunConfig(n_max=np.int64(5))
    assert type(config.n_max) is int and config.n_max == 5
    history, (error,) = evolve_grid([config], PROBES)
    assert error is None and history.shape[0] == 6


def test_run_config_rejects_hamiltonians_eigh_cannot_resolve():
    # eigh resolves a spectrum to about eps ||H||, so each propagator must
    # keep eps B tau within DRIFT_TOL, B its Hamiltonian's Pauli weight: at
    # omega_m = 1e9 the first step's c is 5.6e-9 off its converged value,
    # at 1e12 6.1e-6, and from 1e16 on it reads exactly 1
    RunConfig(spins=SpinParams(omega_m=1e8))
    RunConfig(couplings=CouplingParams(tau1=1e7))
    for config in ({"spins": SpinParams(omega_m=1e9)},
                   {"spins": SpinParams(omega_s=1e20, omega_m=1e20, omega_a=1e20)},
                   {"couplings": CouplingParams(tau1=1e8)},
                   {"couplings": CouplingParams(sm_interaction_kind=ANISOTROPIC,
                                                aniso_strength=-1e9)}):
        with pytest.raises(ValueError, match="double precision"):
            RunConfig(**config)
    # each Hamiltonian is weighed against its own duration
    RunConfig(couplings=CouplingParams(g_ma=1e9, tau2=1e-3))
    with pytest.raises(ValueError, match="double precision"):
        RunConfig(couplings=CouplingParams(g_ma=1e9, tau2=0.2))


def test_tolerance_constants():
    assert DRIFT_TOL == 1e-8
    assert ROUNDING_MARGIN == 1e-14
    assert TOL_POS == 1e-10
    assert COND_THRESHOLD == 1e8
    assert SINGULAR_DET == 1e-12
