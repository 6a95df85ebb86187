import itertools
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kdqflux import engine, model
from kdqflux.analysis import TOL_POS, analyze, evolve_runs
from kdqflux.cli import load_config, sweep_point_config, sweep_points
from kdqflux.engine import (CHECK_STATES, DRIFT_TOL, ROUNDING_MARGIN,
                            InvariantDriftError, RunConfig, _check_block,
                            _drift_bound, evolve_grid)
from kdqflux.model import (ANISOTROPIC, ISOTROPIC, CouplingParams, SpinParams,
                           ThermalSpec, collision_unitaries, thermal_state)
from kdqflux.tomography import COND_THRESHOLD, PROBES, SINGULAR_DET
from oracles import (density_from_bloch, eigvalsh_density_check,
                     exp_thermal_state, hermiticity_max, inject_trace_drift,
                     joint_history, local_hamiltonian, partial_trace,
                     same_bits)
from test_batched_pipeline import _random_short_config

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

# 149 states per trajectory: at G = 6 and k = 5 the loop traces (and checks)
# CHECK_STATES // 30 = 42 collisions at a time, so four blocks, the last one
# partial
GRID_N_MAX = 148
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
    # the memory trace, as the loop takes it from its recorded joint states,
    # for n >= 1; at n = 0 the input states themselves
    want = np.einsum("ngkaibi->ngkab",
                     joint.reshape(joint.shape[:3] + (2, 2, 2, 2)))
    want[0] = states
    got, _ = evolve_grid(GRID, states)
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


# each grid point's first drifting collision under ``inject_trace_drift``:
# the first one, both sides of the first block edge, one inside the third
# block, the first of the last block and the last one
GRID_DRIFT_STEPS = (1, 41, 42, 90, 126, 148)


def _assert_drift_message(error, step, trace):
    """``error`` names ``step`` and the trace excess ``trace`` of the
    injected defect; its hermiticity and minimum eigenvalue are within
    1e-14 (rounding) of a valid state's."""
    match = re.fullmatch(
        r"density-matrix invariants violated at collision (\d+): "
        r"hermiticity (\S+), trace (\S+), min eigenvalue (\S+)", str(error))
    assert match and error.step == int(match[1]) == step, str(error)
    assert match[3] == f"{trace:.2e}"
    assert float(match[2]) <= 1e-14 and float(match[4]) >= -1e-14


def test_evolve_grid_drifting_point_fails_alone(monkeypatch):
    # every grid point drifts, each at its own step
    states = np.concatenate([I2[np.newaxis] / 2, PROBES])
    traces = inject_trace_drift(monkeypatch, zip(GRID, GRID_DRIFT_STEPS))
    with monkeypatch.context() as patch:   # the same states, unchecked
        patch.setattr(engine, "_check_block", lambda *args: None)
        full, _ = evolve_grid(GRID, states)
    history, errors = evolve_grid(GRID, states)
    for p, (config, error) in enumerate(zip(GRID, errors)):
        assert isinstance(error, InvariantDriftError)
        _assert_drift_message(error, GRID_DRIFT_STEPS[p], traces[p])
        with pytest.raises(InvariantDriftError) as exc_info:
            evolve(config, states)
        assert error.step == exc_info.value.step
        assert str(error) == str(exc_info.value)
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
    # collisions at a time; the injected drift first shows at collision
    # `first`, inside block 0 or at the first collision of block 1, and the
    # loop must name it
    size = CHECK_STATES // 5
    assert size == 256 and first // size == block
    config = RunConfig(n_max=2 * size + 20)
    states = np.concatenate([config.initial_system[np.newaxis], PROBES])
    (trace,) = inject_trace_drift(monkeypatch, [(config, first)])
    with pytest.raises(InvariantDriftError) as exc_info:
        evolve(config, states)
    _assert_drift_message(exc_info.value, first, trace)


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


def _check_alone(state):
    """``_check_block`` on one state, as one collision of one point."""
    errors = [None]
    _check_block(state[np.newaxis, np.newaxis, np.newaxis], 5, errors)
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


def _boundary_states(rng, tol):
    """Random rotated states with their minimum eigenvalue at and around
    -tol (one level ROUNDING_MARGIN above it, just inside the bound), at 0
    and well below -tol, and random pure states."""
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


def test_eigenvalue_rule_in_multi_point_blocks():
    # boundary states among clean ones in blocks of three points: every
    # point fails exactly at its first state that eigvalsh puts below -tol
    rng = np.random.default_rng(23)
    tol = DRIFT_TOL
    cases = _boundary_states(rng, tol)
    clean = _state_with_min_eig(0.1, np.eye(4)).astype(complex)
    blocks = []
    for _ in range(20):
        block = np.broadcast_to(clean, (8, 3, 5, 4, 4)).copy()
        picks = rng.choice(len(cases), size=6, replace=False)
        for pick in picks:
            block[tuple(rng.integers(0, (8, 3, 5)))] = cases[pick]
        blocks.append(block)
    # and, in a clean block, a diagonal state at exactly -tol, which passes
    edge = _state_with_min_eig(-tol, np.eye(4))
    assert np.linalg.eigvalsh(edge).min() == -tol
    blocks.append(np.broadcast_to(clean, (8, 3, 5, 4, 4)).copy())
    blocks[-1][2, 1, 0] = edge
    for block in blocks:
        min_eig = np.linalg.eigvalsh(block).min(axis=-1)
        errors = [None] * 3
        _check_block(block, 64, errors)
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
    _check_block(block, 128, errors)
    assert errors[0] is None
    assert errors[1].step == 132
    assert str(errors[1]) == (
        f"density-matrix invariants violated at collision 132: {message}")


# ------------------------------------------------------ drift certificate

class _Spy:
    """Records the arguments and bounds of ``_drift_bound`` and counts the
    ``_check_block`` calls of the ``evolve_grid`` calls made under it."""

    def __init__(self, monkeypatch):
        self.calls, self.checks = [], 0

        def bound(*args):
            self.calls.append((args, _drift_bound(*args)))
            return self.calls[-1][1]

        def check(*args):
            self.checks += 1
            _check_block(*args)
        monkeypatch.setattr(engine, "_drift_bound", bound)
        monkeypatch.setattr(engine, "_check_block", check)


def _assert_bound_is_sound(bound, configs, states):
    """Every point's bound covers the deviations of a per-collision scan of
    the allocating loop's joint states."""
    joint = joint_history(configs, states, configs[0].n_max)
    for p in range(len(configs)):
        herm, tr, min_eig = _deviations(joint[:, p:p + 1])
        assert max(herm.max(), tr.max(), -min_eig.min()) <= bound[p]


@st.composite
def _benchmark_box_configs(draw):
    """Configurations over the benchmark's parameter box: frequencies in
    [0.6, 1.4], couplings and durations in [0.05, 0.4], beta in [0.2, 3],
    either coupling, any initial state, up to 200 collisions."""
    f = st.floats
    anisotropic = draw(st.booleans())
    radius, polar = draw(f(0.0, 1.0)), draw(f(0.0, np.pi))
    azimuth = draw(f(0.0, 2 * np.pi))
    return RunConfig(
        spins=SpinParams(*(draw(f(0.6, 1.4)) for _ in range(3))),
        couplings=CouplingParams(
            *(draw(f(0.05, 0.4)) for _ in range(4)),
            gamma=draw(f(-1.0, 1.0)) if anisotropic else 0.0,
            sm_interaction_kind=ANISOTROPIC if anisotropic else ISOTROPIC),
        thermal=ThermalSpec(beta=draw(f(0.2, 3.0))),
        initial_system=density_from_bloch(radius * np.array([
            np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
            np.cos(polar)])),
        n_max=draw(st.integers(0, 200)))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=_benchmark_box_configs())
def test_drift_bound_is_sound_on_random_configurations(config):
    states = np.concatenate([config.initial_system[np.newaxis], PROBES])
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy = _Spy(monkeypatch)
        _, errors = evolve_grid([config], states)
    assert errors == [None] and spy.checks == 0
    _assert_bound_is_sound(spy.calls[0][1], [config], states)


def test_drift_bound_is_sound_at_the_reference_point(monkeypatch):
    config = RunConfig()
    states = np.concatenate([config.initial_system[np.newaxis], PROBES])
    spy = _Spy(monkeypatch)
    evolve_grid([config], states)
    (bound,) = spy.calls[0][1]
    assert bound < 1e-9     # measured 2.7e-10
    _assert_bound_is_sound([bound], [config], states)


def test_certified_and_checked_calls_give_the_same_results(monkeypatch):
    states = np.concatenate([I2[np.newaxis] / 2, PROBES])
    spy = _Spy(monkeypatch)
    certified, errors = evolve_grid(GRID, states)
    assert spy.checks == 0 and errors == [None] * len(GRID)
    bound = float(spy.calls[0][1].max())
    _assert_bound_is_sound(spy.calls[0][1], GRID, states)
    # certified while the bound stays ROUNDING_MARGIN below DRIFT_TOL ...
    monkeypatch.setattr(engine, "DRIFT_TOL", bound + 2 * ROUNDING_MARGIN)
    evolve_grid(GRID, states)
    assert spy.checks == 0
    # ... and checked, block by block, once DRIFT_TOL is lowered to it
    monkeypatch.setattr(engine, "DRIFT_TOL", bound)
    checked, errors = evolve_grid(GRID, states)
    size = CHECK_STATES // (len(GRID) * len(states))
    assert spy.checks == -(-(GRID_N_MAX + 1) // size) == 4
    assert errors == [None] * len(GRID)
    assert checked.tobytes() == certified.tobytes()


@pytest.mark.parametrize("slots", [1, 2])
def test_ring_of_one_or_two_slots_gives_the_same_results(monkeypatch, slots):
    # a chunk of more than CHECK_STATES / 2 states per collision (from 129
    # points on) keeps a single collision in its ring, whose S-M half then
    # overwrites the slot it reads: the states, and with the certificate
    # denied the errors, are those of the default ring, which holds 256 or
    # 42 collisions here
    states = np.concatenate([I2[np.newaxis] / 2, PROBES])
    for configs, steps in (([RunConfig()], [700]), (GRID, GRID_DRIFT_STEPS)):
        n1 = configs[0].n_max + 1
        for denied in (False, True):
            with monkeypatch.context() as patch:
                if denied:
                    inject_trace_drift(patch, zip(configs, steps))
                want, want_errors = evolve_grid(configs, states)
                patch.setattr(engine, "CHECK_STATES",
                              slots * len(configs) * len(states))
                spy = _Spy(patch)
                got, errors = evolve_grid(configs, states)
            assert same_bits(got, want)
            assert [(e.step, str(e)) for e in errors if e] == [
                (e.step, str(e)) for e in want_errors if e]
            # certified without the defect; with it, checked one block of
            # `slots` at a time, and every point drifts at its own step
            assert spy.checks == denied * -(-n1 // slots)
            assert [e.step for e in errors if e] == denied * list(steps)


def test_memory_trace_reads_zeros_as_a_sum_from_zero(monkeypatch):
    # every zero of the unitary products is made -0.0, so the loop's joint
    # states hold zero entries as -0.0 pairs; their memory trace is +0.0,
    # as in a sum that starts from zero
    matmul = np.matmul

    def negative_zeros(a, b, out):
        matmul(a, b, out=out)
        out.real[out.real == 0] = -0.0
        out.imag[out.imag == 0] = -0.0
        return out
    monkeypatch.setattr(np, "matmul", negative_zeros)
    system, _ = evolve_grid([RunConfig(n_max=5)], PROBES)
    for part in (system[1:].real, system[1:].imag):
        zeros = part[part == 0]
        assert zeros.size and not np.signbit(zeros).any()


def test_drift_certificate_is_denied_for_non_finite_inputs(monkeypatch):
    spy = _Spy(monkeypatch)
    nan_state = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        _, (error,) = evolve_grid([RunConfig(n_max=3)], nan_state[np.newaxis])
        monkeypatch.setattr(model, "thermal_state", exp_thermal_state)
        overflow = RunConfig(spins=SpinParams(omega_m=1.5),
                             thermal=ThermalSpec(beta=1000.0), n_max=3)
        _, (overflowed,) = evolve_grid([overflow], PROBES)
    assert error.step == overflowed.step == 0
    assert not np.isfinite([bound for _, (bound,) in spy.calls]).any()
    assert spy.checks == 2


def test_drift_certificate_is_denied_for_initial_states_at_the_tolerance(
        monkeypatch):
    spy = _Spy(monkeypatch)
    with pytest.raises(InvariantDriftError):
        evolve(fig1_config(n_max=1),
               np.diag([1.5, -0.5]).astype(complex)[np.newaxis])
    assert spy.checks == 1
    # valid configurations whose initial state is a relative 1e-6 of
    # DRIFT_TOL inside the minimum-eigenvalue, trace and hermiticity bounds
    t = DRIFT_TOL * (1 - 1e-6)
    for rho in (np.diag([-t, 1.0 + t]), np.diag([0.5, 0.5 + t]),
                np.array([[0.5, t], [0.0, 0.5]])):
        config = RunConfig(initial_system=rho, n_max=3)
        checks = spy.checks
        evolve_grid([config], config.initial_system[np.newaxis])
        assert spy.checks == checks + 1
        assert spy.calls[-1][1][0] > DRIFT_TOL - ROUNDING_MARGIN


def test_drift_certificate_is_denied_past_its_horizon(monkeypatch):
    spy = _Spy(monkeypatch)
    evolve_grid([RunConfig(n_max=10)], PROBES)
    args = spy.calls[0][0]
    # the bound grows with the horizon and passes DRIFT_TOL near 36 000
    # collisions of the reference point (no collision is run here)
    bounds = [_drift_bound(*args[:-1], n)[0] for n in (10, 1000, 10**5)]
    assert bounds == sorted(bounds)
    assert bounds[1] < DRIFT_TOL / 10 and bounds[2] > DRIFT_TOL


def test_drift_certificate_is_granted_on_benchmark_configurations(monkeypatch):
    spy = _Spy(monkeypatch)
    analyze(RunConfig())
    # a 4-point, 1000-collision detuning window, as a benchmark sweep op
    sweep = load_config(None, {"kind": "detuning_sweep", "grid_points": 4,
                               "grid_min": -0.1, "grid_max": 0.05})
    assert [p["error"] for p in sweep_points(sweep)] == [None] * 4
    rng = np.random.default_rng(59)
    for _ in range(50):
        assert evolve_runs([_random_short_config(rng)])[1] == [None]
    assert len(spy.calls) == 52 and spy.checks == 0
    assert max(bound.max() for _, bound in spy.calls) < DRIFT_TOL / 10
    # the corners of reference_run's +-2% box and both ends of the default
    # 101-point detuning and anisotropy grids, bounded at 1000 collisions
    # from the arguments of one evolution of no collision
    centres = {"omega_s": 1.0, "omega_m": 1.0, "omega_a": 1.0, "g_sm": 0.2,
               "g_ma": 0.2, "tau1": 0.2, "tau2": 0.2, "beta": 1.0}
    configs = []
    for scales in itertools.product((0.98, 1.02), repeat=len(centres)):
        keys = {key: centre * scale
                for (key, centre), scale in zip(centres.items(), scales)}
        configs.append(load_config(None, {"n_max": 0, **keys}).base)
    for kind in ("detuning_sweep", "anisotropy_sweep"):
        spec = load_config(None, {"kind": kind, "n_max": 0})
        assert len(spec.grid) == 101
        configs += [sweep_point_config(spec, float(value))
                    for value in (spec.grid[0], spec.grid[-1])]
    evolve_runs(configs)
    bounds = _drift_bound(*spy.calls[-1][0][:-1], 1000)
    assert len(bounds) == 2**8 + 4 and spy.checks == 0
    assert bounds.max() < DRIFT_TOL / 10


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


def test_run_config_keeps_a_read_only_copy_of_the_initial_state():
    # a complex array is not aliased: changing it after construction
    # leaves the validated configuration as it was
    rho = 0.5 * np.eye(2, dtype=complex)
    config = RunConfig(initial_system=rho, n_max=3)
    rho[0, 0] = 5
    assert config.initial_system is not rho
    assert not config.initial_system.flags.writeable
    assert np.array_equal(config.initial_system, 0.5 * I2)
    assert np.array_equal(analyze(config).states,
                          analyze(RunConfig(n_max=3)).states)
    for config in (RunConfig(), RunConfig(initial_system=[[1, 0], [0, 0]])):
        assert not config.initial_system.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            config.initial_system[0, 0] = 0


def _rotated(eigenvalues, rng):
    """diag(eigenvalues) in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q @ np.diag(eigenvalues).astype(complex) @ q.conj().T


def _initial_state_message(rho):
    try:
        RunConfig(initial_system=rho, n_max=0)
    except ValueError as exc:
        return str(exc)
    return None


def test_closed_form_initial_state_check_matches_eigvalsh():
    """RunConfig checks its 2x2 initial state in closed form; it accepts
    and rejects what the numpy and ``eigvalsh`` check did, with its
    message, a relative 1e-6 of DRIFT_TOL inside and outside each bound."""
    rng = np.random.default_rng(41)
    inside, outside = DRIFT_TOL * (1 - 1e-6), DRIFT_TOL * (1 + 1e-6)
    pairs = []   # (state just inside a bound, state just outside it)
    for _ in range(20):
        lam = rng.uniform(0.1, 0.9)
        base = _rotated([lam, 1.0 - lam], rng)
        # minimum eigenvalue -t
        pairs.append([_rotated([-t, 1.0 + t], rng) for t in (inside, outside)])
        # trace 1 + t and 1 - t
        for sign in (1.0, -1.0):
            pairs.append([_rotated([lam, 1.0 - lam + sign * t], rng)
                          for t in (inside, outside)])
        # |rho - rho^H| of t, off the diagonal and on it
        phase = np.exp(2j * np.pi * rng.random())
        pairs.append([base + np.array([[0, t * phase], [0, 0]]) for t in (inside, outside)])
        pairs.append([base + np.array([[0.5j * t, 0], [0, 0]]) for t in (inside, outside)])
    pairs.append([np.diag([-t, 1.0 + t]).astype(complex) for t in (inside, outside)])
    for accepted, rejected in pairs:
        assert _initial_state_message(accepted) is None
        assert eigvalsh_density_check(accepted) is None
        assert (_initial_state_message(rejected) == eigvalsh_density_check(rejected)
                == "initial_system is not a valid density matrix")
    # non-finite entries, anywhere
    for value in (np.nan, np.inf, -np.inf, 1j * np.inf, complex(0.0, np.nan)):
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rho = 0.5 * I2
            rho[i, j] = value
            assert (_initial_state_message(rho) == eigvalsh_density_check(rho)
                    == "initial_system entries must be finite")
    # and states far from either bound
    for _ in range(200):
        rho = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)) * rng.random()
        rho = (rho + rho.conj().T) / 2 if rng.random() < 0.5 else rho
        rho = rho / np.trace(rho) if rng.random() < 0.5 else rho
        assert _initial_state_message(rho) == eigvalsh_density_check(rho)


def test_run_config_rejects_an_overflowing_coherence():
    # the Hermitian part of this state overflows to infinite coherences;
    # eigvalsh gave NaN eigenvalues for it, which the check accepted
    rho = np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="not a valid density matrix"):
        RunConfig(initial_system=rho)


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
