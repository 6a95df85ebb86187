"""The array pass of ``analyze`` against the per-collision routes.

Every WitnessRecord field is recomputed collision by collision with the
reference code of ``oracles``: the 3x3 affine maps of the run's own probe
states (``affine_family``, ``time_local_map``), their superoperators and
Choi matrices, ``kdq_general``, ``trace_norm`` and the ``eigvalsh`` QMI,
and must agree with the batched values.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kdqflux import engine
from kdqflux.analysis import analyze, analyze_evolved, evolve_runs, summarize
from kdqflux.engine import InvariantDriftError, RunConfig
from kdqflux.model import (ANISOTROPIC, ISOTROPIC, CouplingParams, SpinParams,
                           ThermalSpec)
from kdqflux.tomography import (SingularMapError, choi_eigenvalues,
                                phase_covariant_maps, time_local_family)
from kdqflux.witnesses import lfs_series, witness_columns
import oracles
from oracles import (affine_to_superoperator, choi, density_from_bloch,
                     pattern_superoperator)

TOL = 1e-12
SWAP_TAU = np.pi / (2 * 0.2)     # g * tau = pi/2: a full swap
# closed-form spectra against eigvalsh, relative for Choi matrices whose
# largest eigenvalue exceeds 1 (eigvalsh is one ulp off at |lambda| ~ 99)
SPECTRUM_TOL = 1e-14


def _analyze_or_partial(config: RunConfig):
    try:
        return analyze(config)
    except SingularMapError as exc:
        return exc.partial_result


def _assert_matches_oracle(result) -> None:
    """Recompute every record with the scalar routes and compare."""
    omega_s = result.config.spins.omega_s
    family = oracles.affine_family(result.states)
    chois = choi(affine_to_superoperator(family))
    delta_i = np.diff([oracles.qmi(j / 2) for j in chois])
    for rec in result.records:
        n = rec.n
        sop = affine_to_superoperator(oracles.time_local_map(family, n))
        a, b, c, d = sop[0, 0].real, sop[0, 3].real, sop[1, 1], sop[1, 2]
        j_mat = choi(sop)
        rho_pre = result.states[n - 1, 0]
        p0, p1 = rho_pre[0, 0].real, rho_pre[1, 1].real
        q = oracles.kdq_general(sop, rho_pre)
        # the KDQ marginal over final outcomes is the pre-collision population
        assert np.abs(q.sum(axis=1) - [p0, p1]).max() <= TOL, n
        expected = {
            "p0": p0, "p1": p1, "a": a, "b": b, "c": c, "d": d,
            "residual": oracles.off_pattern_residual(sop),
            "n_q": np.abs(q).sum() - 1.0,
            "g_n": oracles.trace_norm(j_mat) / 2.0 - 1.0,
            "delta_i": delta_i[n - 1],
            "avg_de": omega_s * ((a - 1.0) * p0 + b * p1),
            "c_abs2_margin": a * (1.0 - b) - abs(c) ** 2,
            "d_abs2_margin": b * (1.0 - a) - abs(d) ** 2,
            "choi_min_eig": np.linalg.eigvalsh((j_mat + j_mat.conj().T) / 2)[0],
        }
        for name, value in expected.items():
            got = getattr(rec, name)
            assert abs(got - value) <= TOL * max(1.0, abs(value)), (n, name, got, value)
        assert isinstance(rec.n, int) and isinstance(rec.c, complex)
        assert isinstance(rec.n_q, float) and isinstance(rec.g_n, float)
    assert [r.n for r in result.records] == list(range(1, len(result.records) + 1))


@st.composite
def random_configs(draw):
    """Random configurations over the model's physical parameter ranges."""
    f = st.floats
    radius, polar = draw(f(0.0, 1.0)), draw(f(0.0, np.pi))
    azimuth = draw(f(0.0, 2 * np.pi))
    initial = density_from_bloch(radius * np.array([
        np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
        np.cos(polar)]))
    return RunConfig(
        spins=SpinParams(omega_s=draw(f(0.5, 1.5)), omega_m=draw(f(0.5, 1.5)),
                         omega_a=draw(f(0.5, 1.5))),
        couplings=CouplingParams(
            g_sm=draw(f(0.05, 0.4)), g_ma=draw(f(0.05, 0.4)),
            tau1=draw(f(0.0, 1.0)), tau2=draw(f(0.0, 1.0)),
            gamma=draw(f(-1.0, 1.0)),
            sm_interaction_kind=draw(st.sampled_from([ISOTROPIC, ANISOTROPIC]))),
        thermal=ThermalSpec(beta=draw(f(0.0, 3.0))), initial_system=initial,
        n_max=draw(st.integers(5, 60)))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=random_configs())
def test_batched_records_match_per_collision_routes(config):
    result = _analyze_or_partial(config)
    _assert_matches_oracle(result)
    # the paper's theorem: N_q > 0 only where the step map is not CP
    assert result.summary.implication_violations == 0
    if config.couplings.sm_interaction_kind == ISOTROPIC:
        # excitation-number conservation: d vanishes up to round-off
        for rec in result.records:
            assert abs(rec.d) <= 1e-10 and rec.residual <= 1e-10, rec.n


def _step_chois(result) -> np.ndarray:
    steps, _ = time_local_family(result.family)
    return choi(pattern_superoperator(steps))[:len(result.records)]


def _assert_spectra_match_eigvalsh(result) -> None:
    """g_n, the minimum Choi eigenvalue and delta_i against eigvalsh."""
    w = np.linalg.eigvalsh(_step_chois(result))
    cols = result.columns
    scale = SPECTRUM_TOL * np.maximum(1.0, np.abs(w).max(axis=1, initial=0.0))
    assert (np.abs(cols["g_n"] - (np.abs(w).sum(axis=1) / 2 - 1)) <= scale).all()
    assert (np.abs(cols["choi_min_eig"] - w[:, 0]) <= scale).all()
    # QMI of J_n / 2 through eigvalsh entropies
    chois = choi(pattern_superoperator(result.family))
    qmis = oracles.stacked_qmi(chois / 2)
    n = len(result.records)
    # -w log2 w has no Lipschitz bound at w = 0. Where a state J_n / 2 of the
    # row is rank deficient (tau1 = 0 keeps them pure), each of the row's 16
    # state and marginal eigenvalues that moves by 1e-15 may move delta_i
    # by -x log2 x at x = 1e-15 (5e-14), not by a multiple of 1e-15
    deficient = (np.abs(np.linalg.eigvalsh(chois / 2)) < 1e-12).any(axis=1)
    tol = np.where(deficient[:-1] | deficient[1:], 16 * 1e-15 * np.log2(1e15),
                   SPECTRUM_TOL)[:n]
    assert (np.abs(cols["delta_i"] - np.diff(qmis)[:n]) <= tol).all()


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=random_configs())
def test_closed_form_spectra_match_eigvalsh(config):
    _assert_spectra_match_eigvalsh(_analyze_or_partial(config))


@pytest.mark.parametrize("config", [
    # the step map is nearly the identity: near-zero eigenvalues in both blocks
    RunConfig(couplings=CouplingParams(tau1=1e-3, tau2=1e-3), n_max=60),
    RunConfig(couplings=CouplingParams(tau2=SWAP_TAU), n_max=60),
    RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=-0.4),
              n_max=120),
], ids=["identity_like", "markovian_swap", "anisotropic"])
def test_closed_form_spectra_match_eigvalsh_on_degenerate_channels(config):
    _assert_spectra_match_eigvalsh(analyze(config))


def test_nonpositivity_comes_from_a_negative_diagonal_choi_entry():
    """On random grids, every row with N_q > tol_pos has a population entry
    outside [0, 1], a diagonal Choi entry, which bounds the minimum Choi
    eigenvalue from above."""
    rng = np.random.default_rng(2026)
    configs = [RunConfig(
        spins=SpinParams(*rng.uniform(0.6, 1.4, 3)),
        couplings=CouplingParams(
            g_sm=rng.uniform(0.05, 0.4), g_ma=rng.uniform(0.05, 0.4),
            tau1=rng.uniform(0.05, 0.6), tau2=rng.uniform(0.05, 0.6),
            gamma=rng.uniform(-1.0, 1.0),
            sm_interaction_kind=(ISOTROPIC, ANISOTROPIC)[i % 2]),
        thermal=ThermalSpec(beta=rng.uniform(0.2, 3.0)), n_max=200)
        for i in range(24)]
    positive = 0
    for outcome in _analyze_grid(configs):
        result = getattr(outcome, "partial_result", outcome)
        cols, tol_pos = result.columns, result.summary.tol_pos
        rows = cols["n_q"] > tol_pos
        a, b = cols["a"][rows], cols["b"][rows]
        diagonal_min = np.minimum.reduce([a, 1.0 - a, b, 1.0 - b])
        assert (diagonal_min < 0.0).all()
        assert (cols["choi_min_eig"][rows] <= diagonal_min + 1e-15).all()
        positive += int(rows.sum())
    assert positive >= 1000


@pytest.mark.parametrize("config", [
    RunConfig(spins=SpinParams(omega_s=0.8), n_max=120),
    RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=0.5),
              n_max=120),
    RunConfig(couplings=CouplingParams(tau2=SWAP_TAU), n_max=60),
], ids=["detuned", "anisotropic", "markovian_swap"])
def test_fixed_configurations_match_per_collision_routes(config):
    result = analyze(config)
    assert len(result.records) == config.n_max
    assert len(result.family) == config.n_max + 1
    _assert_matches_oracle(result)
    assert result.summary.implication_violations == 0


def test_singular_swap_truncates_like_the_scalar_route():
    config = RunConfig(couplings=CouplingParams(tau1=SWAP_TAU), n_max=5)
    with pytest.raises(SingularMapError) as exc_info:
        analyze(config)
    err = exc_info.value
    assert err.step == 2
    partial = err.partial_result
    assert len(partial.records) == 1
    _assert_matches_oracle(partial)
    # the scalar route rejects the same predecessor
    with pytest.raises(SingularMapError):
        oracles.time_local_map(oracles.affine_family(partial.states), 2)


def test_invariant_drift_truncates_with_partial_result(monkeypatch):
    config = RunConfig(n_max=200)
    full = analyze(config)
    monkeypatch.setattr(engine, "DRIFT_TOL", 1e-14)
    with pytest.raises(RuntimeError) as exc_info:
        analyze(config)
    err = exc_info.value
    assert isinstance(err, InvariantDriftError)
    assert 1 <= err.step < config.n_max
    partial = err.partial_result
    assert len(partial.records) == err.step - 1
    assert len(partial.family) == len(partial.states) == err.step
    assert partial.summary.n_max == config.n_max
    # the rows before the drift are those of the run at the default bound
    assert partial.records == full.records[:err.step - 1]
    assert np.array_equal(partial.states, full.states[:err.step])


def test_zero_duration_collisions_give_zero_rhp_measure():
    result = analyze(RunConfig(couplings=CouplingParams(tau1=0.0, tau2=0.0),
                               n_max=50))
    assert result.summary.i_rhp == 0.0
    assert result.summary.i_lfs == 0.0
    assert result.summary.sum_nq == 0.0


def _analyze_grid(configs) -> list:
    """Each point of a stacked grid: its RunResult, or the error it raised."""
    outcomes = []
    states, errors = evolve_runs(configs)
    for p, (config, error) in enumerate(zip(configs, errors)):
        try:
            outcomes.append(analyze_evolved(config, states[:, p], error))
        except (SingularMapError, InvariantDriftError) as exc:
            outcomes.append(exc)
    return outcomes


def _analyze_alone(config):
    try:
        return analyze(config)
    except (SingularMapError, InvariantDriftError) as exc:
        return exc


def _assert_same_outcome(got, want) -> None:
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert got.step == want.step and str(got) == str(want)
        got, want = got.partial_result, want.partial_result
    assert got.records == want.records
    assert got.summary == want.summary


GRID_N_MAX = 90


def test_analyzed_grid_points_equal_single_runs():
    configs = [
        RunConfig(n_max=GRID_N_MAX),
        RunConfig(spins=SpinParams(omega_s=0.8, omega_a=1.2), n_max=GRID_N_MAX),
        RunConfig(couplings=CouplingParams(tau1=SWAP_TAU), n_max=GRID_N_MAX),
        RunConfig(couplings=CouplingParams(tau2=SWAP_TAU), n_max=GRID_N_MAX),
        RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC,
                                           gamma=-0.4, g_ma=0.3),
                  thermal=ThermalSpec(beta=0.5), n_max=GRID_N_MAX),
    ]
    outcomes = _analyze_grid(configs)
    for config, got in zip(configs, outcomes):
        _assert_same_outcome(got, _analyze_alone(config))
    singular = outcomes[2]
    assert isinstance(singular, SingularMapError)
    assert singular.step == 2 and len(singular.partial_result.records) == 1
    for index in (0, 1, 3, 4):
        assert len(outcomes[index].records) == GRID_N_MAX


def test_drifting_grid_point_fails_at_its_own_step(monkeypatch):
    configs = [RunConfig(n_max=200),
               RunConfig(spins=SpinParams(omega_s=0.9), n_max=200),
               RunConfig(couplings=CouplingParams(g_sm=0.3, tau2=0.1),
                         thermal=ThermalSpec(beta=0.5), n_max=200)]
    full = _analyze_grid(configs)   # default bound
    monkeypatch.setattr(engine, "DRIFT_TOL", 1e-14)
    outcomes = _analyze_grid(configs)
    assert len({drift.step for drift in outcomes}) == len(configs)
    for config, drift, want in zip(configs, outcomes, full):
        assert isinstance(drift, InvariantDriftError)
        assert 1 <= drift.step < 200
        _assert_same_outcome(drift, _analyze_alone(config))
        assert drift.partial_result.records == want.records[:drift.step - 1]


def test_grid_points_must_share_the_initial_state():
    with pytest.raises(ValueError):
        evolve_runs([RunConfig(n_max=3),
                     RunConfig(n_max=3, initial_system=np.diag([1.0, 0.0]))])


# Largest gap between the array pass and the 3x3 affine route on any
# witness column but residual, relative for magnitudes above 1; measured
# 5.6e-15 (c_abs2_margin at detuning -0.05).
AFFINE_ROUTE_TOL = 1e-14
# The residual of the affine route is rounding of an exact zero; measured
# at most 6.2e-14 (detuning -0.07). The array pass has none.
AFFINE_RESIDUAL_TOL = 1e-13
_FIELDS_BUT_RESIDUAL = ("p0", "p1", "a", "b", "c", "d", "n_q", "g_n", "delta_i",
                        "avg_de", "c_abs2_margin", "d_abs2_margin",
                        "choi_min_eig")


def _assert_close_to_affine_route(result, states) -> None:
    want, error = oracles.affine_columns(states, result.config.spins.omega_s)
    assert error is None
    got = result.columns
    for name in _FIELDS_BUT_RESIDUAL:
        gap = np.abs(got[name] - want[name])
        assert (gap <= AFFINE_ROUTE_TOL * np.maximum(1.0, np.abs(want[name]))).all(), name
    assert np.array_equal(got["n"], want["n"])
    assert not got["residual"].any()
    assert want["residual"].max() <= AFFINE_RESIDUAL_TOL
    # window indices and implication violations are identical
    ours, theirs = result.summary, summarize(want, n_max=result.config.n_max)
    for name in ("first_nq_positive", "last_nq_positive", "first_g_positive",
                 "last_g_positive", "implication_violations"):
        assert getattr(ours, name) == getattr(theirs, name), name
    for name in ("i_rhp", "i_lfs", "sum_nq"):
        assert getattr(ours, name) == pytest.approx(getattr(theirs, name),
                                                    rel=AFFINE_ROUTE_TOL)


@pytest.mark.parametrize("config", [
    RunConfig(),
    RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=-0.4)),
    RunConfig(n_max=50),
], ids=["reference", "anisotropic", "n_max_50"])
def test_array_pass_stays_within_bound_of_the_affine_route(config):
    result = analyze(config)
    _assert_close_to_affine_route(result, result.states)


def test_sweep_points_stay_within_bound_of_the_affine_route():
    # detuning points around the 09a peaks and anisotropy points, each
    # grid evolved as one stack, as kdqflux sweep does
    detuning = [RunConfig(spins=SpinParams(omega_s=1.0 + d)) for d in (-0.07, -0.05, 0.3)]
    anisotropy = [RunConfig(couplings=CouplingParams(
        sm_interaction_kind=ANISOTROPIC, gamma=gamma)) for gamma in (-1.0, 0.02, 0.5)]
    for grid in (detuning, anisotropy):
        states, errors = evolve_runs(grid)
        for p, config in enumerate(grid):
            assert errors[p] is None
            result = analyze_evolved(config, states[:, p])
            _assert_close_to_affine_route(result, states[:, p])


def _random_short_config(rng) -> RunConfig:
    """A configuration drawn like the benchmark's short random runs:
    frequencies in [0.6, 1.4], couplings and durations in [0.05, 0.4],
    log-uniform beta in [0.2, 3], anisotropic half the time, 20-100
    collisions."""
    u = rng.uniform
    anisotropic = rng.random() < 0.5
    return RunConfig(
        spins=SpinParams(*u(0.6, 1.4, 3)),
        couplings=CouplingParams(
            *u(0.05, 0.4, 4), gamma=u(-1.0, 1.0) if anisotropic else 0.0,
            sm_interaction_kind=ANISOTROPIC if anisotropic else ISOTROPIC),
        thermal=ThermalSpec(beta=float(np.exp(u(np.log(0.2), np.log(3.0))))),
        n_max=int(rng.integers(20, 101)))


def test_array_pass_equals_the_bloch_route_bit_for_bit():
    # the family, every column (signs of zeros included), the summary and
    # the singular step of the array pass against the route through
    # Pauli-trace Bloch vectors and spectra given their determinants
    rng = np.random.default_rng(14)
    configs = [
        RunConfig(),
        RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=-0.4)),
        RunConfig(n_max=50),
        RunConfig(spins=SpinParams(omega_s=0.93), n_max=300),
        RunConfig(couplings=CouplingParams(tau1=SWAP_TAU), n_max=5),
    ] + [_random_short_config(rng) for _ in range(40)]
    steps = []
    for config in configs:
        try:
            result, error = analyze(config), None
        except SingularMapError as exc:
            result, error = exc.partial_result, exc
        family, columns, want_error = oracles.bloch_route(
            result.states, config.spins.omega_s)
        assert oracles.same_bits(result.family, family)
        assert list(result.columns) == list(columns)
        for name, want in columns.items():
            assert oracles.same_bits(result.columns[name], want), name
        assert repr(result.summary) == repr(summarize(columns, n_max=config.n_max))
        assert repr(error) == repr(want_error)
        steps.append(error and error.step)
    assert steps[4] == 2 and steps.count(None) == len(configs) - 1


def test_one_pass_columns_equal_the_two_stage_composition():
    # witness_columns takes the Choi spectra of the cumulative and the step
    # maps from one call over both stacks; its columns are the bits of the
    # stages run apart: delta_i of lfs_series(family), the spectrum columns
    # of choi_eigenvalues(steps) alone, and the rest under identity
    # cumulative maps
    rng = np.random.default_rng(18)
    configs = [
        RunConfig(),
        RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=-0.4)),
        RunConfig(couplings=CouplingParams(tau1=SWAP_TAU)),
        RunConfig(n_max=0),
    ] + [_random_short_config(rng) for _ in range(20)]
    identity = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
    lengths = []
    for config in configs:
        states, (error,) = evolve_runs([config])
        assert error is None
        states = states[:, 0]
        try:
            result = analyze_evolved(config, states)
        except SingularMapError as exc:
            result = exc.partial_result
        family = phase_covariant_maps(states[:, 1:])
        steps, _ = time_local_family(family)
        n = len(steps)
        rho_pre, omega_s = states[:n, 0], config.spins.omega_s
        want = witness_columns(np.tile(identity, (n + 1, 1)), steps, rho_pre, omega_s)
        w, c_margin, d_margin = choi_eigenvalues(steps)
        want.update(delta_i=lfs_series(family)[:n],
                    g_n=np.abs(w).sum(axis=-1) / 2.0 - 1.0, choi_min_eig=w.min(axis=-1),
                    c_abs2_margin=c_margin, d_abs2_margin=d_margin)
        for got in (witness_columns(family, steps, rho_pre, omega_s), result.columns):
            assert list(got) == list(want)
            for name in want:
                assert oracles.same_bits(got[name], want[name]), name
        lengths.append(n)
    # the swap stops at its singular step 2; n_max = 0 has no collisions
    assert lengths[:4] == [1000, 1000, 1, 0]
