"""The array pass of ``analyze`` against the per-collision routes.

Every WitnessRecord field is recomputed collision by collision with the
public scalar functions (``time_local_map``, ``affine_to_superoperator``,
``kdq_general``, ``rhp_increment``, ...) from the run's own cumulative maps
and physical states, and must agree with the batched values.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kdqflux.analysis import analyze, analyze_evolved, evolve_runs
from kdqflux.engine import InvariantDriftError, RunConfig, Tolerances
from kdqflux.model import (ANISOTROPIC, ISOTROPIC, CouplingParams, SpinParams,
                           ThermalSpec)
from kdqflux.tomography import (SingularMapError, affine_to_superoperator, choi,
                                density_from_bloch, extract_phase_covariant,
                                time_local_map)
from kdqflux.witnesses import (EnergyBasis, avg_energy_change, cp_conditions,
                               kdq_general, lfs_series, nonpositivity,
                               rhp_increment)

TOL = 1e-12
SWAP_TAU = np.pi / (2 * 0.2)     # g * tau = pi/2: a full swap


def _analyze_or_partial(config: RunConfig):
    try:
        return analyze(config)
    except SingularMapError as exc:
        return exc.partial_result


def _assert_matches_oracle(result) -> None:
    """Recompute every record with the scalar routes and compare."""
    omega_s = result.config.spins.omega_s
    basis = EnergyBasis(omega_s=omega_s)
    delta_i, _ = lfs_series([choi(affine_to_superoperator(m)) for m in result.maps])
    for rec in result.records:
        n = rec.n
        sop = affine_to_superoperator(
            time_local_map(result.maps[n], result.maps[n - 1], step=n))
        entries = extract_phase_covariant(sop)
        j_mat = choi(sop)
        rho_pre = result.physical.system_states[n - 1]
        p0, p1 = rho_pre[0, 0].real, rho_pre[1, 1].real
        _, margins = cp_conditions(entries)
        kdq = kdq_general(sop, rho_pre, basis)
        # the KDQ marginal over final outcomes is the pre-collision population
        assert np.abs(kdq.marginal_in() - [p0, p1]).max() <= TOL, n
        expected = {
            "p0": p0, "p1": p1, "a": entries.a, "b": entries.b,
            "c": entries.c, "d": entries.d,
            "residual": entries.off_pattern_residual,
            "n_q": nonpositivity(kdq),
            "g_n": rhp_increment(j_mat),
            "delta_i": delta_i[n - 1],
            "avg_de": avg_energy_change(entries, p0, p1, omega_s),
            "c_abs2_margin": margins.c_margin,
            "d_abs2_margin": margins.d_margin,
            "choi_min_eig": np.linalg.eigvalsh((j_mat + j_mat.conj().T) / 2)[0],
        }
        for name, value in expected.items():
            got = getattr(rec, name)
            assert abs(got - value) <= TOL * max(1.0, abs(value)), (n, name, got, value)
        assert isinstance(rec.n, int) and isinstance(rec.c, complex)
        assert isinstance(rec.n_q, float) and isinstance(rec.g_n, float)
    assert [r.n for r in result.records] == list(range(1, len(result.records) + 1))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(omega_s=st.floats(0.5, 1.5), omega_m=st.floats(0.5, 1.5),
       omega_a=st.floats(0.5, 1.5), g_sm=st.floats(0.05, 0.4),
       g_ma=st.floats(0.05, 0.4), tau1=st.floats(0.0, 1.0),
       tau2=st.floats(0.0, 1.0), beta=st.floats(0.0, 3.0),
       gamma=st.floats(-1.0, 1.0), sm_kind=st.sampled_from([ISOTROPIC, ANISOTROPIC]),
       n_max=st.integers(5, 60),
       bloch=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, np.pi),
                       st.floats(0.0, 2 * np.pi)))
def test_batched_records_match_per_collision_routes(
        omega_s, omega_m, omega_a, g_sm, g_ma, tau1, tau2, beta, gamma,
        sm_kind, n_max, bloch):
    radius, polar, azimuth = bloch
    initial = density_from_bloch(radius * np.array([
        np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
        np.cos(polar)]))
    config = RunConfig(
        spins=SpinParams(omega_s=omega_s, omega_m=omega_m, omega_a=omega_a),
        couplings=CouplingParams(g_sm=g_sm, g_ma=g_ma, tau1=tau1, tau2=tau2,
                                 gamma=gamma, sm_interaction_kind=sm_kind),
        thermal=ThermalSpec(beta=beta), initial_system=initial, n_max=n_max)
    result = _analyze_or_partial(config)
    _assert_matches_oracle(result)
    # the paper's theorem: N_q > 0 only where the step map is not CP
    assert result.summary.implication_violations == 0
    if sm_kind == ISOTROPIC:
        # excitation-number conservation: d vanishes up to round-off
        for rec in result.records:
            assert abs(rec.d) <= 1e-10 and rec.residual <= 1e-10, rec.n


@pytest.mark.parametrize("config", [
    RunConfig(spins=SpinParams(omega_s=0.8), n_max=120),
    RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=0.5),
              n_max=120),
    RunConfig(couplings=CouplingParams(tau2=SWAP_TAU), n_max=60),
], ids=["detuned", "anisotropic", "markovian_swap"])
def test_fixed_configurations_match_per_collision_routes(config):
    result = analyze(config)
    assert len(result.records) == config.n_max
    assert len(result.maps) == config.n_max + 1
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
        time_local_map(partial.maps[2], partial.maps[1], step=2)


def test_invariant_drift_truncates_with_partial_result():
    config = RunConfig(n_max=200, tolerances=Tolerances(drift=1e-14))
    with pytest.raises(RuntimeError) as exc_info:
        analyze(config)
    err = exc_info.value
    assert isinstance(err, InvariantDriftError)
    assert 1 <= err.step < config.n_max
    partial = err.partial_result
    assert len(partial.records) == err.step - 1
    assert len(partial.maps) == err.step
    assert partial.summary.n_max == config.n_max
    # the rows before the drift are those of an unconstrained run
    full = analyze(dataclasses.replace(config, tolerances=Tolerances()))
    assert partial.records == full.records[:err.step - 1]


def test_zero_duration_collisions_give_zero_rhp_measure():
    result = analyze(RunConfig(couplings=CouplingParams(tau1=0.0, tau2=0.0),
                               n_max=50))
    assert result.summary.i_rhp == 0.0
    assert result.summary.i_lfs == 0.0
    assert result.summary.sum_nq == 0.0


def _analyze_grid(configs) -> list:
    """Each point of a stacked grid: its RunResult, or the error it raised."""
    outcomes = []
    for config, evolved in zip(configs, evolve_runs(configs)):
        try:
            outcomes.append(analyze_evolved(config, evolved))
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


def test_drifting_grid_point_fails_at_its_own_step():
    configs = [RunConfig(n_max=200),
               RunConfig(n_max=200, tolerances=Tolerances(drift=1e-14)),
               RunConfig(spins=SpinParams(omega_s=0.9), n_max=200)]
    outcomes = _analyze_grid(configs)
    drift = outcomes[1]
    assert isinstance(drift, InvariantDriftError)
    assert 1 <= drift.step < 200
    for config, got in zip(configs, outcomes):
        _assert_same_outcome(got, _analyze_alone(config))
    assert drift.partial_result.records == outcomes[0].records[:drift.step - 1]


def test_grid_points_must_share_the_initial_state():
    with pytest.raises(ValueError):
        evolve_runs([RunConfig(n_max=3),
                     RunConfig(n_max=3, initial_system=np.diag([1.0, 0.0]))])
