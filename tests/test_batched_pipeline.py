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

from kdqflux import linalg
from kdqflux.analysis import (_witness_columns, analyze, analyze_evolved,
                              evolve_runs)
from kdqflux.engine import InvariantDriftError, RunConfig, Tolerances
from kdqflux.model import (ANISOTROPIC, ISOTROPIC, CouplingParams, SpinParams,
                           ThermalSpec, maximally_entangled_state)
from kdqflux.tomography import (SingularMapError, affine_to_superoperator, choi,
                                density_from_bloch, extract_phase_covariant,
                                time_local_family, time_local_map)
from kdqflux.witnesses import (EnergyBasis, avg_energy_change, cp_conditions,
                               kdq_general, lfs_series, nonpositivity, qmi,
                               rhp_increment)

TOL = 1e-12
SWAP_TAU = np.pi / (2 * 0.2)     # g * tau = pi/2: a full swap
SPECTRUM_TOL = 1e-14             # closed-form spectra against eigvalsh


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
    return choi(affine_to_superoperator(steps))[:len(result.records)]


def _assert_spectra_match_eigvalsh(result) -> None:
    """g_n, the minimum Choi eigenvalue and delta_i against eigvalsh."""
    w = np.linalg.eigvalsh(_step_chois(result))
    cols = result.columns
    assert np.abs(cols["g_n"] - (np.abs(w).sum(axis=1) / 2 - 1)).max(
        initial=0.0) <= SPECTRUM_TOL
    assert np.abs(cols["choi_min_eig"] - w[:, 0]).max(initial=0.0) <= SPECTRUM_TOL
    # QMI of J_n / 2 through the eigvalsh entropies of witnesses.qmi
    chois = choi(affine_to_superoperator(result.family))
    qmis = np.array([qmi(j / 2) for j in chois])
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


def _from_choi(j: np.ndarray) -> np.ndarray:
    """Superoperators of a (n, 4, 4) Choi stack; inverse of ``choi``."""
    return j.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3).reshape(j.shape)


def _inject_cross_block(j: np.ndarray, size: float, rng) -> np.ndarray:
    """Add Hermitian entries of magnitude ``size`` between the (0, 3) and
    (1, 2) blocks of every other member."""
    j = j.copy()
    for row, col in ((0, 1), (0, 2), (3, 1), (3, 2)):
        e = size * np.exp(2j * np.pi * rng.random(len(j[::2])))
        j[::2, row, col] += e
        j[::2, col, row] += e.conj()
    return j


def test_off_pattern_members_fall_back_to_eigvalsh(monkeypatch):
    rng = np.random.default_rng(5)
    result = analyze(RunConfig(n_max=120))
    # step maps with off-pattern entries far above linalg.BLOCK_TOL
    j = _inject_cross_block(_step_chois(result), 1e-3, rng)
    sops, rho_pre = _from_choi(j), result.physical.system_states[:120]

    def spectra():
        cols = _witness_columns(sops, rho_pre, result.columns["delta_i"], 1.0)
        return cols[8], cols[-1]                    # g_n, min Choi eigenvalue
    g_n, min_eig = spectra()
    w = np.linalg.eigvalsh(j)
    assert np.abs(g_n - (np.abs(w).sum(axis=1) / 2 - 1)).max() <= SPECTRUM_TOL
    assert np.abs(min_eig - w[:, 0]).max() <= SPECTRUM_TOL
    # the closed form alone would be far off on the injected members
    monkeypatch.setattr(linalg, "BLOCK_TOL", np.inf)
    assert np.abs(spectra()[1] - w[:, 0])[::2].min() > 1e-9
    monkeypatch.undo()

    # reference-system states mixed with a channel that is not phase
    # covariant (amplitude damping along x), so they stay valid states
    k0 = np.array([[1, 0], [0, np.sqrt(0.6)]])
    k1 = np.array([[0, np.sqrt(0.4)], [0, 0]])
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    kraus = [h @ k @ h for k in (k0, k1)]
    j_x = sum(np.kron(np.eye(2), k) @ (2 * maximally_entangled_state()) @
              np.kron(np.eye(2), k).conj().T for k in kraus)
    chois = choi(affine_to_superoperator(result.family))
    chois[1::2] = 0.9 * chois[1::2] + 0.1 * j_x
    delta_i, _ = lfs_series(chois)
    qmis = np.array([qmi(c / 2) for c in chois])
    assert np.abs(delta_i - np.diff(qmis)).max() <= SPECTRUM_TOL
    monkeypatch.setattr(linalg, "BLOCK_TOL", np.inf)
    assert np.abs(lfs_series(chois)[0] - np.diff(qmis)).max() > 1e-9


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
