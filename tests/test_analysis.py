import numpy as np
import pytest

from kdqflux.analysis import TOL_POS, RunSummary, analyze, summarize
from kdqflux.engine import RunConfig
from kdqflux.model import ANISOTROPIC, CouplingParams, SpinParams
from kdqflux.tomography import SingularMapError, affine_to_superoperator, choi
from kdqflux.witnesses import lfs_series
from oracles import kdq_general, time_local_map

SWAP_TAU = np.pi / (2 * 0.2)


@pytest.fixture(scope="module")
def fig1_short():
    return analyze(RunConfig(n_max=120))


def test_witness_windows_small_scale(fig1_short):
    s = fig1_short.summary
    assert s.first_nq_positive == 40
    assert s.first_g_positive == 40
    assert s.implication_violations == 0
    assert s.max_off_pattern_residual <= 1e-10
    assert s.max_abs_d <= 1e-10


def test_record_invariants(fig1_short):
    nq = fig1_short.record_array("n_q")
    g = fig1_short.record_array("g_n")
    assert np.all(nq >= 0.0)
    assert np.all(g >= -1e-12)
    steps = fig1_short.record_array("n")
    assert np.array_equal(steps, np.arange(1, 121))


def test_summary_totals_consistent(fig1_short):
    s = fig1_short.summary
    g = fig1_short.record_array("g_n")
    delta = fig1_short.record_array("delta_i")
    nq = fig1_short.record_array("n_q")
    assert s.i_rhp == pytest.approx(g[g > s.tol_pos].sum(), abs=1e-14)
    assert s.i_lfs == pytest.approx(delta[delta > s.tol_pos].sum(), abs=1e-14)
    assert s.sum_nq == pytest.approx(nq[nq > s.tol_pos].sum(), abs=1e-14)


def test_delta_i_matches_lfs_series(fig1_short):
    delta = lfs_series(choi(affine_to_superoperator(fig1_short.family)))
    assert np.allclose(fig1_short.record_array("delta_i"), delta, atol=1e-13)
    i_lfs = delta[delta > fig1_short.summary.tol_pos].sum()
    assert fig1_short.summary.i_lfs == pytest.approx(i_lfs, abs=1e-13)


def test_kdq_routes_agree_along_run(fig1_short):
    for n in (1, 25, 40, 77, 120):
        rec = fig1_short.records[n - 1]
        sop = affine_to_superoperator(time_local_map(fig1_short.family, n))
        rho_pre = fig1_short.states[n - 1, 0]
        q = kdq_general(sop, rho_pre)
        closed = [[rec.a * rec.p0, (1 - rec.a) * rec.p0],
                  [rec.b * rec.p1, (1 - rec.b) * rec.p1]]
        assert np.max(np.abs(q - closed)) <= 1e-12
        assert abs(q.sum() - 1.0) <= 1e-12
        assert np.allclose(q.sum(axis=1), [rec.p0, rec.p1], atol=1e-12)
        assert rec.n_q == pytest.approx(np.abs(q).sum() - 1.0, abs=1e-14)
        # diagonal pre-collision state: the KDQ values stay real
        assert np.max(np.abs(q.imag)) <= 1e-12


def test_main_theorem_along_run(fig1_short):
    nq = fig1_short.record_array("n_q")
    min_eig = fig1_short.record_array("choi_min_eig")
    tol = fig1_short.summary.tol_pos
    positive = nq > tol
    assert positive.any()
    assert np.all(min_eig[positive] < -tol)


def test_cp_margin_fields(fig1_short):
    rec = fig1_short.records[49]   # inside the non-CP window
    assert rec.c_abs2_margin == pytest.approx(
        rec.a * (1 - rec.b) - abs(rec.c) ** 2, abs=1e-14)
    assert rec.d_abs2_margin == pytest.approx(
        rec.b * (1 - rec.a) - abs(rec.d) ** 2, abs=1e-14)
    assert (rec.a < 0 or rec.a > 1) or (rec.b < 0 or rec.b > 1)


def test_markovian_limit_everything_vanishes():
    result = analyze(RunConfig(couplings=CouplingParams(tau2=SWAP_TAU), n_max=60))
    assert result.record_array("n_q").max() <= 1e-10
    assert result.record_array("g_n").max() <= 1e-10
    assert result.record_array("delta_i").max() <= 1e-10
    assert result.summary.i_rhp <= 1e-10
    assert result.summary.first_nq_positive is None
    assert result.summary.first_g_positive is None
    # every step map of the CP-divisible family has a PSD Choi matrix
    assert result.record_array("choi_min_eig").min() >= -1e-10


def test_anisotropic_run_couples_coherence_sectors():
    config = RunConfig(
        couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=0.5),
        n_max=120)
    result = analyze(config)
    assert result.summary.max_abs_d > 1e-6
    assert result.summary.max_off_pattern_residual <= 1e-10


def test_summary_equals_python_reductions_of_records_bit_for_bit():
    # gamma = -0.4: numpy's complex abs and Python's abs differ by one ulp
    # on the largest |d| of this run, so max_abs_d must use Python's
    config = RunConfig(
        couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=-0.4),
        n_max=120)
    result = analyze(config)
    records, tol = result.records, TOL_POS
    assert len(records) == 120
    nq_steps = [r.n for r in records if r.n_q > tol]
    g_steps = [r.n for r in records if r.g_n > tol]
    want = RunSummary(
        n_max=120,
        i_rhp=float(np.array([r.g_n for r in records if r.g_n > tol]).sum()),
        i_lfs=float(np.array([r.delta_i for r in records if r.delta_i > tol]).sum()),
        sum_nq=float(np.array([r.n_q for r in records if r.n_q > tol]).sum()),
        first_nq_positive=nq_steps[0], last_nq_positive=nq_steps[-1],
        first_g_positive=g_steps[0], last_g_positive=g_steps[-1],
        implication_violations=sum(r.n_q > tol and r.choi_min_eig >= -tol
                                   for r in records),
        max_off_pattern_residual=max(r.residual for r in records),
        max_abs_d=max(abs(r.d) for r in records), tol_pos=tol)
    got = result.summary
    for name in vars(want):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert got.max_abs_d > 1e-6


def test_detuned_run_stays_phase_covariant():
    result = analyze(RunConfig(spins=SpinParams(omega_s=0.8), n_max=120))
    assert result.summary.max_off_pattern_residual <= 1e-10
    assert result.summary.max_abs_d <= 1e-10


def test_singular_map_aborts_with_partial_result():
    # a full S-M swap makes the first cumulative map constant (M_1 = 0), so
    # the time-local map at step 2 requires inverting a singular matrix
    config = RunConfig(couplings=CouplingParams(tau1=SWAP_TAU), n_max=5)
    with pytest.raises(SingularMapError) as exc_info:
        analyze(config)
    err = exc_info.value
    assert err.step == 2
    assert len(err.partial_result.records) == 1
    assert err.partial_result.summary.n_max == 5


def test_summarize_empty_records():
    s = summarize([], n_max=0)
    assert s.i_rhp == 0.0 and s.i_lfs == 0.0 and s.sum_nq == 0.0
    assert s.first_nq_positive is None and s.last_g_positive is None


def test_reconstructed_family_has_identity_at_n0(fig1_short):
    family = fig1_short.family
    assert np.allclose(family.m[0], np.eye(3), atol=1e-14)
    assert np.allclose(family.c[0], 0.0, atol=1e-14)
