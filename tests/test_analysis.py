import dataclasses

import numpy as np
import pytest

from kdqflux.analysis import (TOL_POS, RunSummary, analyze, analyze_evolved,
                              evolve_runs, summarize)
from kdqflux.engine import RunConfig
from kdqflux.model import (ANISOTROPIC, ISOTROPIC, CouplingParams, SpinParams,
                           ThermalSpec)
from kdqflux.tomography import SingularMapError
from oracles import (affine_family, affine_to_superoperator, choi, kdq_general,
                     pattern_superoperator, qmi, same_bits, time_local_map)
from test_witnesses import zero_table

SWAP_TAU = np.pi / (2 * 0.2)
# the largest |N_q| on the reference point's CP rows, where the exact N_q is
# 0 (test_nq_on_cp_rows_bounds_the_accuracy), and that plus a third: the
# accuracy to which N_q >= 0 holds on the reference point's rows
REFERENCE_CP_NQ = 6.97e-14
NQ_ACCURACY = REFERENCE_CP_NQ * (1 + 1 / 3)


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
    assert np.all(nq >= -NQ_ACCURACY)
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
    # the QMI of the full Choi states J_n / 2 of the run's cumulative maps
    chois = choi(pattern_superoperator(fig1_short.family))
    delta = np.diff([qmi(j / 2) for j in chois])
    assert np.allclose(fig1_short.record_array("delta_i"), delta, atol=1e-13)
    i_lfs = delta[delta > fig1_short.summary.tol_pos].sum()
    assert fig1_short.summary.i_lfs == pytest.approx(i_lfs, abs=1e-13)


def test_kdq_routes_agree_along_run(fig1_short):
    family = affine_family(fig1_short.states)
    for n in (1, 25, 40, 77, 120):
        rec = fig1_short.records[n - 1]
        sop = affine_to_superoperator(time_local_map(family, n))
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
    # gamma = -0.4: numpy's complex abs differs from Python's abs by an ulp
    # on 49 of the 120 |d| of this run; max_abs_d keeps Python's bits
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


def _margin_cases():
    """The reference point, gamma = -0.4, a detuned isotropic run, no
    collisions, and 20 random short runs of either coupling kind."""
    rng = np.random.default_rng(31)
    cases = [RunConfig(),
             RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC,
                                                gamma=-0.4)),
             RunConfig(spins=SpinParams(omega_s=0.8), n_max=300),
             RunConfig(n_max=0)]
    for i in range(20):
        kind = (ISOTROPIC, ANISOTROPIC)[i % 2]
        cases.append(RunConfig(
            spins=SpinParams(*rng.uniform(0.6, 1.4, 3)),
            couplings=CouplingParams(*rng.uniform(0.05, 0.4, 4),
                                     gamma=rng.uniform(-1.0, 1.0),
                                     sm_interaction_kind=kind),
            thermal=ThermalSpec(beta=np.exp(rng.uniform(np.log(0.2),
                                                        np.log(3.0)))),
            n_max=int(rng.integers(20, 101))))
    return cases


def test_margins_and_maxima_equal_their_python_expressions():
    # the CP margins are the Choi block determinants that the spectrum
    # forms, and the summary maxima are numpy reductions: both have the
    # bits of the expressions they replace, so summary.json does not move
    for config in _margin_cases():
        result = analyze(config)
        c = result.columns
        a, b = c["a"], c["b"]
        assert same_bits(c["c_abs2_margin"], a * (1.0 - b) - np.abs(c["c"]) ** 2)
        assert same_bits(c["d_abs2_margin"], b * (1.0 - a) - np.abs(c["d"]) ** 2)
        want = dataclasses.replace(
            result.summary,
            max_off_pattern_residual=max(c["residual"].tolist(), default=0.0),
            max_abs_d=max(map(abs, c["d"].tolist()), default=0.0))
        assert repr(result.summary) == repr(want), config


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
    s = summarize(zero_table(0), n_max=0)
    assert s.i_rhp == 0.0 and s.i_lfs == 0.0 and s.sum_nq == 0.0
    assert s.first_nq_positive is None and s.last_g_positive is None


def test_reconstructed_family_has_identity_at_n0(fig1_short):
    family = fig1_short.family
    assert family.shape == (121, 4)
    # (a, b, c, d) of the identity channel
    assert np.allclose(family[0], [1.0, 0.0, 1.0, 0.0], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("config, cp_rows, measured", [
    (RunConfig(), 354, REFERENCE_CP_NQ),
    (RunConfig(couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC,
                                        gamma=-0.4)), 219, 1.50e-13),
    (RunConfig(spins=SpinParams(omega_s=0.95)), 513, 6.74e-13),
], ids=["reference", "anisotropic", "detuning_-0.05"])
def test_nq_on_cp_rows_bounds_the_accuracy(config, cp_rows, measured):
    """On a row whose step map is CP, a and b lie in [0, 1] and the exact
    N_q is 0, so the largest |N_q| there is the error of the pipeline, with
    no oracle: the trace drift of the evolved physical state. The bound is
    the measured value plus a third of it."""
    cols = analyze(config).columns
    cp = cols["choi_min_eig"] >= -TOL_POS
    assert cp.sum() == cp_rows
    assert np.abs(cols["n_q"][cp]).max() <= measured * (1 + 1 / 3)


def test_array_pass_takes_no_eigendecomposition(monkeypatch):
    # every spectrum of the array pass comes from 2x2 blocks in closed form,
    # and so does the minimum eigenvalue of RunConfig's initial state
    couplings = CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=-0.4)
    config = RunConfig(n_max=120, couplings=couplings)
    states, (error,) = evolve_runs([config])
    want = analyze_evolved(config, states[:, 0], error)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition in the array pass or validation")
    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    got = analyze_evolved(config, states[:, 0], error)
    assert got.records == want.records
    RunConfig(n_max=120, couplings=couplings)
    RunConfig(initial_system=np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    with pytest.raises(ValueError, match="not a valid density matrix"):
        RunConfig(initial_system=np.array([[0.5, 0.6], [0.6, 0.5]]))
