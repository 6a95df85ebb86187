"""The pipeline against the collision model evolved in extended precision.

``oracles.longdouble_states`` evolves the five trajectories of a
configuration (the physical state and the four probes) in numpy's
``clongdouble``, from propagators and Gibbs weights built in long double.
Its own error is about 1e-16 over 1000 collisions, a thousandth of the
pipeline's, so the differences below are the pipeline's rounding. The
oracle's columns and summary are the package's array pass
(``analysis.analyze_evolved``) applied to the oracle's states: the bounds
measure how the evolution's rounding reaches every ``collisions.csv``
column, ``I_RHP``, ``I_LFS`` and ``sum N_q``.

Each bound is the largest error measured under three OpenBLAS kernels
(the default ``SkylakeX``, ``Haswell`` and ``Sandybridge``, chosen with
``OPENBLAS_CORETYPE``), times ``MARGIN``.
"""

import numpy as np
import pytest

from kdqflux import tomography
from kdqflux.analysis import analyze, analyze_evolved
from kdqflux.engine import RunConfig
from kdqflux.model import ANISOTROPIC, CouplingParams, SpinParams, ThermalSpec
from oracles import longdouble_states

# x86 80-bit long double; where long double is plain double the oracle
# would share the pipeline's rounding and show nothing
LONGDOUBLE_EPS = 1.1e-19
MARGIN = 4.0

CSV_COLUMNS = ("p0", "p1", "a", "b", "c_re", "c_im", "d_re", "d_im", "N_q",
               "g_n", "delta_I", "avg_dE_over_omega", "choi_min_eig", "residual")
SUMS = ("i_rhp", "i_lfs", "sum_nq")
# the summary fields that count or index rows: equal, not close
EXACT_FIELDS = ("first_nq_positive", "last_nq_positive", "first_g_positive",
                "last_g_positive", "implication_violations")


def _short_config(seed):
    """A short random configuration from the box of the benchmark's
    ``random_short_runs``: anisotropic half of the time, 20-100 collisions."""
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.6, 1.4, 3)
    g_sm, g_ma, tau1, tau2 = rng.uniform(0.05, 0.4, 4)
    anisotropic = rng.random() < 0.5
    return RunConfig(
        spins=SpinParams(*omega),
        couplings=CouplingParams(
            g_sm=g_sm, g_ma=g_ma, tau1=tau1, tau2=tau2,
            gamma=rng.uniform(-1.0, 1.0) if anisotropic else 0.0,
            sm_interaction_kind=ANISOTROPIC if anisotropic else "isotropic"),
        thermal=ThermalSpec(beta=float(np.exp(rng.uniform(np.log(0.2),
                                                           np.log(3.0))))),
        n_max=int(rng.integers(20, 101)))


CONFIGS = {
    "reference": RunConfig(),
    "gamma=-0.4": RunConfig(couplings=CouplingParams(
        gamma=-0.4, sm_interaction_kind=ANISOTROPIC)),
    "detuning=-0.05": RunConfig(spins=SpinParams(omega_s=0.95)),
    **{f"short{seed}": _short_config(seed) for seed in range(5)},
}


def _csv_table(result):
    """The columns of ``collisions.csv`` after ``n``, as ``cli.run_single``
    writes them."""
    c = result.columns
    return dict(zip(CSV_COLUMNS, (
        c["p0"], c["p1"], c["a"], c["b"], c["c"].real, c["c"].imag,
        c["d"].real, c["d"].imag, c["n_q"], c["g_n"], c["delta_i"],
        c["avg_de"] / result.config.spins.omega_s, c["choi_min_eig"],
        c["residual"])))


def oracle_errors(config):
    """The pipeline's largest absolute errors against the oracle: of the
    system states, of each ``collisions.csv`` column and of the three sums,
    and the pipeline's trace drift, the largest |Tr rho - 1| of its states.
    Also returns the two summaries, for the fields that must be equal."""
    result = analyze(config)
    initial = np.concatenate([config.initial_system[np.newaxis],
                              tomography.PROBES])
    exact = analyze_evolved(config, longdouble_states(config, initial))
    errors = {"states": np.abs(result.states - exact.states).max(),
              "trace": np.abs(np.trace(result.states, axis1=-2, axis2=-1)
                              - 1.0).max()}
    table, exact_table = _csv_table(result), _csv_table(exact)
    for name in CSV_COLUMNS:
        assert len(table[name]) == len(exact_table[name]) == config.n_max
        errors[name] = np.abs(table[name] - exact_table[name]).max(initial=0.0)
    for name in SUMS:
        errors[name] = abs(getattr(result.summary, name)
                           - getattr(exact.summary, name))
    return {k: float(v) for k, v in errors.items()}, result.summary, exact.summary


# The largest error measured under the three kernels, rounded up to two
# digits, before MARGIN; the five short configurations share one entry.
MEASURED = {
    "reference": {
        "states": 2.2e-13, "trace": 2.0e-13, "p0": 6.1e-14, "p1": 1.0e-13,
        "a": 5.6e-14, "b": 2.8e-14, "c_re": 2.3e-14, "c_im": 2.0e-14,
        "d_re": 5.0e-16, "d_im": 4.8e-16, "N_q": 7.3e-14, "g_n": 8.3e-14,
        "delta_I": 4.3e-15, "avg_dE_over_omega": 9.7e-16,
        "choi_min_eig": 5.6e-14, "residual": 0.0,
        "i_rhp": 1.3e-11, "i_lfs": 6.1e-13, "sum_nq": 8.9e-12},
    "gamma=-0.4": {
        "states": 2.9e-13, "trace": 3.0e-13, "p0": 3.0e-14, "p1": 1.7e-13,
        "a": 8.9e-15, "b": 5.8e-15, "c_re": 3.9e-15, "c_im": 3.8e-15,
        "d_re": 1.4e-15, "d_im": 1.3e-15, "N_q": 1.8e-13, "g_n": 1.4e-14,
        "delta_I": 4.3e-15, "avg_dE_over_omega": 9.1e-16,
        "choi_min_eig": 9.0e-15, "residual": 0.0,
        "i_rhp": 1.7e-12, "i_lfs": 5.9e-13, "sum_nq": 4.2e-11},
    "detuning=-0.05": {
        "states": 5.9e-13, "trace": 7.8e-13, "p0": 2.7e-13, "p1": 4.9e-13,
        "a": 7.3e-13, "b": 2.7e-13, "c_re": 2.8e-13, "c_im": 4.8e-13,
        "d_re": 1.4e-13, "d_im": 1.7e-13, "N_q": 8.9e-13, "g_n": 7.9e-13,
        "delta_I": 2.6e-14, "avg_dE_over_omega": 1.7e-14,
        "choi_min_eig": 4.5e-13, "residual": 0.0,
        "i_rhp": 2.2e-11, "i_lfs": 5.8e-12, "sum_nq": 2.2e-10},
    "short": {
        "states": 2.0e-14, "trace": 2.0e-14, "p0": 8.8e-15, "p1": 9.1e-15,
        "a": 7.8e-16, "b": 7.8e-16, "c_re": 1.6e-14, "c_im": 2.2e-14,
        "d_re": 2.5e-15, "d_im": 1.8e-15, "N_q": 1.6e-14, "g_n": 1.5e-14,
        "delta_I": 4.5e-15, "avg_dE_over_omega": 2.8e-16,
        "choi_min_eig": 1.5e-14, "residual": 0.0,
        "i_rhp": 6.3e-14, "i_lfs": 2.5e-14, "sum_nq": 2.3e-13},
}


@pytest.mark.parametrize("name", CONFIGS)
def test_pipeline_is_within_measured_bounds_of_the_oracle(name):
    eps = np.finfo(np.longdouble).eps
    assert eps <= LONGDOUBLE_EPS, (
        f"np.longdouble has eps {eps:.3g}: this platform's long double is not "
        f"the 80-bit extended type, so the oracle would round like the "
        f"pipeline it checks")
    errors, summary, exact = oracle_errors(CONFIGS[name])
    bounds = MEASURED["short" if name.startswith("short") else name]
    over = {k: (v, MARGIN * bounds[k]) for k, v in errors.items()
            if not v <= MARGIN * bounds[k]}
    assert not over, f"errors above their bounds (error, bound): {over}"
    for field in EXACT_FIELDS:
        assert getattr(summary, field) == getattr(exact, field), field
