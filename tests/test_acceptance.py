"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. The expensive fixtures (the 1000-collision reference run and the two
101-point sweeps at 1000 collisions each) are session-scoped and shared.

Reference configuration throughout: omega_S = omega_M = omega_A = 1,
g_SM = g_MA = 0.2, tau1 = tau2 = 0.2, beta = 1, initial system state I/2.
"""

import time

import numpy as np
import pytest

from kdqflux.analysis import analyze
from kdqflux.cli import load_config, sweep_points
from kdqflux.engine import RunConfig, evolve_grid
from kdqflux.model import (ANISOTROPIC, SIGMA_X, SIGMA_Y, SIGMA_Z,
                           CouplingParams, SpinParams, collision_unitaries)
from kdqflux.witnesses import witness_columns
from oracles import (affine_family, affine_to_superoperator, hermitian_eig,
                     kdq_general, pattern_superoperator, time_local_map,
                     trace_norm, von_neumann_entropy)

TOL_POS = 1e-10
SWAP_TAU2 = np.pi / (2 * 0.2)


def report(num: str, label: str, passed: bool) -> bool:
    print(f"[criterion {num:>3}] {'PASS' if passed else 'FAIL'} - {label}")
    return passed


def first_window(steps: np.ndarray, positive: np.ndarray) -> tuple[int, int]:
    """(first, last) collision index of the first contiguous positive window."""
    idx = steps[positive]
    first = int(idx[0])
    last = first
    for n in idx[1:]:
        if n == last + 1:
            last = int(n)
        else:
            break
    return first, last


@pytest.fixture(scope="session")
def fig1():
    return analyze(RunConfig(n_max=1000))


@pytest.fixture(scope="session")
def detuned():
    return analyze(RunConfig(spins=SpinParams(omega_s=0.8), n_max=1000))


@pytest.fixture(scope="session")
def anisotropic():
    return analyze(RunConfig(
        couplings=CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=0.5),
        n_max=1000))


@pytest.fixture(scope="session")
def markovian():
    return analyze(RunConfig(couplings=CouplingParams(tau2=SWAP_TAU2), n_max=200))


def _sweep(kind: str) -> dict:
    spec = load_config(None, {"kind": kind})
    points = sweep_points(spec)

    def column(name):
        return np.asarray([point[name] for point in points])

    return {"grid": spec.grid, "i_rhp": column("i_rhp"),
            "i_lfs": column("i_lfs"), "sum_nq": column("sum_nq"),
            "violations": column("implication_violations")}


@pytest.fixture(scope="session")
def detuning_sweep():
    return _sweep("detuning_sweep")


@pytest.fixture(scope="session")
def anisotropy_sweep():
    return _sweep("anisotropy_sweep")


# ---------------------------------------------------------------- criteria

def test_criterion_01_reference_run_witness_windows():
    start = time.perf_counter()
    fig1 = analyze(RunConfig())
    elapsed = time.perf_counter() - start
    steps = fig1.record_array("n")
    nq = fig1.record_array("n_q")
    g = fig1.record_array("g_n")
    nq_first, nq_last = first_window(steps, nq > TOL_POS)
    g_first, g_last = first_window(steps, g > TOL_POS)
    ok = (abs(nq_first - 39) <= 1 and abs(nq_last - 77) <= 1
          and abs(g_last - 79) <= 1 and elapsed < 10.0)
    report("1", f"N_q window [{nq_first}, {nq_last}], g_n window "
                f"[{g_first}, {g_last}], runtime {elapsed:.2f} s", ok)
    assert abs(nq_first - 39) <= 1, f"N_q first positive at {nq_first}, expected 39 +- 1"
    assert abs(nq_last - 77) <= 1, f"N_q window ends at {nq_last}, expected 77 +- 1"
    assert abs(g_last - 79) <= 1, f"g_n window ends at {g_last}, expected 79 +- 1"
    assert elapsed < 10.0


def test_criterion_02_nonpositivity_implies_non_cp(fig1, detuning_sweep,
                                                   anisotropy_sweep):
    nq = fig1.record_array("n_q")
    min_eig = fig1.record_array("choi_min_eig")
    direct = int(np.sum((nq > TOL_POS) & (min_eig >= -TOL_POS)))
    total = (direct + fig1.summary.implication_violations
             + int(detuning_sweep["violations"].sum())
             + int(anisotropy_sweep["violations"].sum()))
    ok = total == 0 and np.any(nq > TOL_POS)
    report("2", f"{total} violations of N_q > 0 => Choi not PSD across "
                f"reference run and both sweeps", ok)
    assert ok


def _nonpositivity(a: float, b: float, p0: float) -> float:
    """N_q of the phase covariant step map (a, b) on diag(p0, 1 - p0)."""
    step = np.array([[a, b, 0.0, 0.0]], dtype=complex)   # (a, b, c, d)
    rho = np.diag([p0, 1.0 - p0]).astype(complex)
    # cumulative maps: the identity twice, so delta_i = 0
    family = np.array([[1.0, 0.0, 1.0, 0.0]] * 2, dtype=complex)
    columns = witness_columns(family, step, rho[np.newaxis], 1.0)
    return float(columns["n_q"][0])


def test_criterion_03_nonpositivity_biconditional():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = None
    for _ in range(400):
        a, b = rng.uniform(-0.5, 1.5, size=2)
        if min(abs(a), abs(a - 1.0), abs(b), abs(b - 1.0)) < 1e-12:
            continue
        for p0 in (0.1, 0.5, 0.9):
            n_q = _nonpositivity(a, b, p0)
            expected = not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0)
            if (n_q > 1e-14) != expected:
                worst = (a, b, p0, n_q)
            checked += 1
    for a in (0.0, 1.0):           # boundary values stay classical
        for p0 in (0.1, 0.5, 0.9):
            n_q = _nonpositivity(a, 0.5, p0)
            if n_q > 1e-14:
                worst = (a, 0.5, p0, n_q)
            checked += 1
    ok = worst is None
    report("3", f"N_q > 0 iff a or b outside [0, 1] on {checked} samples", ok)
    assert ok, f"biconditional violated at {worst}"


def test_criterion_04_markovian_limit(markovian):
    max_g = markovian.record_array("g_n").max()
    max_nq = markovian.record_array("n_q").max()
    max_di = markovian.record_array("delta_i").max()
    ok = max_g <= TOL_POS and max_nq <= TOL_POS and max_di <= TOL_POS
    report("4", f"memory fully refreshed: max g={max_g:.2e}, "
                f"N_q={max_nq:.2e}, dI={max_di:.2e}", ok)
    assert ok


def test_criterion_05_tomography_oracle_equivalence(fig1):
    rng = np.random.default_rng(99)
    states = []
    for _ in range(20):
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = mat @ mat.conj().T
        states.append(rho / np.trace(rho))
    states = np.asarray(states)
    history, _ = evolve_grid([fig1.config], states)
    pauli = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
    sops = pattern_superoperator(fig1.family)
    worst = 0.0
    for i in range(len(states)):
        direct = np.einsum("pij,nji->np", pauli, history[:, 0, i]).real
        rho_n = (sops @ history[0, 0, i].reshape(4)).reshape(-1, 2, 2)
        mapped = np.einsum("pij,nji->np", pauli, rho_n).real
        worst = max(worst, float(np.abs(mapped - direct).max()))
    ok = worst <= 1e-9
    report("5", f"20 random states, direct vs reconstructed map: "
                f"max Bloch deviation {worst:.2e}", ok)
    assert ok


def test_criterion_06_phase_covariance_structure(fig1, detuned, anisotropic):
    res_resonant = fig1.summary.max_off_pattern_residual
    res_detuned = detuned.summary.max_off_pattern_residual
    d_resonant = fig1.summary.max_abs_d
    d_detuned = detuned.summary.max_abs_d
    d_aniso = anisotropic.summary.max_abs_d
    ok = (res_resonant <= TOL_POS and res_detuned <= TOL_POS
          and d_resonant <= TOL_POS and d_detuned <= TOL_POS
          and d_aniso > 1e-6)
    report("6", f"isotropic residual/|d| <= 1e-10 "
                f"({max(res_resonant, res_detuned):.1e}/"
                f"{max(d_resonant, d_detuned):.1e}), anisotropic max |d| "
                f"{d_aniso:.2e}", ok)
    assert ok


def test_criterion_07_anomalous_flux_coincides_with_nonpositivity(fig1):
    steps = fig1.record_array("n")
    avg_de = fig1.record_array("avg_de")
    nq_steps = steps[fig1.record_array("n_q") > TOL_POS]
    reference_sign = np.sign(avg_de[0])
    assert reference_sign != 0
    flipped = steps[(np.sign(avg_de) == -reference_sign) & (np.abs(avg_de) > 1e-14)]
    assert flipped.size > 0
    distances = np.abs(flipped[:, None] - nq_steps[None, :]).min(axis=1)
    ok = bool(np.all(distances <= 1))
    report("7", f"{flipped.size} sign-flip collisions, max distance to the "
                f"N_q > 0 set: {int(distances.max())}", ok)
    assert ok


def test_criterion_08_lfs_rhp_overlap(fig1):
    """QMI increments flag non-Markovian collisions exactly where the step
    maps lose complete positivity: the increment-positive steps start with
    the g-positive steps and never leave their 1-collision neighborhood.
    The converse containment cannot hold at the stated tolerance: the two
    functionals decay through the threshold at different collisions at each
    window tail (first window: dI last positive at 77, g_n at 79), mirroring
    the 77 vs 79 closing indices of the reference run.
    """
    steps = fig1.record_array("n")
    di_steps = steps[fig1.record_array("delta_i") > TOL_POS]
    g_steps = steps[fig1.record_array("g_n") > TOL_POS]
    assert di_steps.size > 0 and g_steps.size > 0
    onset_gap = abs(int(di_steps[0]) - int(g_steps[0]))
    distances = np.abs(di_steps[:, None] - g_steps[None, :]).min(axis=1)
    ok = onset_gap <= 1 and bool(np.all(distances <= 1))
    report("8", f"onset gap {onset_gap}, max distance of dI-positive steps "
                f"to g-positive steps: {int(distances.max())}", ok)
    assert ok


def test_criterion_09a_detuning_sweep_peak_alignment(detuning_sweep):
    """Expected: the three cumulative measures peak at one grid point inside
    [-0.05, 0]. Measured here: at 1000 collisions the argmax of I_RHP and
    I_LFS sits at -0.07 while sum N_q peaks at -0.05 (on a 0.0025 grid:
    -0.0725, -0.07 and -0.045).

    The sum N_q peak is stable: -0.05 at every horizon from 80 to 1000
    collisions. The I_RHP and I_LFS peaks move with the horizon, because
    non-CP windows recur about every 78 collisions (13 windows in 1000
    collisions near the peak) and each adds weight at a slightly different
    detuning. I_RHP peaks at -0.05 up to 250 collisions, at -0.06 from 300
    to 700 and at -0.07 from 750 on. I_LFS wanders: -0.10 at 150
    collisions, -0.09 at 200, -0.06 at 250, -0.10 at 300, -0.06 at 400 and
    500, -0.07 at 700, -0.06 at 800 and 900, -0.07 at 1000. All three peaks
    coincide at -0.05 only for horizons of 79 to 118 collisions, that is
    before the second non-CP window opens. Restricted to its first window,
    each measure peaks at -0.05; for I_LFS that peak is a plateau (1.632140
    at -0.05 against 1.632126 at -0.06).

    Neither the program nor the assertion is shown to be at fault: the
    horizon at which the peaks should coincide is not stated. The assertion
    is kept at its stated form and fails honestly; see "Tests and acceptance
    suite" in the README.
    """
    grid = detuning_sweep["grid"]
    peaks = {name: float(grid[np.argmax(detuning_sweep[name])])
             for name in ("i_rhp", "i_lfs", "sum_nq")}
    values = list(peaks.values())
    coincide = max(values) - min(values) <= 1e-12
    in_range = all(-0.05 <= v <= 0.0 for v in values)
    ok = coincide and in_range
    report("9a", f"detuning peaks i_rhp={peaks['i_rhp']:+.2f}, "
                 f"i_lfs={peaks['i_lfs']:+.2f}, sum_nq={peaks['sum_nq']:+.2f}; "
                 f"coincide={coincide}, within [-0.05, 0]={in_range}", ok)
    assert ok, f"peak locations {peaks} do not coincide inside [-0.05, 0]"


def _direct_lfs_measures(config, h_sm: np.ndarray,
                         horizons: tuple[int, ...]) -> np.ndarray:
    """I_LFS of a directly evolved reference (x) S (x) M state, per S-M coupling.

    ``h_sm`` stacks 4x4 S-M interaction Hamiltonians; the frequencies,
    durations, M-A coupling, temperature and collision count come from
    ``config``. The untouched reference qubit starts maximally entangled
    with S and M starts thermal. Each collision applies the S-M propagator
    to S (x) M, then the M-A propagator with a fresh thermal A, which is
    traced out. Everything is built here from the Pauli matrices with numpy
    alone: no map is reconstructed and no package routine is called, so the
    propagators, states, tomography, Choi matrices and ``lfs_series`` of the
    pipeline are all checked at once. Returns the sum of the positive QMI
    increments up to each horizon, shape ``(len(horizons), len(h_sm))``.
    """
    spins, couplings = config.spins, config.couplings
    eye = np.eye(2)

    def local(omega):
        return omega / 2.0 * SIGMA_Z

    def propagator(h, t):
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * t * w)[..., None, :]) @ np.swapaxes(
            v.conj(), -1, -2)

    def gibbs(omega):
        p = np.exp(-config.thermal.beta * np.array([omega / 2.0, -omega / 2.0]))
        return np.diag(p / p.sum())

    def entropy(rho):
        w = np.clip(np.linalg.eigvalsh(rho), 1e-300, None)
        return -(w * np.log2(w)).sum(axis=-1)

    def mutual_information(rho_lsm):
        r = rho_lsm.reshape(-1, 2, 2, 2, 2, 2, 2)
        rho_ls = np.einsum("xlsmtum->xlstu", r).reshape(-1, 4, 4)
        rho_l = np.einsum("xlsmtsm->xlt", r)
        rho_s = np.einsum("xlsmlum->xsu", r)
        return entropy(rho_l) + entropy(rho_s) - entropy(rho_ls)

    heisenberg_ma = couplings.g_ma / 2.0 * sum(
        np.kron(p, p) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    u_sm = propagator(np.kron(local(spins.omega_s), eye)
                      + np.kron(eye, local(spins.omega_m)) + h_sm,
                      couplings.tau1)
    u_sm = np.einsum("ab,xij->xaibj", eye, u_sm).reshape(-1, 8, 8)
    u_ma = propagator(np.kron(np.kron(local(spins.omega_s), eye), eye)
                      + np.kron(np.kron(eye, local(spins.omega_m)), eye)
                      + np.kron(np.kron(eye, eye), local(spins.omega_a))
                      + np.kron(eye, heisenberg_ma), couplings.tau2)
    u_ma = np.kron(eye, u_ma)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = np.broadcast_to(np.kron(np.outer(bell, bell), gibbs(spins.omega_m)),
                          (len(h_sm), 8, 8)).astype(complex)
    rho_a = gibbs(spins.omega_a)
    info = [mutual_information(rho)]
    for _ in range(config.n_max):
        rho = u_sm @ rho @ np.swapaxes(u_sm.conj(), -1, -2)
        joint = np.einsum("xab,ij->xaibj", rho, rho_a).reshape(-1, 16, 16)
        joint = u_ma @ joint @ u_ma.conj().T
        rho = np.einsum("xaibi->xab", joint.reshape(-1, 8, 2, 8, 2))
        info.append(mutual_information(rho))
    increments = np.diff(info, axis=0)
    positive = np.where(increments > TOL_POS, increments, 0.0)
    return np.array([positive[:h].sum(axis=0) for h in horizons])


def test_criterion_09b_anisotropy_sweep_local_minimum(anisotropy_sweep):
    """gamma = 0 is the distinguished point of all three measures.

    A pi/2 rotation about z on S, M and A maps the coupling at gamma to the
    coupling at -gamma and leaves every measure unchanged, so each curve
    must be even in gamma over the (symmetric) grid; the measured relative
    asymmetry is at most about 2e-11, the check allows 1e-9. An even curve
    is stationary at gamma = 0, but the symmetry does not fix whether that
    is a minimum or a maximum. I_RHP and sum N_q have a local minimum at the
    grid point nearest gamma = 0.

    I_LFS has a smooth local maximum there instead: at 1000 collisions
    I_LFS(0) = 3.6992575122 against I_LFS(+-0.02) = 3.6992523225, a
    relative depth of 1.4e-6. The I_LFS clause checks this with
    ``_direct_lfs_measures``, an evolution written from the Pauli matrices
    alone. At the three central grid points it must agree with the sweep
    within 1e-10 (measured 6e-13). It must also show the maximum at 100,
    300 and 1000 collisions for four S-M couplings: the sweep's
    (g/2)[(1-gamma)/2 XX + (1+gamma)/2 YY + ZZ]; the same at
    aniso_strength = g_sm; (g/2)[(1-gamma) XX + (1+gamma) YY + ZZ], which is
    the isotropic Heisenberg coupling at gamma = 0; and the XY form
    (g/2)[(1-gamma) XX + (1+gamma) YY]. The relative depth ranges from
    1.3e-6 to 8e-6 across them, far above round-off, so the maximum is a
    property of this model and not of one normalization of its coupling.

    The paper's abstract claims that the mutual-information measure detects
    the anomalous fluxes, which criterion 08 checks window by window; it
    states no extremum of either measure over gamma. Whether the paper's
    anisotropy figure shows a minimum of I_LFS cannot be checked until its
    full text is in the repository. See "Tests and acceptance suite" in the
    README.
    """
    grid = anisotropy_sweep["grid"]
    i0 = int(np.argmin(np.abs(grid)))
    outcome = {}
    for name in ("i_rhp", "sum_nq"):
        curve = anisotropy_sweep[name]
        outcome[name] = bool(curve[i0] <= curve[i0 - 1]
                             and curve[i0] <= curve[i0 + 1])

    assert np.allclose(grid, -grid[::-1], rtol=0.0, atol=1e-15)
    asymmetry = 0.0
    for name in ("i_rhp", "i_lfs", "sum_nq"):
        curve = anisotropy_sweep[name]
        asymmetry = max(asymmetry, float(np.max(np.abs(curve - curve[::-1])
                                                / np.abs(curve))))

    base = load_config(None, {"kind": "anisotropy_sweep"}).base
    g = base.couplings.g_sm
    xx, yy, zz = (np.kron(p, p) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    forms = {
        "sweep": lambda y: g / 2 * ((1 - y) / 2 * xx + (1 + y) / 2 * yy + zz),
        "aniso_strength=g_sm":
            lambda y: g * ((1 - y) / 2 * xx + (1 + y) / 2 * yy + zz),
        "isotropic at 0": lambda y: g / 2 * ((1 - y) * xx + (1 + y) * yy + zz),
        "XY": lambda y: g / 2 * ((1 - y) * xx + (1 + y) * yy),
    }
    gammas = grid[i0 - 1:i0 + 2]
    horizons = (100, 300, base.n_max)
    h_sm = np.array([form(y) for form in forms.values() for y in gammas])
    lfs = _direct_lfs_measures(base, h_sm, horizons).reshape(
        len(horizons), len(forms), len(gammas))
    swept = anisotropy_sweep["i_lfs"][i0 - 1:i0 + 2]
    oracle_dev = float(np.abs(lfs[-1, 0] - swept).max())
    is_max = lfs[..., 1] > np.maximum(lfs[..., 0], lfs[..., 2])
    missing = [(name, horizon) for k, horizon in enumerate(horizons)
               for name, hit in zip(forms, is_max[k]) if not hit]

    ok = (all(outcome.values()) and asymmetry <= 1e-9
          and oracle_dev <= 1e-10 and not missing)
    report("9b", f"local minimum at gamma={grid[i0]:+.2f}: "
                 + ", ".join(f"{k}={v}" for k, v in outcome.items())
                 + f"; i_lfs local maximum (direct evolution, "
                 f"{len(forms)} couplings x {len(horizons)} horizons)="
                 f"{not missing}, oracle dev {oracle_dev:.1e}; relative "
                 f"asymmetry {asymmetry:.1e}", ok)
    assert all(outcome.values()), f"local-minimum check per measure: {outcome}"
    assert asymmetry <= 1e-9, f"curves not even in gamma: {asymmetry:.2e}"
    assert oracle_dev <= 1e-10, \
        f"sweep I_LFS {swept} deviates from direct evolution {lfs[-1, 0]}"
    assert not missing, f"no I_LFS maximum at gamma = 0 for {missing}"


def _kdq_invariant_deviations(result) -> tuple[float, float, float]:
    worst_total, worst_marginal, worst_route = 0.0, 0.0, 0.0
    family = affine_family(result.states)
    for rec in result.records:
        n = rec.n
        sop = affine_to_superoperator(time_local_map(family, n))
        rho_pre = result.states[n - 1, 0]
        q = kdq_general(sop, rho_pre)
        # the closed form from the record's population entries
        closed = np.array([[rec.a * rec.p0, (1.0 - rec.a) * rec.p0],
                           [rec.b * rec.p1, (1.0 - rec.b) * rec.p1]])
        worst_total = max(worst_total, abs(q.sum() - 1.0))
        worst_marginal = max(worst_marginal, float(np.abs(
            q.sum(axis=1) - np.array([rec.p0, rec.p1])).max()))
        worst_route = max(worst_route, float(np.abs(q - closed).max()))
    return worst_total, worst_marginal, worst_route


def test_criterion_10_kdq_invariants_every_step(fig1, detuned, anisotropic,
                                                markovian):
    worst = [0.0, 0.0, 0.0]
    for result in (fig1, detuned, anisotropic, markovian):
        devs = _kdq_invariant_deviations(result)
        worst = [max(w, d) for w, d in zip(worst, devs)]
    ok = all(w <= 1e-12 for w in worst)
    report("10", f"KDQ invariants over 4 runs: sum dev {worst[0]:.1e}, "
                 f"marginal dev {worst[1]:.1e}, route dev {worst[2]:.1e}", ok)
    assert ok


def test_criterion_11_numerics_suite(fig1):
    rng = np.random.default_rng(7)
    roundtrip_worst = 0.0
    for _ in range(10):
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = mat + mat.conj().T
        w, v = hermitian_eig(herm)
        roundtrip_worst = max(roundtrip_worst, float(np.max(np.abs(
            (v * w) @ v.conj().T - herm))))

    unitarity_worst = 0.0
    for spins, couplings in (
            (fig1.config.spins, fig1.config.couplings),
            (SpinParams(omega_s=0.8), CouplingParams()),
            (SpinParams(), CouplingParams(sm_interaction_kind=ANISOTROPIC,
                                          gamma=0.5))):
        for u in collision_unitaries(spins, couplings):
            unitarity_worst = max(unitarity_worst, float(np.max(np.abs(
                u.conj().T @ u - np.eye(8)))))

    entropy_dev = abs(von_neumann_entropy(np.eye(2, dtype=complex) / 2) - 1.0)
    diag_a = trace_norm(np.diag([0.3, -0.7]).astype(complex))
    diag_b = trace_norm(np.diag([1.1, -0.1, 0.0, 1.0]).astype(complex))
    ok = (roundtrip_worst <= 1e-12 and unitarity_worst <= 1e-12
          and entropy_dev <= 1e-12 and diag_a == 1.0 and diag_b == 2.2)
    report("11", f"eig roundtrip {roundtrip_worst:.1e}, unitarity "
                 f"{unitarity_worst:.1e}, S(I/2) dev {entropy_dev:.1e}, "
                 f"diagonal trace norms exact: {diag_a == 1.0 and diag_b == 2.2}",
           ok)
    assert ok
