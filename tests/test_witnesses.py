from dataclasses import fields

import numpy as np
import pytest

from kdqflux.analysis import analyze, summarize
from kdqflux.engine import RunConfig
from kdqflux.model import CouplingParams, thermal_state, ThermalSpec
from kdqflux.witnesses import WitnessRecord, lfs_series, witness_columns
import oracles
from oracles import (AffineBlochMap, affine_to_superoperator,
                     apply_superoperator, choi, kdq_general,
                     maximally_entangled_state, pattern_entries, qmi,
                     trace_norm)

# (a, b, c, d) of the identity channel
IDENTITY = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)


def pattern_sop(a: float, b: float, c: complex = 0.3, d: complex = 0.0) -> np.ndarray:
    """Superoperator with the phase covariant pattern of entries (a, b, c, d)."""
    return np.array([[a, 0, 0, b], [0, c, d, 0], [0, np.conj(d), np.conj(c), 0],
                     [1 - a, 0, 0, 1 - b]], dtype=complex)


def witness_rows(sops, rho_pre, omega_s: float = 1.0) -> dict:
    """``witness_columns`` of the pattern entries (a, b, c, d) of step-map
    superoperators acting on states, by field name, with identity
    cumulative maps (delta_i = 0)."""
    steps = pattern_entries(np.asarray(sops, dtype=complex).reshape(-1, 4, 4))
    rho_pre = np.broadcast_to(np.asarray(rho_pre, dtype=complex),
                              (len(steps), 2, 2))
    family = np.tile(IDENTITY, (len(steps) + 1, 1))
    return witness_columns(family, steps, rho_pre, omega_s)


def zero_table(n: int) -> dict:
    """A witness table of n collisions with every value 0."""
    return {f.name: np.zeros(n) for f in fields(WitnessRecord)}


def diag_state(p0: float) -> np.ndarray:
    return np.diag([p0, 1.0 - p0]).astype(complex)


# -------------------------------------------------------------- energy basis

def test_energy_basis_conventions():
    # |0> carries +omega/2 under H = (omega/2) sigma_z: a channel that takes
    # |1> to |0> (a = b = 1) raises the energy of |1><1| by omega
    row = witness_rows(pattern_sop(1.0, 1.0), diag_state(0.0), omega_s=0.8)
    assert row["p0"][0] == 0.0 and row["p1"][0] == 1.0
    assert row["avg_de"][0] == pytest.approx(0.8, abs=1e-15)


def test_witness_columns_follow_the_record_fields():
    row = witness_rows(pattern_sop(0.9, 0.1), diag_state(0.3))
    assert list(row) == [f.name for f in fields(WitnessRecord)]
    assert row["n"].tolist() == [1] and row["residual"].tolist() == [0.0]


# ----------------------------------------------------------------- KDQ maps

def test_kdq_general_identity_channel_diagonal_state():
    q = kdq_general(np.eye(4, dtype=complex), diag_state(0.3))
    assert np.allclose(q, [[0.3, 0.0], [0.0, 0.7]], atol=1e-14)


def test_kdq_general_matches_closed_form_on_phase_covariant_maps():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.uniform(-0.5, 1.5, size=2)
        p0 = rng.uniform(0.0, 1.0)
        sop = pattern_sop(a, b)
        q = kdq_general(sop, diag_state(p0))
        closed = [[a * p0, (1 - a) * p0], [b * (1 - p0), (1 - b) * (1 - p0)]]
        assert np.max(np.abs(q - closed)) <= 1e-12
        n_q = witness_rows(sop, diag_state(p0))["n_q"][0]
        assert n_q == pytest.approx(np.abs(q).sum() - 1.0, abs=1e-12)


def test_kdq_general_insensitive_to_coherence_entry():
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]], dtype=complex)
    sop = pattern_sop(1.05, -0.02, c=0.5)
    perturbed = sop.copy()
    perturbed[1, 1] += 0.17        # c entry
    perturbed[2, 2] += 0.17
    q0, q1 = kdq_general(sop, rho), kdq_general(perturbed, rho)
    assert np.max(np.abs(q0 - q1)) <= 1e-14
    rows = witness_rows([sop, perturbed], rho)
    assert rows["n_q"][0] == rows["n_q"][1] == pytest.approx(
        np.abs(q0).sum() - 1.0, abs=1e-14)


def test_kdq_closed_form_examples():
    p_th = 1.0 / (1.0 + np.e)
    rows = witness_rows(
        [pattern_sop(1.0, 0.0), pattern_sop(1.1, 0.0), pattern_sop(p_th, p_th)],
        [diag_state(0.4), diag_state(0.5), diag_state(0.5)])
    assert np.allclose(rows["n_q"], [0.0, 0.1, 0.0], rtol=0.0, atol=1e-15)


def test_kdq_marginals_match_populations():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.uniform(-0.5, 1.5, size=2)
        p0 = rng.uniform(0, 1)
        q = kdq_general(pattern_sop(a, b), diag_state(p0))
        assert abs(q.sum() - 1.0) <= 1e-12
        assert np.allclose(q.sum(axis=1), [p0, 1 - p0], atol=1e-12)


# ------------------------------------------------------------ non-positivity

def test_nonpositivity_zero_for_probabilities():
    assert witness_rows(pattern_sop(0.8, 0.2), diag_state(0.5))["n_q"][0] <= 1e-15


def test_nonpositivity_example_value():
    # q = [[0.55, -0.05], [0, 0.5]]; the coherences of the state do not enter
    rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    n_q = witness_rows(pattern_sop(1.1, 0.0), rho)["n_q"][0]
    assert n_q == pytest.approx(0.1, abs=1e-14)


def test_nonpositivity_biconditional_randomized():
    rng = np.random.default_rng(7)
    ab = rng.uniform(-0.5, 1.5, size=(300, 2))
    ab = ab[np.abs(ab[:, :, None] - [0.0, 1.0]).min(axis=(1, 2)) >= 1e-12]
    for p0 in (0.1, 0.5, 0.9):
        n_q = witness_rows([pattern_sop(a, b) for a, b in ab], diag_state(p0))["n_q"]
        expected = ((ab < 0) | (ab > 1)).any(axis=1)
        assert np.array_equal(n_q > 1e-14, expected), p0


# -------------------------------------------------------------- CP conditions

def test_cp_conditions_examples():
    rows = witness_rows([pattern_sop(0.9, 0.1, c=0.5), pattern_sop(1.1, 0.0),
                         pattern_sop(0.5, 0.5, c=0.6)], diag_state(0.5))
    assert rows["c_abs2_margin"][0] == pytest.approx(0.9 * 0.9 - 0.25, abs=1e-12)
    assert rows["choi_min_eig"][0] >= 0.0
    assert rows["a"][1] > 1.0 and rows["choi_min_eig"][1] < 0.0
    assert rows["c_abs2_margin"][2] == pytest.approx(0.25 - 0.36, abs=1e-12)
    assert rows["choi_min_eig"][2] < 0.0


def test_cp_conditions_agree_with_choi_positivity():
    rng = np.random.default_rng(11)
    sops = np.array([pattern_sop(*rng.uniform(-0.2, 1.2, size=2),
                                 c=rng.uniform(-0.8, 0.8), d=rng.uniform(-0.3, 0.3))
                     for _ in range(40)])
    rows = witness_rows(sops, diag_state(0.5))
    a, b = rows["a"], rows["b"]
    ok = np.minimum.reduce([a, 1 - a, b, 1 - b, rows["c_abs2_margin"],
                            rows["d_abs2_margin"]]) >= 0.0
    min_eig = np.linalg.eigvalsh(choi(sops)).min(axis=1)
    assert np.array_equal(ok, min_eig >= -1e-12)
    assert np.abs(rows["choi_min_eig"] - min_eig).max() <= 1e-14


# ---------------------------------------------------------------- RHP pieces

def test_rhp_increment_identity_channel():
    g_n = witness_rows(np.eye(4), diag_state(0.5))["g_n"][0]
    assert g_n == pytest.approx(0.0, abs=1e-14)


def test_rhp_increment_example():
    sop = pattern_sop(1.1, 0.0, c=0.0)
    assert np.allclose(choi(sop), np.diag([1.1, -0.1, 0.0, 1.0]), atol=1e-15)
    assert witness_rows(sop, diag_state(0.5))["g_n"][0] == pytest.approx(0.1, abs=1e-14)


def test_rhp_increment_invariant_under_ancilla_swap():
    rng = np.random.default_rng(13)
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = 1
    swap[1, 2] = swap[2, 1] = 1
    for _ in range(10):
        a, b = rng.uniform(-0.3, 1.3, size=2)
        sop = pattern_sop(a, b, rng.uniform(-0.5, 0.5))
        g_n = witness_rows(sop, diag_state(0.5))["g_n"][0]
        swapped = swap @ choi(sop) @ swap
        assert g_n == pytest.approx(trace_norm(swapped) / 2 - 1, abs=1e-12)


def test_rhp_increment_equals_trace_norm_of_choi_state():
    # (Lambda (x) I)[Bell] is J/2 up to reordering, so g = ||J/2||_1 - 1
    sop = pattern_sop(1.15, -0.07, 0.2)
    # build (I (x) Lambda)[Bell] column by column from the matrix units
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            block = apply_superoperator(sop, unit)
            out += 0.5 * np.kron(unit, block)
    w = np.linalg.eigvalsh(out)
    g_n = witness_rows(sop, diag_state(0.5))["g_n"][0]
    assert g_n == pytest.approx(np.abs(w).sum() - 1.0, abs=1e-12)


def test_rhp_measure():
    def i_rhp(g):
        columns = zero_table(len(g))
        columns.update(n=np.arange(1, len(g) + 1), g_n=np.array(g, dtype=float))
        return summarize(columns, n_max=len(g)).i_rhp
    assert i_rhp([0.0, 0.0]) == 0.0
    assert i_rhp([0.1]) == pytest.approx(0.1)
    assert i_rhp([-1e-13, 0.2, 0.05, 1e-11]) == pytest.approx(0.25, abs=1e-15)


# ------------------------------------------------------------- energy change

def test_avg_energy_change_identity():
    row = witness_rows(pattern_sop(1.0, 0.0), diag_state(0.5))
    assert row["avg_de"][0] == pytest.approx(0.0, abs=1e-12)


def test_avg_energy_change_full_swap_thermal():
    p_th = 1.0 / (1.0 + np.e)
    value = witness_rows(pattern_sop(p_th, p_th, c=0.0), diag_state(0.5))["avg_de"][0]
    assert value == pytest.approx(-0.5 * np.tanh(0.5), abs=1e-12)
    assert value == pytest.approx(-0.2311, abs=1e-4)


def test_avg_energy_change_matches_trace_expression():
    rng = np.random.default_rng(19)
    for _ in range(15):
        a, b = rng.uniform(-0.3, 1.3, size=2)
        sop = pattern_sop(a, b, rng.uniform(-0.5, 0.5))
        rho = diag_state(rng.uniform(0, 1))
        omega_s = rng.uniform(0.3, 1.5)
        h_s = (omega_s / 2) * np.diag([1.0, -1.0])
        delta = apply_superoperator(sop, rho) - rho
        expected = np.trace(h_s @ delta).real
        got = witness_rows(sop, rho, omega_s)["avg_de"][0]
        assert got == pytest.approx(expected, abs=1e-12)


def test_avg_energy_change_equals_q_weighted_sum():
    rng = np.random.default_rng(23)
    energies = np.array([0.4, -0.4])               # omega_s = 0.8
    u = energies[np.newaxis, :] - energies[:, np.newaxis]   # E_fin - E_in
    for _ in range(10):
        a, b = rng.uniform(-0.3, 1.3, size=2)
        rho = diag_state(rng.uniform(0, 1))
        weighted = (kdq_general(pattern_sop(a, b), rho) * u).sum().real
        got = witness_rows(pattern_sop(a, b), rho, 0.8)["avg_de"][0]
        assert got == pytest.approx(weighted, abs=1e-12)


# ----------------------------------------------------------------- QMI / LFS
# ``qmi`` is the per-state reference of tests/oracles.py, by ``eigvalsh``

def test_qmi_product_state():
    rho = np.kron(np.diag([0.2, 0.8]), np.diag([0.6, 0.4])).astype(complex)
    assert qmi(rho) == pytest.approx(0.0, abs=1e-12)


def test_qmi_bell_state():
    assert qmi(maximally_entangled_state()) == pytest.approx(2.0, abs=1e-12)


def test_qmi_full_swap_channel_is_product():
    rho_th = thermal_state(ThermalSpec(), 1.0)
    bm = AffineBlochMap(m=np.zeros((3, 3)), c=np.array([0, 0, -np.tanh(0.5)]))
    j = choi(affine_to_superoperator(bm))
    assert np.allclose(j / 2, np.kron(np.eye(2) / 2, rho_th), atol=1e-12)
    assert qmi(j / 2) == pytest.approx(0.0, abs=1e-12)


def test_stacked_qmi_matches_the_per_state_qmi():
    # one eigvalsh over the states and one over their marginals gives what
    # qmi gives state by state (measured: the same bits), on random states
    # of every rank and on the rank-deficient states of the LFS series
    rng = np.random.default_rng(31)
    states = []
    for rank in (1, 2, 3, 4):
        for _ in range(25):
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            states.append(g @ g.conj().T / np.linalg.norm(g) ** 2)
    product = np.kron(np.diag([1.0, 0.0]), np.diag([0.3, 0.7])).astype(complex)
    states += [product, maximally_entangled_state(), np.eye(4, dtype=complex) / 4]
    # the states J_n / 2 of two runs; at tau1 = 0 they stay pure
    for tau1 in (0.2, 0.0):
        family = analyze(RunConfig(n_max=40, couplings=CouplingParams(tau1=tau1))).family
        states += list(choi(oracles.pattern_superoperator(family)) / 2)
    states = np.array(states)
    want = np.array([qmi(rho) for rho in states])
    assert np.abs(oracles.stacked_qmi(states) - want).max() <= 1e-15
    # and it rejects what qmi rejects
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="not a valid state"):
        qmi(bad)
    with pytest.raises(ValueError, match="not a valid state"):
        oracles.stacked_qmi(np.array([states[0], bad]))


def test_lfs_series_identity_family_is_flat():
    delta = lfs_series(np.stack([IDENTITY] * 6))
    assert delta.shape == (5,)
    assert np.max(np.abs(delta)) <= 1e-12


def test_lfs_series_starts_at_two_bits():
    j_id = choi(np.eye(4, dtype=complex))
    assert qmi(j_id / 2) == pytest.approx(2.0, abs=1e-12)
    # the first increment of a thermalizing channel is its whole QMI drop
    thermalizing = pattern_entries(affine_to_superoperator(
        AffineBlochMap(m=np.zeros((3, 3)), c=np.array([0, 0, -np.tanh(0.5)]))))
    assert lfs_series(np.stack([IDENTITY, thermalizing]))[0] == pytest.approx(
        -2.0, abs=1e-12)


def test_lfs_series_rejects_unphysical_states():
    # J/2 = diag(1.3, -0.3, 0, 1)/2: a = 1.3, b = 0
    bad = np.array([1.3, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="state 1 "):
        lfs_series(np.stack([IDENTITY, bad]))
    with pytest.raises(ValueError, match="state 2 "):
        lfs_series(np.stack([IDENTITY, IDENTITY, [np.nan, 0, 1, 0]]))


def test_lfs_series_matches_qmi_of_the_choi_states():
    rng = np.random.default_rng(29)
    family = np.stack([pattern_entries(affine_to_superoperator(AffineBlochMap(
        m=np.diag([r, r, r ** 2]), c=np.array([0, 0, z]))))
        for r, z in zip(rng.uniform(0, 0.9, 40), rng.uniform(-0.1, 0.1, 40))])
    family[:, 3] = 0.1 * family[:, 2] * np.exp(2j * np.pi * rng.random(40))
    chois = choi(oracles.pattern_superoperator(family))
    want = np.diff([qmi(j / 2) for j in chois])
    assert np.abs(lfs_series(family) - want).max() <= 1e-14


def test_lfs_series_counts_positive_increments_only():
    thermalizing, partial = (pattern_entries(affine_to_superoperator(
        AffineBlochMap(m=m, c=np.array([0, 0, z]))))
        for m, z in ((np.zeros((3, 3)), -np.tanh(0.5)), (np.diag([0.7, 0.7, 0.7]), -0.2)))
    delta = lfs_series(np.stack([IDENTITY, partial, thermalizing, partial]))
    assert delta[0] < 0 and delta[1] < 0 and delta[2] > 0
    columns = zero_table(3)
    columns.update(n=np.arange(1, 4), delta_i=delta)
    assert summarize(columns, n_max=3).i_lfs == pytest.approx(delta[2], abs=1e-12)
