import itertools

import numpy as np
import pytest

from kdqflux.linalg import exp_hermitian_generator
from kdqflux.model import (ANISOTROPIC, IDENTITY_2, ISOTROPIC, SIGMA_X,
                           SIGMA_Y, SIGMA_Z, CouplingParams, SpinParams,
                           ThermalSpec, collision_unitaries,
                           phase_error_bound, thermal_state)
from kdqflux.tomography import PROBES
from oracles import (anisotropic_sm_interaction, exp_thermal_state,
                     heisenberg_interaction, kron_collision_unitaries,
                     kron_hamiltonians, local_hamiltonian,
                     maximally_entangled_state, partial_trace,
                     pauli_coefficients, qmi, same_bits)


def comm(a, b):
    return a @ b - b @ a


# ------------------------------------------------------ local Hamiltonian

@pytest.mark.parametrize("omega, diag", [(1.0, (0.5, -0.5)),
                                         (0.0, (0.0, 0.0)),
                                         (0.8, (0.4, -0.4))])
def test_local_hamiltonian(omega, diag):
    assert np.allclose(local_hamiltonian(omega), np.diag(diag), atol=1e-15)


# ------------------------------------------------------------ interactions

def test_heisenberg_zero_coupling():
    assert np.all(heisenberg_interaction(0.0) == 0)


def test_heisenberg_hand_expansion():
    # expand (g/2)(XX + YY + ZZ) entry by entry at g = 0.2
    h = heisenberg_interaction(0.2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.1
    expected[1, 1] = expected[2, 2] = -0.1
    expected[1, 2] = expected[2, 1] = 0.2
    assert np.allclose(h, expected, atol=1e-15)
    oracle = 0.1 * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)
                    + np.kron(SIGMA_Z, SIGMA_Z))
    assert np.allclose(h, oracle, atol=1e-15)


def test_anisotropic_at_gamma_zero():
    expected = 0.5 * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)) \
        + np.kron(SIGMA_Z, SIGMA_Z)
    assert np.allclose(anisotropic_sm_interaction(0.0), expected, atol=1e-15)


def test_anisotropic_at_gamma_one():
    expected = np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
    assert np.allclose(anisotropic_sm_interaction(1.0), expected, atol=1e-15)


def test_anisotropic_hermitian_and_scaled():
    for gamma in np.linspace(-1, 1, 9):
        h = anisotropic_sm_interaction(gamma, strength=0.3)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14
        assert np.allclose(h, 0.3 * anisotropic_sm_interaction(gamma), atol=1e-15)


def test_anisotropic_rejects_gamma_out_of_range():
    for gamma in (1.5, -1.2):
        with pytest.raises(ValueError, match="gamma"):
            CouplingParams(gamma=gamma)


@pytest.mark.parametrize("field, value", [
    ("g_sm", np.inf), ("g_ma", np.nan), ("tau1", np.nan), ("tau2", np.inf),
    ("aniso_strength", np.nan), ("gamma", np.nan)])
def test_coupling_params_reject_non_finite_values(field, value):
    # a non-finite coupling or duration makes eigh fail in
    # collision_unitaries, or the first collision drift
    with pytest.raises(ValueError, match=field):
        CouplingParams(**{field: value})


# ------------------------------------------------------ collision unitaries

def test_collision_unitaries_zero_durations():
    u_sm, u_ma = collision_unitaries(SpinParams(),
                                     CouplingParams(tau1=0.0, tau2=0.0))
    assert np.allclose(u_sm, np.eye(8), atol=1e-14)
    assert np.allclose(u_ma, np.eye(8), atol=1e-14)


def test_collision_unitaries_are_unitary():
    for spins in (SpinParams(), SpinParams(omega_s=0.8), SpinParams(omega_s=1.3)):
        for couplings in (CouplingParams(),
                          CouplingParams(sm_interaction_kind=ANISOTROPIC, gamma=0.5)):
            for u in collision_unitaries(spins, couplings):
                assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-12


def test_collision_unitaries_equal_kron_assembly_bit_for_bit():
    # 25 random configurations for each coupling kind, gamma (random, -1,
    # +1), default or explicit anisotropic strength, and random or zero tau
    rng = np.random.default_rng(17)
    cases = itertools.product((ISOTROPIC, ANISOTROPIC), (None, -1.0, 1.0),
                              (False, True), (False, True), range(25))
    for kind, gamma, explicit, zero_tau, _ in cases:
        spins = SpinParams(omega_s=rng.uniform(0.05, 2.0),
                           omega_m=rng.uniform(-2.0, 2.0),
                           omega_a=rng.uniform(-2.0, 2.0))
        couplings = CouplingParams(
            g_sm=rng.uniform(-0.5, 0.5), g_ma=rng.uniform(-0.5, 0.5),
            tau1=0.0 if zero_tau else rng.uniform(0.0, 2.0),
            tau2=0.0 if zero_tau else rng.uniform(0.0, 2.0),
            gamma=rng.uniform(-1.0, 1.0) if gamma is None else gamma,
            sm_interaction_kind=kind,
            aniso_strength=rng.uniform(-1.0, 1.0) if explicit else None)
        for got, want in zip(collision_unitaries(spins, couplings),
                             kron_collision_unitaries(spins, couplings)):
            assert same_bits(got, want), (spins, couplings)


def test_propagators_conserve_parity_and_isotropic_magnetization():
    # both propagators commute with the excitation parity ZZZ, which makes
    # every reduced map phase covariant and ``residual`` exactly 0; with an
    # isotropic S-M coupling U_SM also commutes with the total magnetization
    # ZII + IZI + IIZ, and U_MA does for either kind. 200 draws over the
    # model's parameter ranges; measured over four seeds: at most 1.2e-15
    # and 8.0e-16
    parity = np.kron(np.kron(SIGMA_Z, SIGMA_Z), SIGMA_Z)
    z, i2 = SIGMA_Z, IDENTITY_2
    magnetization = sum(np.kron(np.kron(a, b), c)
                        for a, b, c in ((z, i2, i2), (i2, z, i2), (i2, i2, z)))
    rng = np.random.default_rng(47)
    for i in range(200):
        kind = (ISOTROPIC, ANISOTROPIC)[i % 2]
        spins = SpinParams(*rng.uniform(0.5, 1.5, 3))
        couplings = CouplingParams(
            g_sm=rng.uniform(0.05, 0.4), g_ma=rng.uniform(0.05, 0.4),
            tau1=rng.uniform(0.0, 1.0), tau2=rng.uniform(0.0, 1.0),
            gamma=rng.uniform(-1.0, 1.0), sm_interaction_kind=kind)
        u_sm, u_ma = collision_unitaries(spins, couplings)
        for u in (u_sm, u_ma):
            assert np.abs(comm(u, parity)).max() <= 2e-15, (spins, couplings)
        for u in (u_sm, u_ma) if kind == ISOTROPIC else (u_ma,):
            assert np.abs(comm(u, magnetization)).max() <= 2e-15, (spins, couplings)


def test_phase_error_bound_sums_the_pauli_coefficients():
    # eps times the larger of B tau over the two propagators, B the sum of
    # |Tr(P H)| / 8 over the Pauli strings P, a bound on ||H||_2, for random
    # configurations of both kinds
    rng = np.random.default_rng(23)
    for kind, explicit, _ in itertools.product((ISOTROPIC, ANISOTROPIC),
                                               (False, True), range(10)):
        spins = SpinParams(omega_s=rng.uniform(0.05, 2.0),
                           omega_m=rng.uniform(-2.0, 2.0),
                           omega_a=rng.uniform(-2.0, 2.0))
        couplings = CouplingParams(
            g_sm=rng.uniform(-0.5, 0.5), g_ma=rng.uniform(-0.5, 0.5),
            tau1=rng.uniform(0.0, 2.0), tau2=rng.uniform(0.0, 2.0),
            gamma=rng.uniform(-1.0, 1.0), sm_interaction_kind=kind,
            aniso_strength=rng.uniform(-1.0, 1.0) if explicit else None)
        weights = [np.abs(pauli_coefficients(h)).sum()
                   for h in kron_hamiltonians(spins, couplings)]
        for b, h in zip(weights, kron_hamiltonians(spins, couplings)):
            assert np.linalg.norm(h, 2) <= b * (1 + 1e-14)
        want = max(weights[0] * couplings.tau1, weights[1] * couplings.tau2)
        got = phase_error_bound(spins, couplings) / np.finfo(float).eps
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_resonant_isotropic_energy_preservation():
    spins = SpinParams()
    u_sm, u_ma = collision_unitaries(spins, CouplingParams())
    h_free = (np.kron(np.kron(local_hamiltonian(1.0), IDENTITY_2), IDENTITY_2)
              + np.kron(np.kron(IDENTITY_2, local_hamiltonian(1.0)), IDENTITY_2)
              + np.kron(np.kron(IDENTITY_2, IDENTITY_2), local_hamiltonian(1.0)))
    assert np.max(np.abs(comm(h_free, u_sm))) <= 1e-12
    assert np.max(np.abs(comm(h_free, u_ma))) <= 1e-12
    # pairwise energy is conserved too: [H_S + H_M, U_SM] = 0
    h_sm_pair = (np.kron(np.kron(local_hamiltonian(1.0), IDENTITY_2), IDENTITY_2)
                 + np.kron(np.kron(IDENTITY_2, local_hamiltonian(1.0)), IDENTITY_2))
    assert np.max(np.abs(comm(h_sm_pair, u_sm))) <= 1e-12


def test_detuned_breaks_energy_preservation():
    spins = SpinParams(omega_s=0.8)
    u_sm, _ = collision_unitaries(spins, CouplingParams())
    h_pair = (np.kron(np.kron(local_hamiltonian(0.8), IDENTITY_2), IDENTITY_2)
              + np.kron(np.kron(IDENTITY_2, local_hamiltonian(1.0)), IDENTITY_2))
    assert np.max(np.abs(comm(h_pair, u_sm))) > 1e-6


# ------------------------------------------------------------ thermal state

def test_thermal_infinite_temperature():
    assert np.allclose(thermal_state(ThermalSpec(beta=0.0), 1.0), IDENTITY_2 / 2,
                       atol=1e-15)


def test_thermal_gibbs_weights():
    rho = thermal_state(ThermalSpec(beta=1.0), 1.0)
    z = 1.0 + np.e
    assert np.allclose(rho, np.diag([1.0 / z, np.e / z]), atol=1e-15)
    assert np.linalg.eigvalsh(rho).min() >= 0.0
    assert abs(np.trace(rho) - 1.0) <= 1e-15


def test_thermal_bloch_z_component():
    rho = thermal_state(ThermalSpec(beta=1.0), 1.0)
    z = np.trace(SIGMA_Z @ rho).real
    assert z == pytest.approx(-np.tanh(0.5), abs=1e-12)
    assert z == pytest.approx(-0.4621, abs=1e-4)


def test_thermal_is_free_evolution_fixed_point():
    rho = thermal_state(ThermalSpec(beta=0.7), 1.3)
    u = exp_hermitian_generator(local_hamiltonian(1.3), 2.1)
    assert np.allclose(u @ rho @ u.conj().T, rho, atol=1e-14)


def test_thermal_state_coherences_are_exact_zeros():
    # the collision loop never writes the blocks of rho_SM (x) rho_A that
    # these entries would fill
    rng = np.random.default_rng(7)
    omegas = np.concatenate([[1.0, 1e-300, 1e300], 10.0 ** rng.uniform(-3, 3, 40)])
    betas = np.concatenate([[0.0, 1e3], 10.0 ** rng.uniform(-4, 3, 40)])
    with np.errstate(over="ignore", invalid="ignore"):
        for omega in omegas:
            for beta in betas:
                rho = thermal_state(ThermalSpec(beta=beta), omega)
                assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0, (omega, beta)


def test_thermal_state_keeps_the_exp_weights_and_takes_the_overflow_limit():
    """Bit for bit the normalized exp weights wherever they are finite; once
    the weight of the ground level overflows, the pure ground state, the
    exact limit of the normalized weights."""
    omegas = np.concatenate([
        [1.0, 1.5, 1e-300, 1e300, 2 * 709.78 / 1e3, 2 * 709.79 / 1e3],
        10.0 ** np.linspace(-3, 3, 31)])
    betas = np.concatenate([[0.0, 1.0, 3.0, 1e3], 10.0 ** np.linspace(-4, 3, 29)])
    finite = limit = 0
    for omega in np.concatenate([omegas, -omegas]):
        for beta in betas:
            got = thermal_state(ThermalSpec(beta=beta), omega)
            with np.errstate(over="ignore", invalid="ignore"):
                want = exp_thermal_state(ThermalSpec(beta=beta), omega)
            if np.isfinite(want).all():
                assert same_bits(got, want), (beta, omega)
                finite += 1
            else:
                ground = [0.0, 1.0] if omega > 0 else [1.0, 0.0]
                assert same_bits(got, np.diag(ground).astype(complex)), (beta, omega)
                limit += 1
    assert finite > 2000 and limit > 200


def test_thermal_validation():
    with pytest.raises(ValueError):
        ThermalSpec(beta=-1.0)
    with pytest.raises(ValueError):
        ThermalSpec(beta=2e3)


# ---------------------------------------------------------------- probes

def test_probe_states_match_projector_matrices():
    p0, p1, p_plus, p_r = PROBES
    assert np.array_equal(p0, np.diag([1, 0]).astype(complex))
    assert np.array_equal(p1, np.diag([0, 1]).astype(complex))
    assert np.allclose(p_plus, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-15)
    assert np.allclose(p_r, 0.5 * np.array([[1, -1j], [1j, 1]]), atol=1e-15)


def test_probe_states_are_rank_one_projectors():
    for p in PROBES:
        assert abs(np.trace(p) - 1.0) <= 1e-15
        assert np.allclose(p @ p, p, atol=1e-14)
        assert np.max(np.abs(p - p.conj().T)) <= 1e-15


def test_maximally_entangled_state():
    rho = maximally_entangled_state()
    assert np.allclose(partial_trace(rho, [2, 2], [0]), IDENTITY_2 / 2, atol=1e-14)
    assert np.allclose(partial_trace(rho, [2, 2], [1]), IDENTITY_2 / 2, atol=1e-14)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-14)
    assert qmi(rho) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("omega_s", [0.0, -0.3])
def test_spin_params_reject_non_positive_system_frequency(omega_s):
    with pytest.raises(ValueError, match="omega_s"):
        SpinParams(omega_s=omega_s)
