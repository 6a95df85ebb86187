import numpy as np
import pytest

from kdqflux.linalg import exp_hermitian_generator
from kdqflux.model import (ANISOTROPIC, IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z,
                           CouplingParams, SpinParams, ThermalSpec,
                           anisotropic_sm_interaction, collision_unitaries,
                           heisenberg_interaction, local_hamiltonian,
                           maximally_entangled_state, probe_states,
                           thermal_state)
from kdqflux.witnesses import qmi
from oracles import partial_trace


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


def test_heisenberg_conserves_magnetization():
    mag = np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)
    for g in (0.05, 0.2, 1.0, -0.7):
        assert np.max(np.abs(comm(heisenberg_interaction(g), mag))) <= 1e-14


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
    with pytest.raises(ValueError):
        anisotropic_sm_interaction(1.5)
    with pytest.raises(ValueError):
        CouplingParams(gamma=-1.2)


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


def test_thermal_validation():
    with pytest.raises(ValueError):
        ThermalSpec(beta=-1.0)
    with pytest.raises(ValueError):
        ThermalSpec(beta=2e3)


# ---------------------------------------------------------------- probes

def test_probe_states_match_projector_matrices():
    p0, p1, p_plus, p_r = probe_states()
    assert np.array_equal(p0, np.diag([1, 0]).astype(complex))
    assert np.array_equal(p1, np.diag([0, 1]).astype(complex))
    assert np.allclose(p_plus, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-15)
    assert np.allclose(p_r, 0.5 * np.array([[1, -1j], [1j, 1]]), atol=1e-15)


def test_probe_states_are_rank_one_projectors():
    for p in probe_states():
        assert abs(np.trace(p) - 1.0) <= 1e-15
        assert np.allclose(p @ p, p, atol=1e-14)
        assert np.max(np.abs(p - p.conj().T)) <= 1e-15


# --------------------------------------------------------- entangled state

def test_maximally_entangled_state():
    rho = maximally_entangled_state()
    assert np.allclose(partial_trace(rho, [2, 2], [0]), IDENTITY_2 / 2, atol=1e-14)
    assert np.allclose(partial_trace(rho, [2, 2], [1]), IDENTITY_2 / 2, atol=1e-14)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-14)
    assert qmi(rho) == pytest.approx(2.0, abs=1e-12)


def test_spin_params_detuning():
    assert SpinParams(omega_s=0.8).detuning == pytest.approx(-0.2)
    assert CouplingParams(tau1=0.3, tau2=0.1).tau == pytest.approx(0.4)


@pytest.mark.parametrize("omega_s", [0.0, -0.3])
def test_spin_params_reject_non_positive_system_frequency(omega_s):
    with pytest.raises(ValueError, match="omega_s"):
        SpinParams(omega_s=omega_s)
