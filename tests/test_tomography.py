import numpy as np
import pytest

from kdqflux.analysis import probe_bloch_history, reconstruct_map_family
from kdqflux.engine import RunConfig, run_probe_bundle, run_trajectory
from kdqflux.model import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z,
                           CouplingParams)
from kdqflux.tomography import (AffineBlochMap, PROBE_BLOCHS,
                                SingularMapError, affine_to_superoperator,
                                apply_superoperator, bloch_vector, choi,
                                density_from_bloch, extract_phase_covariant,
                                invert_affine, reconstruct_affine,
                                time_local_map)

_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
SWAP_TAU = np.pi / (2 * 0.2)


def identity_map() -> AffineBlochMap:
    return AffineBlochMap(m=np.eye(3), c=np.zeros(3))


def random_map(rng, scale=0.4) -> AffineBlochMap:
    return AffineBlochMap(m=np.eye(3) * 0.5 + rng.normal(scale=scale, size=(3, 3)),
                          c=rng.normal(scale=0.2, size=3))


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def sop_loop_oracle(bloch_map: AffineBlochMap) -> np.ndarray:
    """Definitional construction: apply the linear extension to each matrix
    unit and stack the vectorized images as columns."""
    lam_id = IDENTITY_2 + sum(bloch_map.c[i] * _PAULIS[i] for i in range(3))
    lam_pauli = [sum(bloch_map.m[i, j] * _PAULIS[i] for i in range(3))
                 for j in range(3)]
    sop = np.empty((4, 4), dtype=complex)
    for col in range(4):
        unit = np.zeros((2, 2), dtype=complex)
        unit[divmod(col, 2)] = 1.0
        image = (np.trace(unit) * lam_id
                 + sum(np.trace(p @ unit) * lam_pauli[j]
                       for j, p in enumerate(_PAULIS))) / 2.0
        sop[:, col] = image.reshape(4)
    return sop


# ------------------------------------------------------------- Bloch basics

def test_bloch_vector_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = random_density(rng)
        assert np.allclose(density_from_bloch(bloch_vector(rho)), rho, atol=1e-14)


def test_probe_bloch_constants():
    from kdqflux.model import probe_states
    for probe, expected in zip(probe_states(), PROBE_BLOCHS):
        assert np.allclose(bloch_vector(probe), expected, atol=1e-14)


# -------------------------------------------------------------- reconstruct

def test_reconstruct_unevolved_probes_gives_identity():
    out = reconstruct_affine(PROBE_BLOCHS)
    assert np.allclose(out.m, np.eye(3), atol=1e-14)
    assert np.allclose(out.c, 0.0, atol=1e-14)


def test_reconstruct_full_swap_collision():
    # one full S-M swap with a thermal memory: constant map onto the memory
    config = RunConfig(couplings=CouplingParams(tau1=SWAP_TAU), n_max=1)
    blochs = probe_bloch_history(run_probe_bundle(config))
    out = reconstruct_affine(blochs[1])
    assert np.max(np.abs(out.m)) <= 1e-12
    assert np.allclose(out.c, [0.0, 0.0, -np.tanh(0.5)], atol=1e-12)


def test_reconstruct_rejects_noncanonical_probes():
    with pytest.raises(ValueError):
        reconstruct_affine(PROBE_BLOCHS, probe_blochs_at_0=np.eye(4, 3))


def test_reconstructed_map_predicts_direct_evolution():
    config = RunConfig(n_max=40)
    maps = reconstruct_map_family(run_probe_bundle(config))
    rng = np.random.default_rng(9)
    for _ in range(5):
        rho0 = random_density(rng)
        direct = run_trajectory(
            RunConfig(initial_system=rho0, n_max=40)).system_states
        r0 = bloch_vector(rho0)
        for n in (1, 17, 40):
            assert np.linalg.norm(maps[n].apply(r0) - bloch_vector(direct[n])) <= 1e-9


# ------------------------------------------------------------------ inverse

def test_invert_identity():
    out = invert_affine(identity_map())
    assert np.allclose(out.m, np.eye(3), atol=1e-14)
    assert np.allclose(out.c, 0.0, atol=1e-14)


def test_invert_diagonal_example():
    out = invert_affine(AffineBlochMap(m=np.diag([0.5, 0.5, 0.25]),
                                       c=np.array([0, 0, 0.1])))
    assert np.allclose(out.m, np.diag([2.0, 2.0, 4.0]), atol=1e-12)
    assert np.allclose(out.c, [0, 0, -0.4], atol=1e-12)


def test_invert_is_involution():
    rng = np.random.default_rng(13)
    for _ in range(10):
        bm = random_map(rng)
        twice = invert_affine(invert_affine(bm))
        assert np.max(np.abs(twice.m - bm.m)) <= 1e-12
        assert np.max(np.abs(twice.c - bm.c)) <= 1e-12


def test_invert_matches_numpy_inverse():
    rng = np.random.default_rng(17)
    bm = random_map(rng)
    out = invert_affine(bm)
    assert np.allclose(out.m, np.linalg.inv(bm.m), atol=1e-12)


def test_invert_singular_raises_with_diagnostics():
    with pytest.raises(SingularMapError) as exc_info:
        invert_affine(AffineBlochMap(m=np.zeros((3, 3)), c=np.zeros(3)), step=7)
    assert exc_info.value.step == 7
    assert "singular" in str(exc_info.value)


def test_invert_condition_threshold():
    bm = AffineBlochMap(m=np.diag([1.0, 1.0, 1e-6]), c=np.zeros(3))
    invert_affine(bm)   # fine with the default threshold
    with pytest.raises(SingularMapError):
        invert_affine(bm, cond_threshold=1e3)


# --------------------------------------------------------------- time-local

def test_time_local_of_equal_maps_is_identity():
    rng = np.random.default_rng(19)
    bm = random_map(rng)
    out = time_local_map(bm, bm)
    assert np.allclose(out.m, np.eye(3), atol=1e-12)
    assert np.allclose(out.c, 0.0, atol=1e-12)


def test_time_local_composition_reproduces_cumulative():
    config = RunConfig(n_max=30)
    maps = reconstruct_map_family(run_probe_bundle(config))
    m_acc, c_acc = np.eye(3), np.zeros(3)
    for n in range(1, 31):
        tl = time_local_map(maps[n], maps[n - 1], step=n)
        m_acc = tl.m @ m_acc
        c_acc = tl.m @ c_acc + tl.c
    assert np.max(np.abs(m_acc - maps[30].m)) <= 1e-9
    assert np.max(np.abs(c_acc - maps[30].c)) <= 1e-9


def test_time_local_markovian_limit_is_step_independent():
    # memory fully refreshed each collision: the step map stops changing
    config = RunConfig(couplings=CouplingParams(tau2=SWAP_TAU), n_max=12)
    maps = reconstruct_map_family(run_probe_bundle(config))
    steps = [time_local_map(maps[n], maps[n - 1]) for n in range(2, 13)]
    for tl in steps[1:]:
        assert np.max(np.abs(tl.m - steps[0].m)) <= 1e-10
        assert np.max(np.abs(tl.c - steps[0].c)) <= 1e-10


# ------------------------------------------------------------ superoperator

def test_identity_superoperator():
    assert np.allclose(affine_to_superoperator(identity_map()), np.eye(4),
                       atol=1e-14)


def test_superoperator_matches_loop_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        bm = random_map(rng)
        assert np.allclose(affine_to_superoperator(bm), sop_loop_oracle(bm),
                           atol=1e-13)


def test_superoperator_thermal_reset_channel():
    bm = AffineBlochMap(m=np.zeros((3, 3)), c=np.array([0, 0, -np.tanh(0.5)]))
    sop = affine_to_superoperator(bm)
    p0 = 1.0 / (1.0 + np.e)
    entries = extract_phase_covariant(sop)
    assert entries.a == pytest.approx(p0, abs=1e-12)
    assert entries.b == pytest.approx(p0, abs=1e-12)
    assert abs(entries.c) <= 1e-12 and abs(entries.d) <= 1e-12
    assert entries.off_pattern_residual <= 1e-12


def test_superoperator_action_matches_affine_action():
    rng = np.random.default_rng(29)
    for _ in range(8):
        bm = random_map(rng)
        rho = random_density(rng)
        via_sop = apply_superoperator(affine_to_superoperator(bm), rho)
        via_bloch = density_from_bloch(bm.apply(bloch_vector(rho)))
        assert np.max(np.abs(via_sop - via_bloch)) <= 1e-12


def test_superoperator_trace_preserving_structure():
    rng = np.random.default_rng(31)
    sop = affine_to_superoperator(random_map(rng))
    # the populations of the image must always sum to the input trace
    col_sums = sop[0] + sop[3]
    assert np.allclose(col_sums, [1, 0, 0, 1], atol=1e-12)


def test_superoperator_preserves_hermiticity():
    rng = np.random.default_rng(33)
    for _ in range(6):
        sop = affine_to_superoperator(random_map(rng))
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = h + h.conj().T
        out = apply_superoperator(sop, h)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12


def test_reconstructed_maps_keep_bloch_ball_inside():
    # vertex sample of the Bloch ball stays inside for physical maps
    vertices = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                         [0, 0, 1], [0, 0, -1]], dtype=float)
    maps = reconstruct_map_family(run_probe_bundle(RunConfig(n_max=80)))
    worst = max(np.linalg.norm(bm.apply(v))
                for bm in maps for v in vertices)
    assert worst <= 1.0 + 1e-8


# ------------------------------------------------------- pattern extraction

def test_extract_identity_channel():
    entries = extract_phase_covariant(np.eye(4, dtype=complex))
    assert entries.a == 1.0 and entries.b == 0.0
    assert entries.c == 1.0 + 0j and entries.d == 0j
    assert entries.off_pattern_residual == 0.0
    assert entries.within_tol


def test_extract_flags_off_pattern_weight():
    sop = np.eye(4, dtype=complex)
    sop[1, 0] = 1e-3
    entries = extract_phase_covariant(sop, tol=1e-10)
    assert entries.off_pattern_residual == pytest.approx(1e-3)
    assert not entries.within_tol


# ------------------------------------------------------------------- Choi

def test_choi_identity_channel():
    j = choi(np.eye(4, dtype=complex))
    w = np.linalg.eigvalsh(j)
    assert np.allclose(w, [0, 0, 0, 2], atol=1e-13)


def test_choi_matches_explicit_pattern():
    # population entries a = 1.1, b = 0 with no coherence transfer
    bm = AffineBlochMap(m=np.diag([0.0, 0.0, 1.1]),
                        c=np.array([0.0, 0.0, 0.1]))
    sop = affine_to_superoperator(bm)
    entries = extract_phase_covariant(sop)
    assert entries.a == pytest.approx(1.1, abs=1e-12)
    assert entries.b == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(choi(sop), np.diag([1.1, -0.1, 0.0, 1.0]), atol=1e-12)


def test_choi_trace_is_two():
    rng = np.random.default_rng(37)
    for _ in range(8):
        j = choi(affine_to_superoperator(random_map(rng)))
        assert abs(np.trace(j) - 2.0) <= 1e-12
        assert np.max(np.abs(j - j.conj().T)) <= 1e-12


def test_choi_block_layout():
    rng = np.random.default_rng(41)
    sop = affine_to_superoperator(random_map(rng))
    j = choi(sop)
    for i in range(2):
        for k in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, k] = 1.0
            assert np.allclose(j[2 * i:2 * i + 2, 2 * k:2 * k + 2],
                               apply_superoperator(sop, unit), atol=1e-13)

