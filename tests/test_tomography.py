import numpy as np
import pytest

from kdqflux.analysis import analyze, evolve_runs, probe_bloch_history
from kdqflux.engine import RunConfig, evolve_grid
from kdqflux.model import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z,
                           CouplingParams)
from kdqflux.tomography import (AffineBlochMap, _adjugate3,
                                _off_pattern_residual, affine_to_superoperator,
                                bloch_vector, choi, density_from_bloch,
                                reconstruct_affine, time_local_family)
from oracles import (apply_superoperator, pauli_bloch_history, same_bits,
                     stacked_adjugate3, stacked_affine_to_superoperator,
                     stacked_reconstruct_affine)

_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# Bloch vectors of the probe states, in the order (P0, P1, P+, PR)
# that reconstruct_affine reads
PROBE_BLOCHS = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                         [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
SWAP_TAU = np.pi / (2 * 0.2)


def identity_map() -> AffineBlochMap:
    return AffineBlochMap(m=np.eye(3), c=np.zeros(3))


def random_map(rng, scale=0.4) -> AffineBlochMap:
    return AffineBlochMap(m=np.eye(3) * 0.5 + rng.normal(scale=scale, size=(3, 3)),
                          c=rng.normal(scale=0.2, size=3))


def inverse(bloch_map: AffineBlochMap):
    """The inverse map and the SingularMapError or None, as the step map of
    the family (bloch_map, identity) from ``time_local_family``."""
    steps, error = time_local_family(AffineBlochMap(
        m=np.stack([bloch_map.m, np.eye(3)]), c=np.stack([bloch_map.c, np.zeros(3)])))
    return (AffineBlochMap(m=steps.m[0], c=steps.c[0]) if len(steps.m) else None,
            error)


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


def test_probe_bloch_history_equals_pauli_trace_bit_for_bit():
    rng = np.random.default_rng(9)
    evolved = evolve_runs([RunConfig(n_max=130)])[0][:, 0, 1:]
    signed = np.array([0.0, -0.0, 1.0, -0.5, 2.0**-1074, -3.0, 1e308, -1e308])
    parts = rng.choice(signed, size=(2, 40, 4, 2, 2))
    stacks = [evolved, parts[0] + 1j * parts[1],
              rng.normal(size=(40, 4, 2, 2)) + 1j * rng.normal(size=(40, 4, 2, 2))]
    for probes in stacks:
        for m in (probes, np.asfortranarray(probes), probes[::3, ::-1],
                  probes.swapaxes(-1, -2)):
            with np.errstate(over="ignore"):
                expected = pauli_bloch_history(m)
                got = probe_bloch_history(m)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


# -------------------------------------------------------------- reconstruct

def test_reconstruct_unevolved_probes_gives_identity():
    out = reconstruct_affine(PROBE_BLOCHS)
    assert np.allclose(out.m, np.eye(3), atol=1e-14)
    assert np.allclose(out.c, 0.0, atol=1e-14)


def test_reconstruct_full_swap_collision():
    # one full S-M swap with a thermal memory: constant map onto the memory
    config = RunConfig(couplings=CouplingParams(tau1=SWAP_TAU), n_max=1)
    blochs = probe_bloch_history(evolve_runs([config])[0][:, 0, 1:])
    out = reconstruct_affine(blochs[1])
    assert np.max(np.abs(out.m)) <= 1e-12
    assert np.allclose(out.c, [0.0, 0.0, -np.tanh(0.5)], atol=1e-12)


def test_reconstruct_rejects_noncanonical_probes():
    # the four probes (P0, P1, P+, PR) fix the map; three do not
    with pytest.raises(ValueError):
        reconstruct_affine(PROBE_BLOCHS[:3])


def test_reconstructed_map_predicts_direct_evolution():
    config = RunConfig(n_max=40)
    family = analyze(config).family
    rng = np.random.default_rng(9)
    rho0 = np.stack([random_density(rng) for _ in range(5)])
    history, _ = evolve_grid([config], rho0)
    for i, rho in enumerate(rho0):
        r0 = bloch_vector(rho)
        for n in (1, 17, 40):
            mapped = family.m[n] @ r0 + family.c[n]
            assert np.linalg.norm(mapped - bloch_vector(history[n, 0, i])) <= 1e-9


# ------------------------------------------------------------------ inverse

def test_invert_identity():
    out, _ = inverse(identity_map())
    assert np.allclose(out.m, np.eye(3), atol=1e-14)
    assert np.allclose(out.c, 0.0, atol=1e-14)


def test_invert_diagonal_example():
    out, _ = inverse(AffineBlochMap(m=np.diag([0.5, 0.5, 0.25]),
                                    c=np.array([0, 0, 0.1])))
    assert np.allclose(out.m, np.diag([2.0, 2.0, 4.0]), atol=1e-12)
    assert np.allclose(out.c, [0, 0, -0.4], atol=1e-12)


def test_invert_is_involution():
    rng = np.random.default_rng(13)
    for _ in range(10):
        bm = random_map(rng)
        twice, _ = inverse(inverse(bm)[0])
        assert np.max(np.abs(twice.m - bm.m)) <= 1e-12
        assert np.max(np.abs(twice.c - bm.c)) <= 1e-12


def test_invert_matches_numpy_inverse():
    rng = np.random.default_rng(17)
    bm = random_map(rng)
    out, _ = inverse(bm)
    assert np.allclose(out.m, np.linalg.inv(bm.m), atol=1e-12)


def test_invert_singular_raises_with_diagnostics():
    # member 6 is singular: the family stops before step 7
    m = np.stack([np.eye(3)] * 6 + [np.zeros((3, 3))] + [np.eye(3)] * 2)
    steps, error = time_local_family(AffineBlochMap(m=m, c=np.zeros((9, 3))))
    assert len(steps.m) == 6
    assert error.step == 7 and error.det == 0.0
    assert "singular Bloch map at step 7" in str(error)


def test_invert_condition_threshold():
    bm = AffineBlochMap(m=np.diag([1.0, 1.0, 1e-6]), c=np.zeros(3))
    assert inverse(bm)[1] is None   # condition estimate about 1.4e6
    # det 1e6 passes the determinant floor; condition estimate about 1.4e9
    out, error = inverse(AffineBlochMap(m=np.diag([1e5, 1e5, 1e-4]), c=np.zeros(3)))
    assert out is None and error.step == 1
    assert error.det == pytest.approx(1e6) and 1e9 < error.cond < 2e9


# --------------------------------------------------------------- time-local

def test_time_local_of_equal_maps_is_identity():
    rng = np.random.default_rng(19)
    bm = random_map(rng)
    steps, error = time_local_family(AffineBlochMap(m=np.stack([bm.m] * 2),
                                                    c=np.stack([bm.c] * 2)))
    assert error is None
    assert np.allclose(steps.m, np.eye(3), atol=1e-12)
    assert np.allclose(steps.c, 0.0, atol=1e-12)


def test_time_local_composition_reproduces_cumulative():
    family = analyze(RunConfig(n_max=30)).family
    steps, error = time_local_family(family)
    assert error is None and len(steps.m) == 30
    m_acc, c_acc = np.eye(3), np.zeros(3)
    for m, c in zip(steps.m, steps.c):
        m_acc = m @ m_acc
        c_acc = m @ c_acc + c
    assert np.max(np.abs(m_acc - family.m[30])) <= 1e-9
    assert np.max(np.abs(c_acc - family.c[30])) <= 1e-9


def test_time_local_markovian_limit_is_step_independent():
    # memory fully refreshed each collision: the step map stops changing
    config = RunConfig(couplings=CouplingParams(tau2=SWAP_TAU), n_max=12)
    steps, _ = time_local_family(analyze(config).family)
    assert np.max(np.abs(steps.m[2:] - steps.m[1])) <= 1e-10
    assert np.max(np.abs(steps.c[2:] - steps.c[1])) <= 1e-10


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
    assert sop[0, 0] == pytest.approx(p0, abs=1e-12)    # a
    assert sop[0, 3] == pytest.approx(p0, abs=1e-12)    # b
    assert abs(sop[1, 1]) <= 1e-12 and abs(sop[1, 2]) <= 1e-12   # c, d
    assert _off_pattern_residual(sop) <= 1e-12


def test_superoperator_action_matches_affine_action():
    rng = np.random.default_rng(29)
    for _ in range(8):
        bm = random_map(rng)
        rho = random_density(rng)
        via_sop = apply_superoperator(affine_to_superoperator(bm), rho)
        via_bloch = density_from_bloch(bm.m @ bloch_vector(rho) + bm.c)
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
    family = analyze(RunConfig(n_max=80)).family
    images = family.m @ vertices.T + family.c[:, :, np.newaxis]
    assert np.linalg.norm(images, axis=1).max() <= 1.0 + 1e-8


# ------------------------------------------------------- pattern extraction

def test_extract_identity_channel():
    assert _off_pattern_residual(np.eye(4, dtype=complex)) == 0.0


def test_extract_flags_off_pattern_weight():
    sop = np.eye(4, dtype=complex)
    sop[1, 0] = 1e-3
    assert _off_pattern_residual(sop) == pytest.approx(1e-3)
    sop[1, 0], sop[0, 3] = 0.0, 0.5 + 2e-3j   # imaginary part of b
    assert _off_pattern_residual(sop) == pytest.approx(2e-3)


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
    assert sop[0, 0] == pytest.approx(1.1, abs=1e-12)   # a
    assert sop[0, 3] == pytest.approx(0.0, abs=1e-12)   # b
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


# ------------------------------------------------- preallocated builders

def _real_stacks(rng, evolved, shape):
    """Random stacks of ``shape``, stacks with signed zeros, and ``evolved``
    (data of a run), each as given, Fortran-ordered, sliced and empty."""
    signed = np.array([0.0, -0.0, 1.0, -0.5, 2.0**-1074, -3.0, 0.25])
    for stack in (rng.normal(size=shape), rng.choice(signed, size=shape),
                  evolved):
        yield from (stack, np.asfortranarray(stack), stack[::-3], stack[:0])


def test_reconstruct_affine_equals_stacked_form_bit_for_bit():
    rng = np.random.default_rng(11)
    evolved = probe_bloch_history(evolve_runs([RunConfig(n_max=60)])[0][:, 0, 1:])
    for blochs in _real_stacks(rng, evolved, (40, 4, 3)):
        m, c = stacked_reconstruct_affine(blochs)
        out = reconstruct_affine(blochs)
        assert same_bits(out.m, m) and same_bits(out.c, c)


def test_adjugate_equals_stacked_form_bit_for_bit():
    rng = np.random.default_rng(12)
    family = analyze(RunConfig(n_max=60)).family
    for m in _real_stacks(rng, family.m, (40, 3, 3)):
        assert same_bits(_adjugate3(m), stacked_adjugate3(m))


def test_superoperator_equals_stacked_form_bit_for_bit():
    rng = np.random.default_rng(13)
    result = analyze(RunConfig(n_max=60, couplings=CouplingParams(
        sm_interaction_kind="anisotropic", gamma=0.4)))
    steps, _ = time_local_family(result.family)
    maps = np.concatenate([steps.m, steps.c[:, :, np.newaxis]], axis=-1)
    for stack in _real_stacks(rng, maps, (40, 3, 4)):
        m, c = stack[..., :3], stack[..., 3]
        assert same_bits(affine_to_superoperator(AffineBlochMap(m=m, c=c)),
                         stacked_affine_to_superoperator(m, c))
