"""Tomography: the four numbers (a, b, c, d) of each map, their closed-form
inverse and composition, checked against the 3x3 affine route of
``tests/oracles.py``, and that route's own superoperator and Choi builders."""

import re

import numpy as np
import pytest

from kdqflux.analysis import analyze, evolve_runs
from kdqflux.engine import RunConfig, evolve_grid
from kdqflux.model import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z,
                           CouplingParams)
from kdqflux.tomography import (PROBES, SingularMapError, det_and_condition,
                                phase_covariant_maps, time_local_family)
from oracles import (AffineBlochMap, affine_family, affine_to_superoperator,
                     apply_superoperator, bloch_phase_covariant_maps, choi,
                     density_from_bloch, det3, frobenius_condition3,
                     off_pattern_residual, pattern_entries,
                     pattern_superoperator, pauli_bloch_history,
                     reconstruct_affine, same_bits, time_local_map)

_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# Bloch vectors of the probe states, in the order (P0, P1, P+, PR)
PROBE_BLOCHS = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                         [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
SWAP_TAU = np.pi / (2 * 0.2)
# (a, b, c, d) of the identity channel
IDENTITY = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)


def identity_map() -> AffineBlochMap:
    return AffineBlochMap(m=np.eye(3), c=np.zeros(3))


def random_map(rng, scale=0.4) -> AffineBlochMap:
    return AffineBlochMap(m=np.eye(3) * 0.5 + rng.normal(scale=scale, size=(3, 3)),
                          c=rng.normal(scale=0.2, size=3))


def random_maps(rng, n) -> np.ndarray:
    """(n, 4) stack of random phase covariant maps (a, b, c, d)."""
    maps = np.empty((n, 4), dtype=complex)
    maps[:, :2] = rng.uniform(-0.2, 1.2, size=(n, 2))
    maps[:, 2:] = rng.normal(scale=0.5, size=(n, 2)) + 1j * rng.normal(
        scale=0.5, size=(n, 2))
    return maps


def pattern_of(bloch_map: AffineBlochMap) -> np.ndarray:
    """(a, b, c, d) of a phase covariant affine map."""
    return pattern_entries(affine_to_superoperator(bloch_map))


def bloch_matrix(maps: np.ndarray) -> np.ndarray:
    """The 3x3 Bloch matrices M of a (..., 4) stack (a, b, c, d): from
    (x' - i y') = c (x - i y) + d (x + i y) and z' = (a - b) z + ..."""
    a, b, c, d = (maps[..., i] for i in range(4))
    m = np.zeros(maps.shape[:-1] + (3, 3))
    m[..., 0, 0], m[..., 0, 1] = (c + d).real, (c - d).imag
    m[..., 1, 0], m[..., 1, 1] = -(c + d).imag, (c - d).real
    m[..., 2, 2] = (a - b).real
    return m


def images(maps: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Images (n, k, 2, 2) of k states under each of n maps."""
    vec = states.reshape(len(states), 4)
    return np.einsum("nij,kj->nki", pattern_superoperator(maps),
                     vec).reshape(len(maps), len(states), 2, 2)


def inverse(maps: np.ndarray):
    """The inverse map and the SingularMapError or None, as the step map of
    the family (maps, identity) from ``time_local_family``."""
    steps, error = time_local_family(np.stack([maps, IDENTITY]))
    return (steps[0] if len(steps) else None), error


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

def test_probe_bloch_constants():
    assert np.allclose(pauli_bloch_history(PROBES), PROBE_BLOCHS, atol=1e-14)


def test_phase_covariant_maps_equal_the_pauli_trace_route_bit_for_bit():
    # the maps read off the states against the maps of their Pauli-trace
    # Bloch vectors: evolved probes, signed zeros, subnormals and values
    # near the top of the range, random; C, Fortran, sliced, transposed
    rng = np.random.default_rng(9)
    evolved = evolve_runs([RunConfig(n_max=130)])[0][:, 0, 1:]
    signed = np.array([0.0, -0.0, 1.0, -0.5, 2.0**-1074, -3.0, 1e307, -1e307])
    parts = rng.choice(signed, size=(2, 40, 4, 2, 2))
    # the unevolved probes with every zero part written as -0.0
    negative_zeros = np.stack([PROBES] * 3)
    negative_zeros.real[negative_zeros.real == 0.0] = -0.0
    negative_zeros.imag[negative_zeros.imag == 0.0] = -0.0
    stacks = [evolved, negative_zeros, parts[0] + 1j * parts[1],
              rng.normal(size=(40, 4, 2, 2)) + 1j * rng.normal(size=(40, 4, 2, 2))]
    for probes in stacks:
        for m in (probes, np.asfortranarray(probes), probes[::3, ::-1],
                  probes.swapaxes(-1, -2)):
            assert same_bits(phase_covariant_maps(m),
                             bloch_phase_covariant_maps(pauli_bloch_history(m)))


# -------------------------------------------------------------- reconstruct

def test_reconstruct_unevolved_probes_gives_identity():
    # the probes have one owner: a read-only constant, from which the
    # identity map is read bit for bit (Im d = -(x(PR) + y(P+))/2 is -0.0)
    # and which the pipeline evolves as it is
    identity = IDENTITY.copy()
    identity.imag[3] = -0.0
    assert same_bits(phase_covariant_maps(PROBES), identity)
    assert not PROBES.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        PROBES[0, 0, 0] = 0.5
    config = RunConfig(n_max=3)
    states = analyze(config).states[:, 1:]
    assert same_bits(states, evolve_grid([config], PROBES)[0][:, 0])
    # the states at n = 0 are PROBES themselves, so the cumulative map at
    # n = 0 is the identity bit for bit
    assert same_bits(states[0], PROBES)
    assert same_bits(analyze(config).family[0], identity)


def test_reconstruct_full_swap_collision():
    # one full S-M swap with a thermal memory: constant map onto the memory,
    # a = b = its excited population, no coherence left
    config = RunConfig(couplings=CouplingParams(tau1=SWAP_TAU), n_max=1)
    out = phase_covariant_maps(evolve_runs([config])[0][1, 0, 1:])
    p_th = (1.0 - np.tanh(0.5)) / 2.0
    assert np.allclose(out, [p_th, p_th, 0.0, 0.0], rtol=0.0, atol=1e-12)
    assert out[0].imag == 0.0 and out[1].imag == 0.0


def test_reconstruct_rejects_noncanonical_probes():
    # the four probes (P0, P1, P+, PR) fix the map; three do not
    with pytest.raises(ValueError):
        phase_covariant_maps(PROBES[:3])
    # a non-finite entry that a map reads raises, and so does an overflow:
    # x(P+) = 1e308 + 1e308
    for entries, value in ((((2, 0, 1),), np.nan), (((3, 1, 0),), np.inf * 1j),
                           (((0, 0, 0),), -np.inf), (((2, 0, 1), (2, 1, 0)), 1e308)):
        bad = PROBES.copy()
        for entry in entries:
            bad[entry] = value
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            phase_covariant_maps(bad)


def test_reconstruct_matches_the_affine_route():
    # the four numbers are the pattern entries of the affine superoperator,
    # on the maps of a run and on random ones
    rng = np.random.default_rng(3)
    family = analyze(RunConfig(n_max=60, couplings=CouplingParams(
        sm_interaction_kind="anisotropic", gamma=0.4))).family
    maps = np.concatenate([family, random_maps(rng, 20)])
    probes = images(maps, PROBES)
    got = phase_covariant_maps(probes)
    assert np.abs(got - maps).max() <= 1e-15
    assert np.abs(got - pattern_of(reconstruct_affine(
        pauli_bloch_history(probes)))).max() <= 1e-15


def test_reconstructed_map_predicts_direct_evolution():
    config = RunConfig(n_max=40)
    family = analyze(config).family
    rng = np.random.default_rng(9)
    rho0 = np.stack([random_density(rng) for _ in range(5)])
    history, _ = evolve_grid([config], rho0)
    mapped = images(family, rho0)
    for n in (1, 17, 40):
        assert np.abs(mapped[n] - history[n, 0]).max() <= 1e-9


# ------------------------------------------------------------------ inverse

def test_invert_identity():
    out, error = inverse(IDENTITY)
    assert error is None and np.array_equal(out, IDENTITY)


def test_invert_diagonal_example():
    # M = diag(0.5, 0.5, 0.25), shift 0.1 along z: m = 0.25, s = 0.1, c = 0.5
    maps = pattern_of(AffineBlochMap(m=np.diag([0.5, 0.5, 0.25]),
                                     c=np.array([0, 0, 0.1])))
    assert np.allclose(maps, [0.675, 0.425, 0.5, 0.0], rtol=0.0, atol=1e-15)
    out, _ = inverse(maps)
    # the inverse is M^-1 = diag(2, 2, 4) with shift -0.4 along z
    assert np.allclose(out, pattern_of(AffineBlochMap(
        m=np.diag([2.0, 2.0, 4.0]), c=np.array([0, 0, -0.4]))), atol=1e-12)
    assert np.allclose(out, [2.3, -1.7, 2.0, 0.0], atol=1e-12)


def test_invert_is_involution():
    rng = np.random.default_rng(13)
    for maps in random_maps(rng, 10):
        twice, _ = inverse(inverse(maps)[0])
        assert np.max(np.abs(twice - maps)) <= 1e-12


def test_invert_matches_numpy_inverse():
    rng = np.random.default_rng(17)
    for maps in random_maps(rng, 10):
        out, _ = inverse(maps)
        assert np.allclose(pattern_superoperator(out),
                           np.linalg.inv(pattern_superoperator(maps)), atol=1e-12)


def test_invert_singular_raises_with_diagnostics():
    # member 6 is a constant map (m = 0, K = 0): the family stops before
    # step 7
    family = np.stack([IDENTITY] * 6 + [np.array([0.3, 0.3, 0, 0])] + [IDENTITY] * 2)
    steps, error = time_local_family(family)
    assert len(steps) == 6
    assert error.step == 7 and error.det == 0.0 and error.cond == float("inf")
    assert str(error) == ("singular Bloch map at step 7: |det M| = 0.000e+00, "
                          "condition estimate inf")


def test_invert_condition_threshold():
    # M = diag(1, 1, 1e-6): m = 1e-6, c = 1
    maps = pattern_of(AffineBlochMap(m=np.diag([1.0, 1.0, 1e-6]), c=np.zeros(3)))
    assert inverse(maps)[1] is None   # condition estimate about 1.4e6
    # det 1e6 passes the determinant floor; condition estimate about 1.4e9
    out, error = inverse(pattern_of(
        AffineBlochMap(m=np.diag([1e5, 1e5, 1e-4]), c=np.zeros(3))))
    assert out is None and error.step == 1
    assert error.det == pytest.approx(1e6) and 1e9 < error.cond < 2e9


def test_singular_scan_matches_the_affine_route():
    """det M = m det K and the block Frobenius condition estimate against
    the cofactor determinant and the adjugate condition estimate of the 3x3
    Bloch matrices, on random maps, nearly singular ones and the maps of
    two runs."""
    rng = np.random.default_rng(21)
    near = random_maps(rng, 100)
    near[:50, 1] = near[:50, 0] - 10.0 ** rng.uniform(-11, -3, 50)     # m small
    near[50:, 3] = near[50:, 2] * (1 - 10.0 ** rng.uniform(-11, -3, 50))  # |d| ~ |c|
    maps = np.concatenate([
        random_maps(rng, 200), near,
        analyze(RunConfig(n_max=100)).family,
        analyze(RunConfig(n_max=100, couplings=CouplingParams(
            sm_interaction_kind="anisotropic", gamma=-0.4))).family])
    det, cond, _ = det_and_condition(maps)
    m = bloch_matrix(maps)
    want_det, want_cond = det3(m), frobenius_condition3(m)
    # det K = |c|^2 - |d|^2 cancels where |d| ~ |c|, so both routes are
    # exact only up to eps times kappa = |m| (|c|^2 + |d|^2) / |det M|;
    # measured: at most 6.2e-16 kappa relative for det M and 4.3e-16 kappa
    # for the condition estimate
    kappa = (np.abs(maps[:, 0] - maps[:, 1])
             * (np.abs(maps[:, 2]) ** 2 + np.abs(maps[:, 3]) ** 2) / np.abs(want_det))
    assert np.all(np.abs(det - want_det) <= 2e-15 * kappa * np.abs(want_det))
    assert np.all(np.abs(cond - want_cond) <= 2e-15 * kappa * want_cond)
    assert (kappa[:200] < 1e3).mean() > 0.9 and kappa[200:300].max() > 1e8
    # the Bloch matrices of the run maps are those of the affine route
    runs = maps[300:]
    assert np.abs(m[300:] - reconstruct_affine(pauli_bloch_history(
        images(runs, PROBES))).m).max() <= 1e-15


def test_singular_swap_reports_step_2_like_the_affine_route():
    # a full S-M swap makes the first cumulative map constant
    result_states = evolve_runs([RunConfig(
        couplings=CouplingParams(tau1=SWAP_TAU), n_max=5)])[0][:, 0]
    family = phase_covariant_maps(result_states[:, 1:])
    steps, error = time_local_family(family)
    assert len(steps) == 1 and error.step == 2
    with pytest.raises(SingularMapError) as affine_error:
        time_local_map(affine_family(result_states), 2)
    assert type(affine_error.value) is type(error)
    # one message format: the numbers are rounding of an exact zero
    pattern = (r"singular Bloch map at step 2: \|det M\| = \d\.\d{3}e[+-]\d\d, "
               r"condition estimate (inf|\d\.\d{3}e[+-]\d\d)")
    assert re.fullmatch(pattern, str(error))
    assert re.fullmatch(pattern, str(affine_error.value))
    assert abs(error.det) < 1e-12 and abs(affine_error.value.det) < 1e-12


# --------------------------------------------------------------- time-local

def test_time_local_of_equal_maps_is_identity():
    rng = np.random.default_rng(19)
    steps, error = time_local_family(np.repeat(random_maps(rng, 1), 2, axis=0))
    assert error is None
    assert np.allclose(steps, IDENTITY, atol=1e-12)


def test_time_local_composition_reproduces_cumulative():
    family = analyze(RunConfig(n_max=30)).family
    steps, error = time_local_family(family)
    assert error is None and len(steps) == 30
    acc = np.eye(4)
    for sop in pattern_superoperator(steps):
        acc = sop @ acc
    assert np.max(np.abs(pattern_entries(acc) - family[30])) <= 1e-9


def test_time_local_markovian_limit_is_step_independent():
    # memory fully refreshed each collision: the step map stops changing
    config = RunConfig(couplings=CouplingParams(tau2=SWAP_TAU), n_max=12)
    steps, _ = time_local_family(analyze(config).family)
    assert np.max(np.abs(steps[2:] - steps[1])) <= 1e-10


def test_time_local_family_matches_the_affine_route():
    # the step maps of a run against the adjugate route of tests/oracles.py
    result = analyze(RunConfig(n_max=120, couplings=CouplingParams(
        sm_interaction_kind="anisotropic", gamma=-0.4)))
    steps, _ = time_local_family(result.family)
    family = affine_family(result.states)
    want = np.stack([pattern_of(time_local_map(family, n)) for n in range(1, 121)])
    # measured: 1.1e-15
    assert np.abs(steps - want).max() <= 1e-14


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
    assert off_pattern_residual(sop) <= 1e-12


def test_superoperator_action_matches_affine_action():
    rng = np.random.default_rng(29)
    for _ in range(8):
        bm = random_map(rng)
        rho = random_density(rng)
        via_sop = apply_superoperator(affine_to_superoperator(bm), rho)
        via_bloch = density_from_bloch(bm.m @ pauli_bloch_history(rho) + bm.c)
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
    states = np.stack([density_from_bloch(v) for v in vertices])
    mapped = pauli_bloch_history(images(family, states))
    assert np.linalg.norm(mapped, axis=-1).max() <= 1.0 + 1e-8


# ------------------------------------------------------- pattern extraction

def test_extract_identity_channel():
    assert off_pattern_residual(np.eye(4, dtype=complex)) == 0.0


def test_extract_flags_off_pattern_weight():
    sop = np.eye(4, dtype=complex)
    sop[1, 0] = 1e-3
    assert off_pattern_residual(sop) == pytest.approx(1e-3)
    sop[1, 0], sop[0, 3] = 0.0, 0.5 + 2e-3j   # imaginary part of b
    assert off_pattern_residual(sop) == pytest.approx(2e-3)


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


def test_choi_of_a_phase_covariant_map_is_two_blocks():
    # the blocks [[a, c], [c*, 1-b]] on (0, 3) and [[1-a, d*], [d, b]] on
    # (1, 2), which the package takes its spectra from
    rng = np.random.default_rng(43)
    for a, b, c, d in random_maps(rng, 10):
        j = choi(pattern_superoperator([a, b, c, d]))
        want = np.zeros((4, 4), dtype=complex)
        want[np.ix_((0, 3), (0, 3))] = [[a, c], [np.conj(c), 1 - b]]
        want[np.ix_((1, 2), (1, 2))] = [[1 - a, np.conj(d)], [d, b]]
        assert np.array_equal(j, want)


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
