import numpy as np
import pytest

from kdqflux.linalg import (HERMITICITY_TOL, _require_hermitian, eigvalsh2,
                            exp_hermitian_generator, hermiticity_deviation)
from kdqflux.model import SIGMA_X, SIGMA_Z
from oracles import (heisenberg_interaction, hermitian_eig, hermiticity_max,
                     partial_trace, same_bits, stacked_eigvalsh2, trace_norm,
                     von_neumann_entropy)

I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------- partial trace

def test_partial_trace_bell_projector():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace(rho, [2, 2], keep=[0]), I2 / 2, atol=1e-14)
    assert np.allclose(partial_trace(rho, [2, 2], keep=[1]), I2 / 2, atol=1e-14)


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    out = partial_trace(np.kron(rho_a, rho_b), [2, 3], keep=[0])
    assert np.allclose(out, rho_a, atol=1e-14)


def _partial_trace_loops(m, dims, keep):
    """Index-summation oracle: explicit loops over kept/traced indices."""
    traced = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)
    shape = list(dims)

    def flat(idx):
        f = 0
        for d, i in zip(shape, idx):
            f = f * d + i
        return f

    for row in np.ndindex(*[dims[i] for i in keep]):
        for col in np.ndindex(*[dims[i] for i in keep]):
            acc = 0.0
            for tr in np.ndindex(*[dims[i] for i in traced]):
                idx_r, idx_c = [0] * len(dims), [0] * len(dims)
                for pos, i in zip(keep, row):
                    idx_r[pos] = i
                for pos, i in zip(keep, col):
                    idx_c[pos] = i
                for pos, i in zip(traced, tr):
                    idx_r[pos] = i
                    idx_c[pos] = i
                acc += m[flat(idx_r), flat(idx_c)]
            r = 0
            for d, i in zip([dims[i] for i in keep], row):
                r = r * d + i
            c = 0
            for d, i in zip([dims[i] for i in keep], col):
                c = c * d + i
            out[r, c] = acc
    return out


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(13)
    m = random_hermitian(rng, 8)
    for keep in ([0], [1], [2], [0, 1], [1, 2], [0, 2]):
        expected = _partial_trace_loops(m, [2, 2, 2], keep)
        assert np.allclose(partial_trace(m, [2, 2, 2], keep), expected, atol=1e-12)


def test_partial_trace_preserves_trace_and_unit_trace():
    rng = np.random.default_rng(17)
    rho = random_density(rng, 8)
    reduced = partial_trace(rho, [4, 2], keep=[0])
    assert reduced.shape == (4, 4)
    assert abs(np.trace(reduced) - 1.0) <= 1e-12


def test_partial_trace_complementary_composition_is_trace():
    rng = np.random.default_rng(19)
    m = random_hermitian(rng, 8)
    once = partial_trace(m, [2, 2, 2], keep=[0, 1])
    scalar = partial_trace(once, [2, 2], keep=[])
    assert np.allclose(scalar, [[np.trace(m)]], atol=1e-12)


def test_partial_trace_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6, dtype=complex), [2, 2], keep=[0])


# ---------------------------------------------------------- hermitian_eig

def test_hermitian_eig_sigma_x():
    w, _ = hermitian_eig(SIGMA_X)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_hermitian_eig_diagonal():
    w, _ = hermitian_eig(np.diag([0.3, 0.7]).astype(complex))
    assert np.allclose(w, [0.3, 0.7], atol=1e-14)


def test_hermitian_eig_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(8):
        a = random_hermitian(rng, 4)
        w, v = hermitian_eig(a)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs((v * w) @ v.conj().T - a)) <= 1e-12 * max(1, np.abs(w).max())
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-12
        # eigenpair residual, relative to the matrix scale
        norm = np.linalg.norm(a)
        for k in range(4):
            assert np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]) <= 1e-12 * norm


# ----------------------------------------------------- Hermiticity deviation

def _same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and \
        np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_hermiticity_deviation_equals_whole_matrix_max(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(6, 5, dim, dim)) + 1j * rng.normal(size=(6, 5, dim, dim))
    nearly = a + a.conj().swapaxes(-1, -2) + 1e-9 * a
    for m in (a, nearly, np.asfortranarray(nearly), nearly[::2, 1:, ::-1],
              nearly.swapaxes(-1, -2), nearly[0, 0]):
        assert _same_bits(hermiticity_deviation(m), hermiticity_max(m))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_hermiticity_deviation_sees_a_non_finite_real_diagonal(value):
    # 2 |Im h_ii| would read 0 here; |h_ii - conj(h_ii)| is NaN
    rng = np.random.default_rng(2)
    h = np.stack([random_hermitian(rng, 4) for _ in range(6)])
    for k, (i, m) in enumerate([(0, h), (3, np.asfortranarray(h)),
                                (1, h[::-1]), (2, h[:, ::-1, ::-1])]):
        m = m.copy()
        m[i, k, k] = value + 1j * m[i, k, k].imag
        with np.errstate(invalid="ignore"):      # inf - inf
            dev = hermiticity_deviation(m)
            assert _same_bits(dev, hermiticity_max(m))
        assert np.isnan(dev[i]) and np.array_equal(np.delete(dev, i),
                                                   np.zeros(5))


def test_require_hermitian_rejects_a_nan_member():
    rng = np.random.default_rng(3)
    h = np.stack([random_hermitian(rng, 4) for _ in range(5)])
    h[2, 1, 3] = np.nan
    with pytest.raises(ValueError, match="max deviation nan"):
        _require_hermitian(h, HERMITICITY_TOL, "stack")


def test_require_hermitian_keeps_finite_results():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    nearly = a + a.conj().swapaxes(-1, -2) + 1e-12 * a
    assert same_bits(_require_hermitian(nearly, HERMITICITY_TOL, "stack"),
                     (nearly + nearly.conj().swapaxes(-1, -2)) / 2)
    # a deviation of exactly tol passes, a larger one does not
    edge = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)
    assert same_bits(_require_hermitian(edge, 0.5, "edge"),
                     np.array([[0.0, 0.25], [0.25, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match="max deviation 5.000e-01"):
        _require_hermitian(edge, 0.25, "edge")


# ---------------------------------------------------------------- eigvalsh2

def _signed_stack(rng, shape):
    """A real stack drawn from values that include signed zeros."""
    signed = np.array([0.0, -0.0, 1.0, -0.5, 2.0**-1074, -3.0, 0.25])
    return rng.choice(signed, size=shape)


def test_eigvalsh2_equals_stacked_form_bit_for_bit():
    # random entries, entries with signed zeros (where the larger root can
    # be zero), and an empty stack
    rng = np.random.default_rng(5)
    normal = [rng.normal(size=(7, 5)) for _ in range(4)]
    signed = [_signed_stack(rng, (7, 5)) for _ in range(4)]
    cases = [normal[:3],
             (signed[0], signed[1], signed[2] + 1j * signed[3]),
             (signed[0], signed[1], signed[2] - 1j * normal[3]),
             (np.zeros((0, 5)), np.zeros((0, 5)), np.zeros((0, 5), complex))]
    for case in cases:
        for view in (lambda x: x, np.asfortranarray, lambda x: x[::-1, ::2]):
            args = [view(x) for x in case]
            w, det = eigvalsh2(*args)
            assert same_bits(w, stacked_eigvalsh2(*args))
            p, q, o = args
            assert same_bits(det, p * q - np.abs(o) ** 2)


# ------------------------------------------------ exp_hermitian_generator

def _expm_oracle(a):
    """Brute-force matrix exponential: scaling and squaring plus Taylor."""
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 5) if norm > 0 else 0
    x = a / 2 ** squarings
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 24):
        term = term @ x / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def test_exp_sigma_z_quarter_period():
    out = exp_hermitian_generator(SIGMA_Z, np.pi / 2)
    assert np.allclose(out, np.diag([-1j, 1j]), atol=1e-14)


def test_exp_zero_time_is_identity():
    rng = np.random.default_rng(29)
    h = random_hermitian(rng, 4)
    assert np.allclose(exp_hermitian_generator(h, 0.0), np.eye(4), atol=1e-14)


def test_exp_matches_scaling_squaring_oracle():
    rng = np.random.default_rng(31)
    for _ in range(5):
        h = random_hermitian(rng, 4)
        t = rng.uniform(-2, 2)
        assert np.max(np.abs(exp_hermitian_generator(h, t)
                             - _expm_oracle(-1j * h * t))) <= 1e-12


def test_exp_heisenberg_quarter_period_is_swap():
    g = 0.2
    u = exp_hermitian_generator(heisenberg_interaction(g), np.pi / (2 * g))
    oracle = _expm_oracle(-1j * heisenberg_interaction(g) * np.pi / (2 * g))
    assert np.max(np.abs(u - oracle)) <= 1e-12
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    phase = u[0, 0]
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert np.max(np.abs(u / phase - swap)) <= 1e-12


def test_exp_inverse_property():
    rng = np.random.default_rng(37)
    h = random_hermitian(rng, 4)
    t = 0.7
    prod = exp_hermitian_generator(h, t) @ exp_hermitian_generator(h, -t)
    assert np.max(np.abs(prod - np.eye(4))) <= 1e-12


def test_exp_rejects_non_hermitian():
    with pytest.raises(ValueError, match="exp_hermitian_generator"):
        exp_hermitian_generator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_exp_rejects_a_nan_entry():
    with pytest.raises(ValueError, match="exp_hermitian_generator"):
        exp_hermitian_generator(np.array([[np.nan, 5], [0, 1]], dtype=complex), 1.0)


# ---------------------------------------------------------------- norms

def test_trace_norm_diagonal_cases():
    assert trace_norm(np.diag([0.3, -0.7]).astype(complex)) == pytest.approx(1.0, abs=1e-15)
    assert trace_norm(np.diag([1.1, -0.1, 0.0, 1.0]).astype(complex)) == pytest.approx(2.2, abs=1e-15)


def test_trace_norm_of_density_matrix_is_one():
    rng = np.random.default_rng(41)
    assert trace_norm(random_density(rng, 4)) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_bounds_trace():
    rng = np.random.default_rng(43)
    for _ in range(10):
        a = random_hermitian(rng, 4)
        assert trace_norm(a) >= abs(np.trace(a)) - 1e-12
    rho = random_density(rng, 4)   # PSD: equality
    assert trace_norm(rho) == pytest.approx(np.trace(rho).real, abs=1e-12)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))


# -------------------------------------------------------------- entropy

def test_entropy_maximally_mixed_qubit():
    assert von_neumann_entropy(I2 / 2) == pytest.approx(1.0, abs=1e-15)


def test_entropy_pure_state():
    psi = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_entropy_gibbs_populations():
    # Gibbs populations at beta = omega = 1, displayed as (0.2689, 0.7311)
    p = np.array([1.0, np.e]) / (1.0 + np.e)
    expected = -np.sum(p * np.log2(p))
    assert von_neumann_entropy(np.diag(p).astype(complex)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.8400, abs=1e-4)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(47)
    rho = random_density(rng, 4)
    u = exp_hermitian_generator(random_hermitian(rng, 4), 0.9)
    rotated = u @ rho @ u.conj().T
    assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-10


def test_entropy_rejects_invalid_states():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.1, -0.1]).astype(complex))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([0.3, 0.3]).astype(complex))
