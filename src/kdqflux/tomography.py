"""Process tomography of the reduced qubit dynamics.

Every Hamiltonian term of the model conserves excitation parity, and the
memory and environment states are diagonal, so every reduced map is phase
covariant: in the matrix-element basis (rho_00, rho_01, rho_10, rho_11) its
superoperator is [[a, 0, 0, b], [0, c, d, 0], [0, d*, c*, 0],
[1-a, 0, 0, 1-b]], with a, b real. This module owns that format and the
probe states ``PROBES`` it is read off: a map is those four numbers, read
off the images of the probes, and a stack of maps is a (..., 4) complex
array with the columns (a, b, c, d). On Bloch vectors a map takes z to
m z + s, with m = a - b and s = a + b - 1, and the coherences
(rho_01, rho_10) through K = [[c, d], [d*, c*]]; inverses and compositions
follow in closed form for a whole stack at once. Its Choi matrix consists
of the blocks [[a, c], [c*, 1-b]] and [[1-a, d*], [d, b]].
"""

import numpy as np

from .linalg import eigvalsh2

# The probes P0, P1, P+ and PR: the projectors onto |0>, |1>,
# (|0> + |1>)/sqrt(2) and (|0> + i|1>)/sqrt(2), with the Bloch vectors
# z, -z, x and y. The pipeline evolves them after the physical state of
# each run, and ``phase_covariant_maps`` reads every map off their images.
PROBES = np.stack([np.array([[1, 0], [0, 0]], dtype=complex),
                   np.array([[0, 0], [0, 1]], dtype=complex),
                   0.5 * np.array([[1, 1], [1, 1]], dtype=complex),
                   0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex)])
PROBES.flags.writeable = False

# A predecessor map with |det M| below SINGULAR_DET, or a Frobenius condition
# estimate ||M||_F ||M^-1||_F above COND_THRESHOLD, cannot be inverted; M is
# the 3x3 matrix of the map on Bloch vectors.
SINGULAR_DET = 1e-12
COND_THRESHOLD = 1e8


class SingularMapError(RuntimeError):
    """A reconstructed map is not invertible; trajectory analysis halts."""

    def __init__(self, det: float, cond: float, step: int):
        self.det = det
        self.cond = cond
        self.step = step
        super().__init__(
            f"singular Bloch map at step {step}: |det M| = {abs(det):.3e}, "
            f"condition estimate {cond:.3e}")


def phase_covariant_maps(probes: np.ndarray) -> np.ndarray:
    """(a, b, c, d) of the maps that take ``PROBES`` to ``probes``.

    ``probes`` holds the image states, shape (..., 4, 2, 2); the result has
    shape (..., 4): a = (1 + z(P0))/2, b = (1 + z(P1))/2,
    c = (x(P+) + y(PR) + i(x(PR) - y(P+)))/2 and
    d = (x(P+) - y(PR) - i(x(PR) + y(P+)))/2, with the Bloch components
    x = 2 Re rho_01, y = 2 Im rho_10, z = rho_00 - rho_11 formed as
    Tr(sigma rho) gives them. The entries that phase covariance fixes are
    not read. Raises ValueError if an entry read, or a map, is not finite.
    """
    p = np.asarray(probes)
    if p.shape[-3:] != (4, 2, 2):
        raise ValueError("expected four probe states as a (..., 4, 2, 2) array")
    pr, pi = p.real, p.imag
    # x and y of P+ and PR; a Pauli trace, summed from +0, gives +0 for an
    # exact zero, and so does adding 0.0, so c and d never read -0
    x = pr[..., 2:, 0, 1] + pr[..., 2:, 1, 0] + 0.0
    y = pi[..., 2:, 1, 0] - pi[..., 2:, 0, 1] + 0.0
    x_plus, x_r, y_plus, y_r = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    maps = np.zeros(p.shape[:-2], dtype=complex)
    re, im = maps.real, maps.imag
    re[..., :2] = (1.0 + (pr[..., :2, 0, 0] - pr[..., :2, 1, 1])) / 2.0
    re[..., 2], im[..., 2] = (x_plus + y_r) / 2.0, (x_r - y_plus) / 2.0
    re[..., 3], im[..., 3] = (x_plus - y_r) / 2.0, -(x_r + y_plus) / 2.0
    if not np.isfinite(maps).all():
        raise ValueError("probe states must give finite maps")
    return maps


def choi_eigenvalues(maps: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues (..., 4) of the Choi matrices of a (..., 4) stack of maps,
    with the determinants of their two blocks [[a, c], [c*, 1-b]] and
    [[1-a, d*], [d, b]]: the CP margins a (1-b) - |c|^2 and
    (1-a) b - |d|^2, whose signs the small roots carry. The spectrum is that
    of the blocks, by one ``linalg.eigvalsh2`` call over both."""
    a, b = maps[..., 0].real, maps[..., 1].real
    # the diagonals (a, 1-b) and (1-a, b) of the two blocks, side by side
    p, q = np.empty(a.shape + (2,)), np.empty(a.shape + (2,))
    p[..., 0] = a
    np.subtract(1.0, a, out=p[..., 1])
    np.subtract(1.0, b, out=q[..., 0])
    q[..., 1] = b
    w, det = eigvalsh2(p, q, maps[..., 2:])
    return w.reshape(a.shape + (4,)), det[..., 0], det[..., 1]


def det_and_condition(maps: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """det M and the Frobenius condition estimate ||M||_F ||M^-1||_F of the
    Bloch matrices M of a (..., 4) stack of maps, and det K.

    M is block diagonal: m on z and a 2x2 block on (x, y) that is unitarily
    similar to K. So det M = m det K, ||M||_F^2 = m^2 + 2(|c|^2 + |d|^2) and
    ||M^-1||_F^2 = 1/m^2 + 2(|c|^2 + |d|^2)/det K^2; a singular M has an
    infinite or NaN estimate.
    """
    m = maps[..., 0].real - maps[..., 1].real
    c2, d2 = np.abs(maps[..., 2]) ** 2, np.abs(maps[..., 3]) ** 2
    det_k, frob2 = c2 - d2, 2.0 * (c2 + d2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = np.sqrt((m ** 2 + frob2) * (1.0 / m ** 2 + frob2 / det_k ** 2))
    return m * det_k, cond, det_k


def time_local_family(family: np.ndarray
                      ) -> tuple[np.ndarray, SingularMapError | None]:
    """Single-step maps of a whole cumulative family in one array pass.

    ``family`` is the (N + 1, 4) stack of (a, b, c, d), n = 0..N. Member
    n - 1 of the result is lambda_n composed with the inverse of
    lambda_{n-1}: m_n / m_{n-1} with shift s_n - (m_n / m_{n-1}) s_{n-1} on
    the populations, K_n K_{n-1}^-1 on the coherences. The stack stops
    before the first predecessor with |det M| < ``SINGULAR_DET`` or a
    condition estimate above ``COND_THRESHOLD`` (``det_and_condition``),
    and that step's SingularMapError is returned with it, else None.
    """
    det, cond, det_k = det_and_condition(family[:-1])
    small = np.abs(det) < SINGULAR_DET
    bad = small | (cond > COND_THRESHOLD)
    error = None
    steps = len(det)
    if bad.any():
        steps = int(np.argmax(bad))
        error = SingularMapError(
            det=float(det[steps]),
            cond=float("inf") if small[steps] else float(cond[steps]),
            step=steps + 1)
    a, b = family[:steps + 1, 0].real, family[:steps + 1, 1].real
    c, d = family[:steps + 1, 2], family[:steps + 1, 3]
    m, s = a - b, a + b - 1.0
    det_k = det_k[:steps]
    m_step = m[1:] / m[:-1]
    s_step = s[1:] - m_step * s[:-1]
    out = np.zeros((steps, 4), dtype=complex)
    out.real[:, 0] = (1.0 + s_step + m_step) / 2.0
    out.real[:, 1] = (1.0 + s_step - m_step) / 2.0
    out[:, 2] = (c[1:] * c[:-1].conj() - d[1:] * d[:-1].conj()) / det_k
    out[:, 3] = (d[1:] * c[:-1] - c[1:] * d[:-1]) / det_k
    return out, error
