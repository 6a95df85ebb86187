"""Discrete-time collision dynamics of the system-memory pair.

One collision step evolves the joint S-M state with a fresh thermal
environment qubit: first the S-M propagator acts on rho_SM (x) rho_A, the
environment is traced out, then the M-A propagator acts with the same fresh
rho_A and the environment is traced out again. The joint state is carried
over between steps; environment qubits are never stored. rho_A is a diagonal
Gibbs state, so only the two diagonal blocks of rho_SM (x) rho_A are formed.

A single trajectory is inherently sequential, but distinct trajectories
(tomography probes, sweep points) share only immutable inputs, so they are
stepped together as one stack.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import model
from .linalg import hermiticity_deviation

# Density-matrix invariant drift beyond this aborts a run.
DRIFT_TOL = 1e-8


class InvariantDriftError(RuntimeError):
    """A density-matrix invariant drifted beyond tolerance at collision ``step``."""

    def __init__(self, message: str, step: int):
        self.step = step
        super().__init__(message)


@dataclass(frozen=True)
class RunConfig:
    """Full parameter set of one collision-model run."""

    spins: model.SpinParams = field(default_factory=model.SpinParams)
    couplings: model.CouplingParams = field(default_factory=model.CouplingParams)
    thermal: model.ThermalSpec = field(default_factory=model.ThermalSpec)
    initial_system: np.ndarray = field(
        default_factory=lambda: np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex))
    n_max: int = 1000

    def __post_init__(self):
        try:
            n_max = operator.index(self.n_max)
        except TypeError:
            n_max = None
        if n_max is None or isinstance(self.n_max, bool):
            raise ValueError(f"n_max must be an integer, not {self.n_max!r}")
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        object.__setattr__(self, "n_max", n_max)
        scale = model.phase_error_bound(self.spins, self.couplings)
        if scale > DRIFT_TOL:
            raise ValueError(f"Hamiltonian too large for double precision: "
                             f"eps |H| tau = {scale:.2e} > {DRIFT_TOL:g}")
        # a read-only copy: the caller's array cannot change a valid config
        rho = np.array(self.initial_system, dtype=complex)
        rho.flags.writeable = False
        if rho.shape != (2, 2):
            raise ValueError("initial_system must be a 2x2 density matrix")
        (r00, r01), (r10, r11) = rho.tolist()
        if not all(math.isfinite(x) for z in (r00, r01, r10, r11)
                   for x in (z.real, z.imag)):
            # every comparison below is False for a NaN entry
            raise ValueError("initial_system entries must be finite")
        # the largest |rho - rho^H| entry, the trace, and the smaller
        # eigenvalue of the Hermitian part [[p, o], [o*, q]] in closed form
        off = r01 - r10.conjugate()
        p, q, o = r00.real, r11.real, (r01 + r10.conjugate()) / 2
        if (max(2.0 * abs(r00.imag), 2.0 * abs(r11.imag),
                math.hypot(off.real, off.imag)) > DRIFT_TOL
                or abs(r00 + r11 - 1.0) > DRIFT_TOL
                or (p + q) / 2 - math.hypot((p - q) / 2, o.real, o.imag)
                < -DRIFT_TOL):
            raise ValueError("initial_system is not a valid density matrix")
        object.__setattr__(self, "initial_system", rho)


# The collision loop keeps its stack of G x k joint states in the layout
# [point, row, state, column], shape (G, 4, k, 4) for S-M and (G, 8, k, 8)
# with the environment qubit, so that each unitary product is one 2-D matrix
# product per grid point: a point's arithmetic does not depend on G. The
# Kronecker product with rho_A and the environment trace act on the same
# memory as (4G, 2, 4k) and (4G, 1, 4k) arrays: rows (point, row), columns
# (state, column).

# The loop keeps the joint states of about CHECK_STATES states (a single
# run's 256 collisions; at least one collision) and traces and checks them a
# block at a time, so it never holds the whole joint history, and the fixed
# cost per block is spread over enough states.
CHECK_STATES = 1280

# The drift bound that lets a call skip the check stays this far below the
# tolerance, well above the few 1e-16 of rounding in eigvalsh of a 4x4 state.
ROUNDING_MARGIN = 1e-14


def _check_block(states: np.ndarray, start: int, drift_tol: float,
                 errors: list) -> None:
    """Invariant check of the (m, G, k, 4, 4) joint states ``start..start+m-1``.

    Sets ``errors[g]`` to the error of point g's first offending collision,
    unless an earlier block already did. A state with a non-finite entry
    (from overflowing inputs) makes ``herm`` non-finite and is an offending
    one, so it fails only its own point. ``evolve_grid`` calls it only when
    ``_drift_bound`` cannot prove that every state passes. Its contiguous
    copy keeps the sums of ``np.trace`` independent of the caller's layout.
    """
    m, g, k = states.shape[:3]
    flat = np.ascontiguousarray(states).reshape(m, g * k, 4, 4)
    herm = hermiticity_deviation(flat)
    tr = np.abs(np.trace(flat, axis1=-2, axis2=-1) - 1.0)
    finite = np.isfinite(herm)
    # eigvalsh rejects non-finite matrices: those states get a zero matrix
    # and report a nan minimum eigenvalue
    safe = flat if finite.all() else np.where(finite[..., None, None], flat, 0)
    min_eig = np.where(finite, np.linalg.eigvalsh(safe).min(axis=-1), np.nan)
    bad = ~finite | (herm > drift_tol) | (tr > drift_tol) | (min_eig < -drift_tol)
    if not bad.any():
        return
    bad = bad.reshape(m, g, k)
    for p in np.flatnonzero(bad.any(axis=(0, 2))):
        if errors[p] is None:
            n, i = divmod(int(np.argmax(bad[:, p])), k)
            j = (n, p * k + i)
            errors[p] = InvariantDriftError(
                f"density-matrix invariants violated at collision {start + n}: "
                f"hermiticity {herm[j]:.2e}, trace {tr[j]:.2e}, "
                f"min eigenvalue {min_eig[j]:.2e}", step=start + n)


def _drift_bound(u_sm: np.ndarray, u_ma: np.ndarray, w_a: np.ndarray,
                 rho_m: np.ndarray, initial_systems: np.ndarray,
                 n_max: int) -> np.ndarray:
    """Per grid point, an upper bound on the hermiticity deviation, the
    trace excess |Tr X - 1| and the negative eigenvalues that
    ``_check_block`` finds in any joint state X of collisions 0..n_max.

    Let D be X's trace-norm distance from the density matrices, X = rho +
    Delta with ||Delta||_1 = D. Then |X_ij - conj(X_ji)| <= 2 D,
    |Tr X - 1| <= D, and the Hermitian matrix that ``eigvalsh`` reads off
    X's lower triangle is within sqrt(2) D of rho: the bound is 2 D.

    In exact arithmetic a half-collision with the computed propagator u and
    the Gibbs weights p_a >= 0 of ``w_a`` is the completely positive map
    Phi(X) = Tr_A[u (X (x) diag(p)) u^H], and Phi*(I) - I =
    sum_a p_a <a|u^H u - I|a> + (sum_a p_a - 1) I. With eta = sum_a p_a
    (||u^H u - I||_F + 128 u) + |sum_a p_a - 1|, u = 2^-53 (128 u covers
    the rounding of u^H u, at most 8 sqrt(2) gamma_10 = 113 u in Frobenius
    norm), Phi gains at most a factor 1 + eta in trace norm and moves the
    trace of a density matrix by at most eta. The rounding of the weight
    multiply, of the two 8-term complex products (at most sqrt(2) gamma_10
    |A||B|; Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 3.6) and of the environment trace is at most 2 (2 sqrt(2) u +
    8 sqrt(2) gamma_10) ||X||_F <= 240 u ||X||_1 in trace norm, and
    ||X||_1 <= 2 while D <= 1/2. So a half maps D to at most
    (1 + eta) D + eta + 480 u, and the 2n halves of n collisions give
    D_n <= exp(2 n eta) (D_0 + 2 n (eta + 480 u)).

    A 2x2 matrix [[a, b], [c, d]] is within 2 |Im a| + 2 |Im d| +
    |b - conj(c)| (its anti-Hermitian part) + 4 max(-l, 0) + |Re(a + d) - 1|
    of a density matrix, l the smaller eigenvalue of its Hermitian part, and
    D_0 <= D_S (1 + D_M) + D_M + 128 u for rho_S (x) rho_M, the 128 u
    covering the rounding of the product and of D_S and D_M. A non-finite
    input, or a weight that is not a real p_a >= 0, gives a bound that is
    not finite.
    """
    unit = 2.0 ** -53
    with np.errstate(all="ignore"):
        p = np.where((w_a.imag == 0) & (w_a.real >= 0), w_a.real, np.nan)
        total = p.sum(axis=1)
        u = np.stack([u_sm, u_ma])
        defect = np.linalg.norm((u.conj().swapaxes(-1, -2) @ u - np.eye(8))
                                .reshape(2, -1, 64), axis=-1).max(axis=0)
        eta = total * (defect + 128 * unit) + np.abs(total - 1.0)
        # the distances of the k initial states, then of the G rho_M
        a, b, c, d = np.concatenate([initial_systems, rho_m]).reshape(-1, 4).T
        tr, c_bar = a.real + d.real, c.conj()
        lo = tr / 2 - np.hypot((a.real - d.real) / 2, np.abs(b + c_bar) / 2)
        dist = (2 * (np.abs(a.imag) + np.abs(d.imag)) + np.abs(b - c_bar)
                + 4 * np.maximum(-lo, 0) + np.abs(tr - 1))
        k = len(initial_systems)
        d_m = dist[k:]
        d_0 = dist[:k].max() * (1 + d_m) + d_m + 128 * unit
        halves = 2 * n_max
        return 2 * np.exp(halves * eta) * (d_0 + halves * (eta + 480 * unit))


def evolve_grid(configs, initial_systems: np.ndarray
                ) -> tuple[np.ndarray, list[InvariantDriftError | None]]:
    """Evolve the same initial states under every configuration at once.

    ``initial_systems`` has shape (k, 2, 2); the configurations must share
    ``n_max``. Within a configuration all k trajectories see the same
    unitaries and the same fresh thermal environment each collision. The G
    points are stepped together as one (G, 4, k, 4) stack, with the same
    floating-point arithmetic per point as a run of that point alone.

    Returns the (n_max + 1, G, k, 2, 2) system states, index n = 0 being the
    initial ones, and one entry per configuration: None, or the
    InvariantDriftError of its first collision whose joint state left the
    density-matrix invariants (``DRIFT_TOL``). A drifting point does not
    affect the others; its states from ``step`` on are not valid.

    Before the loop, ``_drift_bound`` bounds every invariant of every joint
    state the loop can reach. When that bound is finite and at most
    ``DRIFT_TOL - ROUNDING_MARGIN`` (and 1) at every point, no state can
    fail the check, and the call skips ``_check_block``; otherwise every
    block is checked. Either way the states and errors are the same.
    """
    configs = list(configs)
    n_max = configs[0].n_max
    if any(c.n_max != n_max for c in configs):
        raise ValueError("grid configurations must share n_max")
    initial_systems = np.asarray(initial_systems, dtype=complex)
    g, k = len(configs), initial_systems.shape[0]

    unitaries = [model.collision_unitaries(c.spins, c.couplings) for c in configs]
    u_sm = np.array([u for u, _ in unitaries])
    u_ma = np.array([u for _, u in unitaries])
    u_sm_dag = u_sm.conj().transpose(0, 2, 1)
    u_ma_dag = u_ma.conj().transpose(0, 2, 1)
    rho_m = np.array([model.thermal_state(c.thermal, c.spins.omega_m)
                      for c in configs])
    w_a = np.array([model.thermal_state(c.thermal, c.spins.omega_a).diagonal()
                    for c in configs])
    # a NaN bound is not certified
    certified = (_drift_bound(u_sm, u_ma, w_a, rho_m, initial_systems, n_max)
                 <= min(DRIFT_TOL - ROUNDING_MARGIN, 1.0)).all()

    n1 = n_max + 1
    size = min(max(1, CHECK_STATES // (g * k)), n1)
    system = np.empty((n1, g, k, 2, 2), dtype=complex)
    errors: list[InvariantDriftError | None] = [None] * g

    # the loop's joint states, [slot, point, row, state, column]: collision
    # n is written to slot n % size, the S-M half of its collision first,
    # and a full block is traced (and, if need be, checked) at once
    rows, cols = 4 * g, 4 * k
    block = np.empty((size, g, 4, k, 4), dtype=complex)
    np.einsum("kij,gab->giakjb", initial_systems, rho_m,
              out=block[0].reshape(g, 2, 2, k, 2, 2))
    slots = list(block.reshape(size, rows, 1, cols))
    # x (x) rho_A, u @ (x (x) rho_A) and its product with u_dag. rho_A is
    # diagonal (model.thermal_state), so the blocks of x (x) rho_A off its
    # diagonal stay zero and only the two diagonal ones are written,
    # through the diagonal view of xe
    xe = np.zeros((rows, 2, cols, 2), dtype=complex)
    xe_diag = np.einsum("rasa->ras", xe)
    p_a = np.repeat(w_a, 4, axis=0)[:, :, np.newaxis]
    y = np.empty((g, 8, 8 * k), dtype=complex)
    z = np.empty((g, 8 * k, 8), dtype=complex)
    xe_flat, y_r = xe.reshape(g, 8, 8 * k), y.reshape(g, 8 * k, 8)
    z4 = z.reshape(rows, 2, cols, 2)
    z00, z11 = z4[:, 0:1, :, 0], z4[:, 1:2, :, 1]
    multiply, matmul, add = np.multiply, np.matmul, np.add
    for n in range(n1):
        j = n % size
        if n:
            multiply(slots[j - 1], p_a, out=xe_diag)
            matmul(u_sm, xe_flat, out=y)
            matmul(y_r, u_sm_dag, out=z)
            add(z00, z11, out=slots[j])
            multiply(slots[j], p_a, out=xe_diag)
            matmul(u_ma, xe_flat, out=y)
            matmul(y_r, u_ma_dag, out=z)
            add(z00, z11, out=slots[j])
        if j == size - 1 or n == n_max:
            start, ring = n - j, block[:j + 1]
            # the memory trace; adding 0.0 gives a -0.0 sum the +0.0 of a
            # sum that starts from zero
            x = ring.reshape(j + 1, g, 2, 2, k, 2, 2)
            out = system[start:n + 1].transpose(0, 1, 3, 2, 4)
            add(x[..., 0, :, :, 0], x[..., 1, :, :, 1], out=out)
            add(out, 0.0, out=out)
            if not certified:
                _check_block(ring.transpose(0, 1, 3, 2, 4), start, DRIFT_TOL,
                             errors)
    # the traced joint states at n = 0 are the inputs times Tr rho_M, which
    # is 1 only to within an ulp
    system[0] = initial_systems
    return system, errors
