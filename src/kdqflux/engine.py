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

# Joint states are checked for invariant drift in blocks of at least
# CHECK_BLOCK collisions and of about CHECK_STATES states (a single run
# checks 256 collisions at a time), so the check never holds the whole joint
# history, and its fixed cost per block is spread over enough states.
CHECK_BLOCK = 64
CHECK_STATES = 1280

# The drift check's certificate shift stays this far below the tolerance,
# well above the few 1e-16 of rounding in the LDL^H pivots and in eigvalsh of
# a 4x4 state.
ROUNDING_MARGIN = 1e-14


def _ldl_certified(states: np.ndarray, shift: float) -> np.ndarray:
    """Which members of an (N, 4, 4) stack have an LDL^H factorization with
    four pivots > 0, i.e. are positive definite, once shifted by ``shift * I``.

    The pivots are elementwise expressions over the entry columns; they read
    the lower triangle and the real diagonal, as ``eigvalsh`` does. A NaN
    pivot, from a matrix far from positive, counts as not positive.
    """
    a = states.transpose(1, 2, 0)   # a[i, j]: entry (i, j) of every member
    p = np.empty((4, len(states)))
    with np.errstate(all="ignore"):
        np.add(a[0, 0].real, shift, out=p[0])
        # conj(a_j0) / p0; the first Schur complement is s_ij = a_ij - a_i0 b_j
        b1, b2, b3 = (a[j, 0].conj() / p[0] for j in (1, 2, 3))
        np.subtract(a[1, 1].real + shift, (a[1, 0] * b1).real, out=p[1])
        s21, s31 = a[2, 1] - a[2, 0] * b1, a[3, 1] - a[3, 0] * b1
        s32 = a[3, 2] - a[3, 0] * b2
        s22 = a[2, 2].real - (a[2, 0] * b2).real
        s33 = a[3, 3].real - (a[3, 0] * b3).real
        # conj(s_j1) / p1; the second Schur complement is t_ij = s_ij - s_i1 e_j
        e2, e3 = s21.conj() / p[1], s31.conj() / p[1]
        np.subtract(s22 + shift, (s21 * e2).real, out=p[2])
        t32 = s32 - s31 * e2
        p[3] = s33 + shift - (s31 * e3).real - (t32 * t32.conj()).real / p[2]
        return (p > 0).all(axis=0)


def _check_block(states: np.ndarray, start: int, drift_tol: float,
                 errors: list) -> None:
    """Invariant check of the (m, G, k, 4, 4) joint states ``start..start+m-1``.

    Sets ``errors[g]`` to the error of point g's first offending collision,
    unless an earlier block already did. A state with a non-finite entry
    (from overflowing inputs) makes ``herm`` non-finite and is an offending
    one, so it fails only its own point.
    """
    m, g, k = states.shape[:3]
    flat = states.reshape(m, g * k, 4, 4)
    herm = hermiticity_deviation(flat)
    tr = np.abs(np.trace(flat, axis1=-2, axis2=-1) - 1.0)
    finite = np.isfinite(herm)
    # states that stay positive definite when shifted by
    # drift_tol - ROUNDING_MARGIN have no eigenvalue below -drift_tol; only
    # a block with some other state needs the eigenvalues
    if (finite.all() and (herm <= drift_tol).all() and (tr <= drift_tol).all()
            and _ldl_certified(states.reshape(-1, 4, 4),
                               drift_tol - ROUNDING_MARGIN).all()):
        return
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

    n1 = n_max + 1
    size = min(max(CHECK_BLOCK, CHECK_STATES // (g * k)), n1)
    system = np.empty((n1, g, k, 2, 2), dtype=complex)
    errors: list[InvariantDriftError | None] = [None] * g

    # the loop's joint states, [slot, point, row, state, column]: collision
    # n is written to slot n % size, and a full block is checked at once;
    # the S-M half of a collision writes its output to ``half``
    rows, cols = 4 * g, 4 * k
    block = np.empty((size, g, 4, k, 4), dtype=complex)
    np.einsum("kij,gab->giakjb", initial_systems, rho_m,
              out=block[0].reshape(g, 2, 2, k, 2, 2))
    slots = list(block.reshape(size, rows, 1, cols))
    half = np.empty((rows, 1, cols), dtype=complex)
    # a full block, copied to [slot, point, state, row, column] for the check
    # and the system-state trace
    checked = np.empty((size, g, k, 4, 4), dtype=complex)
    # x (x) rho_A, u @ (x (x) rho_A) and its product with u_dag. rho_A is
    # diagonal (model.thermal_state), so the blocks of x (x) rho_A off its
    # diagonal stay zero and only the two diagonal ones are written,
    # through the diagonal view of xe
    xe = np.zeros((rows, 2, cols, 2), dtype=complex)
    xe_diag = np.einsum("rasa->ras", xe)
    p_a = np.repeat([model.thermal_state(c.thermal, c.spins.omega_a).diagonal()
                     for c in configs], 4, axis=0)[:, :, np.newaxis]
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
            add(z00, z11, out=half)
            multiply(half, p_a, out=xe_diag)
            matmul(u_ma, xe_flat, out=y)
            matmul(y_r, u_ma_dag, out=z)
            add(z00, z11, out=slots[j])
        if j == size - 1 or n == n_max:
            start, states = n - j, checked[:j + 1]
            np.copyto(states, block[:j + 1].transpose(0, 1, 3, 2, 4))
            np.einsum("ngkaibi->ngkab",
                      states.reshape(j + 1, g, k, 2, 2, 2, 2),
                      out=system[start:n + 1])
            _check_block(states, start, DRIFT_TOL, errors)
    # the traced joint states at n = 0 are the inputs times Tr rho_M, which
    # is 1 only to within an ulp
    system[0] = initial_systems
    return system, errors
