"""End-to-end analysis of collision-model runs.

Pipeline: evolve the physical state and the four tomography probes together,
collision by collision, for one configuration or a whole grid of them
(``evolve_runs``); then analyze each configuration's collisions in one array
pass (``analyze_evolved``); ``analyze`` composes the two for one run. The
pass reads the cumulative maps (M_n, c_n) off the probe Bloch vectors as
stacks, inverts every predecessor M_{n-1} at once (the determinant and
condition scan finds the first singular step), composes the single-step
maps in batch, converts them to superoperators and Choi matrices by reshape
and transpose, and takes g_n and the minimum Choi eigenvalue from the closed
form roots of each Choi matrix's two 2x2 blocks, whose determinants are the
CP margins (``linalg.block_eigvalsh``). The KDQ non-positivity N_q,
the phase covariant entries, the CP margins and <dE> are elementwise array
expressions. Record n describes collision n (the step from state n-1 to
state n); its ``delta_i`` is the QMI change realized by that collision.
"""

import time
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import engine, tomography, witnesses
from .engine import RunConfig
from .linalg import HERMITICITY_TOL, _require_hermitian, block_eigvalsh
from .model import SIGMA_X, SIGMA_Y, SIGMA_Z, probe_states
from .tomography import AffineBlochMap, SingularMapError, _off_pattern_residual
from .witnesses import WitnessRecord

# N_q, g_n and delta_i count as positive above this threshold.
TOL_POS = 1e-10


@dataclass(frozen=True)
class RunSummary:
    """Aggregates of one run; indices are None when never positive."""

    n_max: int
    i_rhp: float
    i_lfs: float
    sum_nq: float
    first_nq_positive: int | None
    last_nq_positive: int | None
    first_g_positive: int | None
    last_g_positive: int | None
    implication_violations: int      # steps with N_q > tol but Choi min eig >= -tol
    max_off_pattern_residual: float
    max_abs_d: float
    tol_pos: float


@dataclass
class RunResult:
    """Everything the drivers and tests need from one analyzed run.

    ``states`` holds the (n + 1, 5, 2, 2) system states: the physical one,
    then the probes P0, P1, P+ and PR in ``model.probe_states`` order.
    ``columns`` maps each WitnessRecord field to its (n,) array over
    collisions 1..n; ``family`` stacks the cumulative maps, n = 0..n_max.
    ``records`` holds the same values as WitnessRecord objects, built on
    first use.
    """

    config: RunConfig
    states: np.ndarray
    family: AffineBlochMap
    columns: dict[str, np.ndarray]
    summary: RunSummary
    elapsed: float = field(default=0.0, repr=False)

    @cached_property
    def records(self) -> list[WitnessRecord]:
        return [WitnessRecord(*row) for row in
                zip(*(col.tolist() for col in self.columns.values()))]

    def record_array(self, name: str) -> np.ndarray:
        return self.columns[name]


_FIELDS = [f.name for f in fields(WitnessRecord)]


def probe_bloch_history(probes: np.ndarray) -> np.ndarray:
    """Bloch vectors of the (n+1, 4, 2, 2) probe states, shape (n+1, 4, 3)."""
    pauli = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
    # einsum iterates, and so rounds, in the operand's memory order; a
    # contiguous copy makes the result independent of how states were sliced
    return np.einsum("pij,nkji->nkp", pauli, np.ascontiguousarray(probes)).real


def _witness_columns(sops: np.ndarray, rho_pre: np.ndarray,
                     delta_i: np.ndarray, omega_s: float) -> list[np.ndarray]:
    """Per-collision witness values of a stack of step maps, as arrays.

    ``sops`` are the (n, 4, 4) superoperators of the step maps, ``rho_pre``
    the (n, 2, 2) states they act on and ``delta_i`` the n QMI increments.
    The columns come in the field order of WitnessRecord after ``n``. The
    energy basis is the computational one, so each KDQ value
    q[in, fin] = Tr[Pi_fin Lambda[Pi_in rho]] is a sum of two products.
    """
    r00, r01 = rho_pre[:, 0, 0], rho_pre[:, 0, 1]
    r10, r11 = rho_pre[:, 1, 0], rho_pre[:, 1, 1]
    q00 = sops[:, 0, 0] * r00 + sops[:, 0, 1] * r01
    q01 = sops[:, 3, 0] * r00 + sops[:, 3, 1] * r01
    q10 = sops[:, 0, 2] * r10 + sops[:, 0, 3] * r11
    q11 = sops[:, 3, 2] * r10 + sops[:, 3, 3] * r11
    a, b = sops[:, 0, 0].real, sops[:, 0, 3].real
    c, d = sops[:, 1, 1], sops[:, 1, 2]
    p0, p1 = r00.real, r11.real
    c_margin = a * (1.0 - b) - np.abs(c) ** 2
    d_margin = b * (1.0 - a) - np.abs(d) ** 2
    # the Choi blocks [[a, c], [c*, 1-b]] and [[1-a, d*], [d, b]] have the
    # CP margins as determinants
    w = block_eigvalsh(_require_hermitian(
        tomography.choi(sops), HERMITICITY_TOL, "Choi matrices of the step maps"),
        c_margin, d_margin)
    return [p0, p1, a, b, c, d, _off_pattern_residual(sops),
            np.abs(q00) + np.abs(q01) + np.abs(q10) + np.abs(q11) - 1.0,  # N_q
            np.abs(w).sum(axis=1) / 2.0 - 1.0,                            # g_n
            delta_i,
            omega_s * ((a - 1.0) * p0 + b * p1),                          # <dE>
            c_margin, d_margin,
            w.min(axis=1)]                                    # min Choi eigenvalue


def evolve_runs(configs) -> tuple[np.ndarray,
                                  list[engine.InvariantDriftError | None]]:
    """Evolve the physical state and the four probes of every configuration.

    The configurations must share ``n_max`` and the initial system state;
    they are stepped together by ``engine.evolve_grid``. Point p's states
    ``[:, p]`` and error are what ``analyze_evolved`` takes for it.
    """
    configs = list(configs)
    initial = configs[0].initial_system
    if any(not np.array_equal(c.initial_system, initial) for c in configs):
        raise ValueError("grid configurations must share the initial state")
    return engine.evolve_grid(
        configs, np.concatenate([initial[np.newaxis], np.stack(probe_states())]))


def analyze_evolved(config: RunConfig, states: np.ndarray,
                    error: engine.InvariantDriftError | None = None,
                    t_start: float | None = None) -> RunResult:
    """Analyze all collisions of one evolved configuration in one array pass.

    ``states`` and ``error`` are what ``evolve_runs`` gives for ``config``:
    the (n_max + 1, 5, 2, 2) states of the physical state and the four
    probes, and the InvariantDriftError that stopped them, if any; the
    states from its ``step`` on are dropped. ``t_start``, a
    ``time.perf_counter`` reading, dates ``RunResult.elapsed`` (default: this
    call). Raises like ``analyze``.
    """
    if t_start is None:
        t_start = time.perf_counter()
    if error is not None:
        states = states[:error.step]
    family = tomography.reconstruct_affine(probe_bloch_history(states[:, 1:]))
    delta_i = witnesses.lfs_series(
        tomography.choi(tomography.affine_to_superoperator(family)))
    steps, singular = tomography.time_local_family(family)
    if singular is not None:
        error = singular
    sops = tomography.affine_to_superoperator(steps)
    n = len(sops)
    columns = dict(zip(_FIELDS, [np.arange(1, n + 1), *_witness_columns(
        sops, states[:n, 0], delta_i[:n], config.spins.omega_s)]))
    result = RunResult(
        config=config, states=states, family=family, columns=columns,
        summary=summarize(columns, n_max=config.n_max),
        elapsed=time.perf_counter() - t_start)
    if error is not None:
        error.partial_result = result
        raise error
    return result


def analyze(config: RunConfig) -> RunResult:
    """Run the full pipeline for one configuration.

    Raises SingularMapError when a cumulative map cannot be inverted, and
    engine.InvariantDriftError when a state leaves the density-matrix
    invariants. Either error carries the offending collision as ``step`` and
    the result analyzed up to the collision before it as ``partial_result``;
    when both occur, the earlier step is reported.
    """
    t_start = time.perf_counter()
    states, (error,) = evolve_runs([config])
    return analyze_evolved(config, states[:, 0], error, t_start)


def summarize(columns, n_max: int, tol_pos: float = TOL_POS) -> RunSummary:
    """Reduce a witness table to run-level measures and indices.

    ``columns`` is a table like ``RunResult.columns``; an empty one means no
    collisions. I_RHP, I_LFS and sum N_q all add up the values that exceed
    ``tol_pos``, so round-off increments of a CP-divisible run count as zero
    in all three. The maxima are taken with Python's ``max`` and ``abs``.
    """
    columns = dict(columns) or dict.fromkeys(_FIELDS, np.empty(0))
    nq, g, delta_i, steps = (columns[k] for k in ("n_q", "g_n", "delta_i", "n"))

    def first_last(values):
        idx = steps[values > tol_pos]
        if idx.size == 0:
            return None, None
        return int(idx[0]), int(idx[-1])

    first_nq, last_nq = first_last(nq)
    first_g, last_g = first_last(g)
    return RunSummary(
        n_max=n_max,
        i_rhp=float(g[g > tol_pos].sum()),
        i_lfs=float(delta_i[delta_i > tol_pos].sum()),
        sum_nq=float(nq[nq > tol_pos].sum()),
        first_nq_positive=first_nq, last_nq_positive=last_nq,
        first_g_positive=first_g, last_g_positive=last_g,
        implication_violations=int(np.sum(
            (nq > tol_pos) & (columns["choi_min_eig"] >= -tol_pos))),
        max_off_pattern_residual=max(columns["residual"].tolist(), default=0.0),
        max_abs_d=max(map(abs, columns["d"].tolist()), default=0.0),
        tol_pos=tol_pos)
