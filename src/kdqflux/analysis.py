"""End-to-end analysis of collision-model runs.

Pipeline: evolve the physical state and the four tomography probes together,
collision by collision, for one configuration or a whole grid of them
(``evolve_runs``); then analyze each configuration's collisions in one array
pass (``analyze_evolved``); ``analyze`` composes the two for one run. The
pass only orchestrates: ``tomography`` reads the four numbers (a, b, c, d)
of every cumulative map off the probe states, finds the first singular
predecessor and composes the step maps; ``witnesses`` takes delta_i from
the cumulative maps and every other witness column from the step maps,
with the Choi spectra of both from one call (``witnesses.witness_columns``);
``summarize`` reduces the table. Record n describes collision n (the step
from state n-1 to state n); its ``delta_i`` is the QMI change realized by
that collision.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import engine, tomography, witnesses
from .engine import RunConfig
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
    then the probes P0, P1, P+ and PR of ``tomography.PROBES``; at n = 0
    they are ``config.initial_system`` and ``PROBES`` themselves.
    ``columns`` maps each WitnessRecord field to its (n,) array over
    collisions 1..n; ``family`` is the (n + 1, 4) stack of (a, b, c, d) of
    the cumulative maps, n = 0..n_max (``tomography.phase_covariant_maps``).
    ``records`` holds the same values as WitnessRecord objects, built on
    first use.
    """

    config: RunConfig
    states: np.ndarray
    family: np.ndarray
    columns: dict[str, np.ndarray]
    summary: RunSummary

    @cached_property
    def records(self) -> list[WitnessRecord]:
        return [WitnessRecord(*row) for row in
                zip(*(col.tolist() for col in self.columns.values()))]

    def record_array(self, name: str) -> np.ndarray:
        return self.columns[name]


def evolve_runs(configs) -> tuple[np.ndarray,
                                  list[engine.InvariantDriftError | None]]:
    """Evolve the physical state and the four probes of every configuration.

    The configurations must share ``n_max`` and the initial system state;
    they are stepped together by ``engine.evolve_grid``. Point p's states
    ``[:, p]`` and error are what ``analyze_evolved`` takes for it.
    """
    configs = list(configs)
    initial = configs[0].initial_system
    if any(not np.array_equal(c.initial_system, initial) for c in configs[1:]):
        raise ValueError("grid configurations must share the initial state")
    return engine.evolve_grid(
        configs, np.concatenate([initial[np.newaxis], tomography.PROBES]))


def analyze_evolved(config: RunConfig, states: np.ndarray,
                    error: engine.InvariantDriftError | None = None) -> RunResult:
    """Analyze all collisions of one evolved configuration in one array pass.

    ``states`` and ``error`` are what ``evolve_runs`` gives for ``config``:
    the (n_max + 1, 5, 2, 2) states of the physical state and the four
    probes, and the InvariantDriftError that stopped them, if any; the
    states from its ``step`` on are dropped. Raises like ``analyze``.
    """
    if error is not None:
        states = states[:error.step]
    family = tomography.phase_covariant_maps(states[:, 1:])
    steps, singular = tomography.time_local_family(family)
    columns = witnesses.witness_columns(family, steps, states[:len(steps), 0],
                                        config.spins.omega_s)
    if singular is not None:
        error = singular
    result = RunResult(
        config=config, states=states, family=family, columns=columns,
        summary=summarize(columns, n_max=config.n_max))
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
    states, (error,) = evolve_runs([config])
    return analyze_evolved(config, states[:, 0], error)


def summarize(columns, n_max: int) -> RunSummary:
    """Reduce a witness table to run-level measures and indices.

    ``columns`` is a table like ``RunResult.columns``, with every
    ``WitnessRecord`` field as a key; a table of zero rows means no
    collisions. I_RHP, I_LFS and sum N_q all add up the values that exceed
    ``TOL_POS``, so round-off increments of a CP-divisible run count as zero
    in all three. ``max_abs_d`` takes |d| as ``np.hypot`` of its parts,
    which is libm's ``hypot``, as Python's complex ``abs``; ``np.abs`` of a
    complex array differs from it by an ulp on some members.
    """
    nq, g, delta_i, steps = (columns[k] for k in ("n_q", "g_n", "delta_i", "n"))
    nq_pos, g_pos = nq > TOL_POS, g > TOL_POS

    def first_last(positive):
        idx = steps[positive]
        if idx.size == 0:
            return None, None
        return int(idx[0]), int(idx[-1])

    first_nq, last_nq = first_last(nq_pos)
    first_g, last_g = first_last(g_pos)
    d = columns["d"]
    return RunSummary(
        n_max=n_max,
        i_rhp=float(g[g_pos].sum()),
        i_lfs=float(delta_i[delta_i > TOL_POS].sum()),
        sum_nq=float(nq[nq_pos].sum()),
        first_nq_positive=first_nq, last_nq_positive=last_nq,
        first_g_positive=first_g, last_g_positive=last_g,
        implication_violations=int(np.count_nonzero(
            nq_pos & (columns["choi_min_eig"] >= -TOL_POS))),
        max_off_pattern_residual=float(columns["residual"].max(initial=0.0)),
        max_abs_d=float(np.hypot(d.real, d.imag).max(initial=0.0)),
        tol_pos=TOL_POS)
