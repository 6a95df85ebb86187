"""Batch drivers and file emission for collision-model experiments.

Two subcommands cover the workflows:

* ``run``    -- one configuration, per-collision witness rows (CSV) plus a
                JSON summary;
* ``sweep``  -- a detuning or anisotropy grid, one summary row per point.

Configuration is one flat dict of keys (``_KEYS``), each source overriding
the ones before it: defaults (the resonant reference run: omega = 1,
g = 0.2, tau1 = tau2 = 0.2, beta = 1, n_max = 1000, initial state I/2), an
optional key=value text file, repeatable ``--set key=value`` flags,
``KDQFLUX_OUTPUT_DIR``, ``--out``. ``_run_config`` and ``_config_keys`` turn
the physical keys into a RunConfig and back, for a run, for each sweep point
and for the ``params`` of the JSON files. A run always writes
collisions.csv and summary.json, a sweep sweep.csv and sweep.json; the files
are deterministic: 17-significant-digit CSV and schema-versioned JSON.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime/numerical
failure, 3 partial sweep failure.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import analyze, analyze_evolved, evolve_runs
from .engine import InvariantDriftError, RunConfig
from .model import (ANISOTROPIC, ISOTROPIC, CouplingParams, SpinParams,
                    ThermalSpec)
from .tomography import SingularMapError

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "KDQFLUX_OUTPUT_DIR"

SINGLE_RUN = "single_run"
DETUNING_SWEEP = "detuning_sweep"
ANISOTROPY_SWEEP = "anisotropy_sweep"
_KINDS = (SINGLE_RUN, DETUNING_SWEEP, ANISOTROPY_SWEEP)

COLLISION_HEADER = ("n,p0,p1,a,b,c_re,c_im,d_re,d_im,N_q,g_n,delta_I,"
                    "avg_dE_over_omega,choi_min_eig,residual")
SWEEP_HEADER = "grid_value,i_rhp,i_lfs,sum_nq,error"
_COLLISION_ROW = "%d," + ",".join(["%.17g"] * 14) + "\n"
# collisions.csv is formatted and written this many rows at a time
_CSV_BLOCK_ROWS = 128

# Every configuration key with its type and default; the defaults are the
# resonant reference run, and None leaves a key unset.
_KEYS = {
    "omega_s": (float, 1.0), "omega_m": (float, 1.0), "omega_a": (float, 1.0),
    "g_sm": (float, 0.2), "g_ma": (float, 0.2),
    "tau1": (float, 0.2), "tau2": (float, 0.2),
    "beta": (float, 1.0), "gamma": (float, 0.0), "n_max": (int, 1000),
    "kind": (str, SINGLE_RUN), "grid_min": (float, None),
    "grid_max": (float, None), "grid_points": (int, 101),
    "output_dir": (str, "out"), "sm_kind": (str, ISOTROPIC),
    "aniso_strength": (float, None),
}

_GRID_BOUNDS = {DETUNING_SWEEP: (-0.5, 0.5), ANISOTROPY_SWEEP: (-1.0, 1.0)}

# A sweep evolves its points in chunks whose recorded system history stays
# under this many bytes: 26 points at 1000 collisions.
SWEEP_CHUNK_BYTES = 8 * 2**20


class ConfigError(Exception):
    """Base for configuration failures (exit code 1)."""


class MissingKeyError(ConfigError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"missing value for key {key!r}")


class InvalidValueError(ConfigError):
    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason
        super().__init__(f"invalid value for key {key!r}: {reason}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment description built from config file and overrides."""

    kind: str
    base: RunConfig
    grid: np.ndarray | None
    output_dir: Path


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if not raw:
        raise MissingKeyError(key)
    if key not in _KEYS:
        raise InvalidValueError(key, "unknown key")
    kind = _KEYS[key][0]
    if kind is str:
        return raw
    try:
        value = kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise InvalidValueError(key, f"{raw!r} is not {noun}") from None
    if kind is float and not np.isfinite(value):
        raise InvalidValueError(key, "must be finite")
    return value


def parse_overrides(pairs) -> dict:
    """Parse ``key=value`` pairs: ``--set`` flags and config-file lines."""
    values = {}
    for pair in pairs:
        key, eq, raw = pair.partition("=")
        if not eq:
            raise MissingKeyError(pair)
        key = key.strip().lower()
        values[key] = _parse_value(key, raw)
    return values


def _config_file_pairs(path):
    """The ``key = value`` lines of a config file, without comments."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidValueError("config", f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped and "=" not in stripped:
            raise InvalidValueError(stripped.split()[0],
                                    f"malformed line {lineno}: expected key = value")
        if stripped:
            yield stripped


def _run_config(keys: dict, **fields) -> RunConfig:
    """The RunConfig of a flat key dict, plus any ``fields`` that no key
    sets (``initial_system``); ``_config_keys`` inverts it."""
    return RunConfig(
        spins=SpinParams(omega_s=keys["omega_s"], omega_m=keys["omega_m"],
                         omega_a=keys["omega_a"]),
        couplings=CouplingParams(
            g_sm=keys["g_sm"], g_ma=keys["g_ma"], tau1=keys["tau1"],
            tau2=keys["tau2"], gamma=keys["gamma"],
            sm_interaction_kind=keys["sm_kind"],
            aniso_strength=keys["aniso_strength"]),
        thermal=ThermalSpec(beta=keys["beta"]), n_max=keys["n_max"], **fields)


def _config_keys(config: RunConfig) -> dict:
    """The physical keys of a RunConfig, as ``params`` in the JSON files."""
    keys = {**vars(config.spins), **vars(config.couplings),
            **vars(config.thermal), "n_max": config.n_max}
    keys["sm_kind"] = keys.pop("sm_interaction_kind")
    return keys


def load_config(path=None, cli_overrides: dict | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from an optional file plus override values.

    Override values win over file values; every key has a default matching
    the resonant reference run. A sweep is rejected here when either end of
    its grid has no valid configuration; every point between them has one.
    """
    v = {key: default for key, (_, default) in _KEYS.items()}
    if path:
        v.update(parse_overrides(_config_file_pairs(path)))
    v.update(cli_overrides or {})
    if v["kind"] not in _KINDS:
        raise InvalidValueError("kind", f"must be one of {_KINDS}")
    grid = None
    if v["kind"] != SINGLE_RUN:
        lo, hi = _GRID_BOUNDS[v["kind"]]
        grid_min = lo if v["grid_min"] is None else v["grid_min"]
        grid_max = hi if v["grid_max"] is None else v["grid_max"]
        if v["grid_points"] < 1:
            raise InvalidValueError("grid_points", "must be >= 1")
        if grid_min > grid_max:
            raise InvalidValueError("grid_min", "must not exceed grid_max")
        if grid_min < lo or grid_max > hi:
            raise InvalidValueError(
                "grid_min" if grid_min < lo else "grid_max",
                f"{v['kind']} grid must stay within [{lo}, {hi}]")
        grid = np.linspace(grid_min, grid_max, v["grid_points"])

    try:
        spec = ExperimentSpec(kind=v["kind"], base=_run_config(v), grid=grid,
                              output_dir=Path(v["output_dir"]))
        # omega_s grows along a detuning grid, the phase bound with |omega_s|,
        # and neither depends on gamma: if both ends build, every point does
        for value in () if grid is None else (grid[0], grid[-1]):
            sweep_point_config(spec, float(value))
    except ValueError as exc:
        raise InvalidValueError("config", str(exc)) from exc
    return spec


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def run_single(spec: ExperimentSpec, quiet: bool = False) -> int:
    """Execute one run and emit collisions.csv / summary.json.

    A singular map or invariant drift stops the analysis at its step; the
    rows before it are still written, the summary names the error, and the
    exit code is 2.
    """
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    error = None
    try:
        result = analyze(spec.base)
    except (SingularMapError, InvariantDriftError) as exc:
        error = exc
        result = exc.partial_result

    c, s = result.columns, result.summary
    table = np.column_stack([
        c["n"], c["p0"], c["p1"], c["a"], c["b"], c["c"].real, c["c"].imag,
        c["d"].real, c["d"].imag, c["n_q"], c["g_n"], c["delta_i"],
        c["avg_de"] / spec.base.spins.omega_s, c["choi_min_eig"],
        c["residual"]])
    with open(spec.output_dir / "collisions.csv", "w", encoding="utf-8") as f:
        f.write(COLLISION_HEADER + "\n")
        for i in range(0, len(table), _CSV_BLOCK_ROWS):
            rows = table[i:i + _CSV_BLOCK_ROWS]
            f.write((_COLLISION_ROW * len(rows)) % tuple(rows.ravel().tolist()))
    _write_json(spec.output_dir / "summary.json", {
        "schema": SCHEMA_VERSION, "kind": SINGLE_RUN,
        "params": _config_keys(result.config), **dataclasses.asdict(s),
        "error": (None if error is None else
                  {"step": error.step, "message": str(error)})})
    if not quiet:
        print(f"run: {len(result.columns['n'])} collisions analyzed; "
              f"I_RHP={s.i_rhp:.6g} I_LFS={s.i_lfs:.6g} sum_Nq={s.sum_nq:.6g}"
              + (f"; stopped at step {error.step}: {error}" if error else ""),
              file=sys.stderr)
    return 2 if error else 0


def sweep_point_config(spec: ExperimentSpec, value: float) -> RunConfig:
    """The run configuration of one grid value: the base's keys with
    ``omega_s = omega_m + value``, or with an anisotropic coupling at
    ``gamma = value``, and the base's initial state."""
    keys = _config_keys(spec.base)
    if spec.kind == DETUNING_SWEEP:
        keys["omega_s"] = keys["omega_m"] + value
    else:
        keys.update(sm_kind=ANISOTROPIC, gamma=value)
    return _run_config(keys, initial_system=spec.base.initial_system)


def _sweep_chunk(spec: ExperimentSpec, values: list[float]) -> list[dict]:
    """Build and evolve a chunk of grid points together, then analyze them
    one by one.

    A chunk that cannot be built or evolved (a point's configuration is
    rejected, or its propagators cannot be built, say) is run again one
    point at a time, so that only the points that fail are recorded as
    failed.
    """
    try:
        configs = [sweep_point_config(spec, value) for value in values]
        states, errors = evolve_runs(configs)
    except Exception as exc:  # per-point failures recorded, sweep continues
        if len(values) == 1:
            return [{"error": f"{type(exc).__name__}: {exc}"}]
        return [o for value in values for o in _sweep_chunk(spec, [value])]
    outcomes = []
    for p, (config, error) in enumerate(zip(configs, errors)):
        try:
            s = analyze_evolved(config, states[:, p], error).summary
        except Exception as exc:  # per-point failures recorded, sweep continues
            outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
        else:
            outcomes.append({"i_rhp": s.i_rhp, "i_lfs": s.i_lfs,
                             "sum_nq": s.sum_nq,
                             "implication_violations": s.implication_violations,
                             "error": None})
    return outcomes


def sweep_points(spec: ExperimentSpec, workers: int = 1) -> list[dict]:
    """Summary values of every grid point, in grid order, as in sweep.json.

    The points are built and evolved in contiguous chunks of at most
    ``SWEEP_CHUNK_BYTES`` of recorded system history, each chunk as one
    stacked collision loop, and then analyzed one at a time; a point whose
    configuration is rejected or whose propagators cannot be built fails
    alone. With ``workers > 1`` the chunks run in a process pool; the
    values do not depend on the worker count.
    """
    values = [float(value) for value in spec.grid]
    # five trajectories of (n_max + 1) complex 2x2 states per point
    size = max(1, SWEEP_CHUNK_BYTES // (5 * (spec.base.n_max + 1) * 4 * 16))
    chunks = [values[i:i + size] for i in range(0, len(values), size)]
    run_chunk = functools.partial(_sweep_chunk, spec)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            outcomes = [o for chunk in pool.map(run_chunk, chunks) for o in chunk]
    else:
        outcomes = [o for chunk in chunks for o in run_chunk(chunk)]
    return [{"grid_value": value, **outcome}
            for value, outcome in zip(values, outcomes)]


def run_sweep(spec: ExperimentSpec, workers: int = 1, quiet: bool = False) -> int:
    """Execute every grid point and emit sweep.csv / sweep.json."""
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    points = sweep_points(spec, workers)
    failures = sum(point["error"] is not None for point in points)

    (spec.output_dir / "sweep.csv").write_text(SWEEP_HEADER + "\n" + "".join(
        "%.17g,%.17g,%.17g,%.17g,%s\n" % (
            p["grid_value"], p.get("i_rhp", np.nan), p.get("i_lfs", np.nan),
            p.get("sum_nq", np.nan),
            (p["error"] or "").replace(",", ";").replace("\n", " "))
        for p in points), encoding="utf-8")
    _write_json(spec.output_dir / "sweep.json", {
        "schema": SCHEMA_VERSION, "kind": spec.kind,
        "params": _config_keys(spec.base),
        "grid": [float(x) for x in spec.grid],
        "points": points, "failures": failures,
    })
    if not quiet:
        print(f"sweep: {len(points) - failures}/{len(points)} points succeeded",
              file=sys.stderr)
    return 3 if failures else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors
    (exit code 1), not argparse's exit code 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache   # built once per process; parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kdqflux",
        description="Collision-model energy-change witnesses of non-Markovianity.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "single configuration, per-collision rows"),
                            ("sweep", "detuning or anisotropy grid")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="key=value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a configuration key (repeatable)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (wins over env and file)")
        p.add_argument("--workers", type=int, default=1,
                       help="sweep: processes that evolve chunks of grid "
                            "points in parallel")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = parse_overrides(args.set)
        out = args.out or os.environ.get(OUTPUT_DIR_ENV)
        if out:
            overrides["output_dir"] = out
        spec = load_config(args.config, overrides)
        if args.command == "run" and spec.kind != SINGLE_RUN:
            raise InvalidValueError("kind", "the run subcommand requires single_run")
        if args.command == "sweep" and spec.kind == SINGLE_RUN:
            raise InvalidValueError(
                "kind", "the sweep subcommand requires detuning_sweep or "
                        "anisotropy_sweep")
        if args.workers < 1:
            raise InvalidValueError("workers", "must be >= 1")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            return run_single(spec, quiet=args.quiet)
        return run_sweep(spec, workers=args.workers, quiet=args.quiet)
    except Exception as exc:  # unexpected numerical failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
