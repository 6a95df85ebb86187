"""Batch drivers and file emission for collision-model experiments.

Two subcommands cover the workflows:

* ``run``    -- one configuration, per-collision witness rows (CSV) plus a
                JSON summary;
* ``sweep``  -- a detuning or anisotropy grid, one summary row per point.

Configuration comes from an optional key=value text file overridden by
repeatable ``--set key=value`` flags; defaults reproduce the resonant
reference run (omega = 1, g = 0.2, tau1 = tau2 = 0.2, beta = 1,
n_max = 1000, initial state I/2). Output files are deterministic:
17-significant-digit CSV and schema-versioned JSON.

Exit codes: 0 success, 1 configuration error, 2 runtime/numerical failure,
3 partial sweep failure.
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

from .analysis import RunResult, analyze, analyze_evolved, evolve_runs
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
_COLLISION_ROW = "%d," + ",".join(["%.17g"] * 14) + "\n"   # "%.17g" is _fmt
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
    "output_dir": (str, None), "formats": (str, "csv,json"),
    "sm_kind": (str, ISOTROPIC), "aniso_strength": (float, None),
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
    formats: tuple[str, ...]


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


def _read_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidValueError("config", f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidValueError(stripped.split()[0],
                                    f"malformed line {lineno}: expected key = value")
        key, raw = stripped.split("=", 1)
        key = key.strip().lower()
        values[key] = _parse_value(key, raw)
    return values


def parse_overrides(pairs) -> dict:
    """Parse repeatable ``--set key=value`` flags."""
    values = {}
    for pair in pairs:
        if "=" not in pair:
            raise MissingKeyError(pair)
        key, raw = pair.split("=", 1)
        key = key.strip().lower()
        values[key] = _parse_value(key, raw)
    return values


def _validate(values: dict) -> dict:
    v = {key: default for key, (_, default) in _KEYS.items()}
    v.update(values)
    if v["kind"] not in _KINDS:
        raise InvalidValueError("kind", f"must be one of {_KINDS}")
    formats = tuple(f.strip() for f in str(v["formats"]).split(",") if f.strip())
    if not formats or any(f not in ("csv", "json") for f in formats):
        raise InvalidValueError("formats", "must be a subset of csv,json")
    v["formats"] = formats
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
        if v["kind"] == DETUNING_SWEEP and v["omega_m"] + grid_min <= 0:
            raise InvalidValueError(
                "grid_min", f"omega_s = omega_m + grid_min = "
                            f"{v['omega_m'] + grid_min:g} must be > 0")
        v["grid"] = np.linspace(grid_min, grid_max, v["grid_points"])
    else:
        v["grid"] = None
    return v


def load_config(path=None, cli_overrides: dict | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from an optional file plus override values.

    Flag overrides win over file values; every key has a default matching
    the resonant reference run.
    """
    values = _read_config_file(path) if path else {}
    values.update(cli_overrides or {})
    v = _validate(values)

    try:
        spins = SpinParams(omega_s=v["omega_s"], omega_m=v["omega_m"],
                           omega_a=v["omega_a"])
        couplings = CouplingParams(
            g_sm=v["g_sm"], g_ma=v["g_ma"], tau1=v["tau1"], tau2=v["tau2"],
            gamma=v["gamma"], sm_interaction_kind=v["sm_kind"],
            aniso_strength=v["aniso_strength"])
        thermal = ThermalSpec(beta=v["beta"])
        base = RunConfig(spins=spins, couplings=couplings, thermal=thermal,
                         n_max=v["n_max"])
    except ValueError as exc:
        raise InvalidValueError("config", str(exc)) from exc

    out = v["output_dir"]
    return ExperimentSpec(kind=v["kind"], base=base, grid=v["grid"],
                          output_dir=Path(out) if out else Path("out"),
                          formats=v["formats"])


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _params_dict(config: RunConfig) -> dict:
    c = config.couplings
    return {
        "omega_s": config.spins.omega_s, "omega_m": config.spins.omega_m,
        "omega_a": config.spins.omega_a,
        "g_sm": c.g_sm, "g_ma": c.g_ma, "tau1": c.tau1, "tau2": c.tau2,
        "beta": config.thermal.beta, "gamma": c.gamma,
        "sm_kind": c.sm_interaction_kind, "aniso_strength": c.aniso_strength,
        "n_max": config.n_max,
    }


def _summary_dict(result: RunResult,
                  error: SingularMapError | InvariantDriftError | None = None) -> dict:
    s = result.summary
    payload = {"schema": SCHEMA_VERSION, "kind": SINGLE_RUN,
               "params": _params_dict(result.config)}
    payload.update(dataclasses.asdict(s))
    payload["error"] = (None if error is None else
                        {"step": error.step, "message": str(error)})
    return payload


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

    if "csv" in spec.formats:
        c = result.columns
        table = np.column_stack([
            c["n"], c["p0"], c["p1"], c["a"], c["b"], c["c"].real, c["c"].imag,
            c["d"].real, c["d"].imag, c["n_q"], c["g_n"], c["delta_i"],
            c["avg_de"] / spec.base.spins.omega_s, c["choi_min_eig"],
            c["residual"]])
        with open(spec.output_dir / "collisions.csv", "w",
                  encoding="utf-8") as f:
            f.write(COLLISION_HEADER + "\n")
            for i in range(0, len(table), _CSV_BLOCK_ROWS):
                rows = table[i:i + _CSV_BLOCK_ROWS]
                f.write((_COLLISION_ROW * len(rows))
                        % tuple(rows.ravel().tolist()))
    if "json" in spec.formats:
        _write_json(spec.output_dir / "summary.json",
                    _summary_dict(result, error))
    if not quiet:
        s = result.summary
        print(f"run: {len(result.columns['n'])} collisions analyzed; "
              f"I_RHP={s.i_rhp:.6g} I_LFS={s.i_lfs:.6g} sum_Nq={s.sum_nq:.6g}"
              + (f"; stopped at step {error.step}: {error}" if error else ""),
              file=sys.stderr)
    return 2 if error else 0


def sweep_point_config(spec: ExperimentSpec, value: float) -> RunConfig:
    """Rebuild the run configuration for one grid value."""
    base = spec.base
    if spec.kind == DETUNING_SWEEP:
        spins = dataclasses.replace(base.spins,
                                    omega_s=base.spins.omega_m + value)
        return dataclasses.replace(base, spins=spins)
    couplings = dataclasses.replace(base.couplings,
                                    sm_interaction_kind=ANISOTROPIC,
                                    gamma=value)
    return dataclasses.replace(base, couplings=couplings)


def _sweep_chunk(configs) -> list[tuple[dict | None, str | None]]:
    """Evolve a chunk of grid points together, then analyze them one by one.

    A chunk that cannot be evolved (a point's propagators cannot be built,
    say) is evolved again one point at a time, so that only the points
    that fail are recorded as failed.
    """
    try:
        states, errors = evolve_runs(configs)
    except Exception as exc:  # per-point failures recorded, sweep continues
        if len(configs) == 1:
            return [(None, f"{type(exc).__name__}: {exc}")]
        return [o for config in configs for o in _sweep_chunk([config])]
    outcomes = []
    for p, (config, error) in enumerate(zip(configs, errors)):
        try:
            s = analyze_evolved(config, states[:, p], error).summary
        except Exception as exc:  # per-point failures recorded, sweep continues
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append(({"i_rhp": s.i_rhp, "i_lfs": s.i_lfs,
                              "sum_nq": s.sum_nq,
                              "implication_violations": s.implication_violations},
                             None))
    return outcomes


def sweep_points(spec: ExperimentSpec, workers: int = 1) -> list[dict]:
    """Summary values of every grid point, in grid order, as in sweep.json.

    Each point's configuration is built first; a point whose configuration
    is rejected is recorded as failed and left out. The others are evolved
    in contiguous chunks of at most ``SWEEP_CHUNK_BYTES`` of recorded system
    history, each chunk as one stacked collision loop, and then analyzed one
    at a time; a point whose propagators cannot be built fails alone. With
    ``workers > 1`` the chunks run in a process pool; the values do not
    depend on the worker count.
    """
    points = [{"grid_value": float(value)} for value in spec.grid]
    runnable = []
    for point in points:
        try:
            config = sweep_point_config(spec, point["grid_value"])
        except Exception as exc:  # per-point failures recorded, sweep continues
            point["error"] = f"{type(exc).__name__}: {exc}"
        else:
            runnable.append((point, config))

    configs = [config for _, config in runnable]
    # five trajectories of (n_max + 1) complex 2x2 states per point
    size = max(1, SWEEP_CHUNK_BYTES // (5 * (spec.base.n_max + 1) * 4 * 16))
    chunks = [configs[i:i + size] for i in range(0, len(configs), size)]
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            outcomes = [o for chunk in pool.map(_sweep_chunk, chunks) for o in chunk]
    else:
        outcomes = [o for chunk in chunks for o in _sweep_chunk(chunk)]
    for (point, _), (summary, err) in zip(runnable, outcomes):
        point.update(summary or {}, error=err)
    return points


def run_sweep(spec: ExperimentSpec, workers: int = 1, quiet: bool = False) -> int:
    """Execute every grid point and emit sweep.csv / sweep.json."""
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    points = sweep_points(spec, workers)

    failures = 0
    csv_rows = [SWEEP_HEADER]
    for point in points:
        value, err = point["grid_value"], point["error"]
        if err is not None:
            failures += 1
            marker = err.replace(",", ";").replace("\n", " ")
            csv_rows.append(f"{_fmt(value)},nan,nan,nan,{marker}")
        else:
            csv_rows.append(
                f"{_fmt(value)},{_fmt(point['i_rhp'])},"
                f"{_fmt(point['i_lfs'])},{_fmt(point['sum_nq'])},")

    if "csv" in spec.formats:
        (spec.output_dir / "sweep.csv").write_text(
            "\n".join(csv_rows) + "\n", encoding="utf-8")
    if "json" in spec.formats:
        _write_json(spec.output_dir / "sweep.json", {
            "schema": SCHEMA_VERSION, "kind": spec.kind,
            "params": _params_dict(spec.base),
            "grid": [float(x) for x in spec.grid],
            "points": points, "failures": failures,
        })
    if not quiet:
        print(f"sweep: {len(points) - failures}/{len(points)} points succeeded",
              file=sys.stderr)
    return 3 if failures else 0


@functools.cache   # built once per process; parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--format", default=None, metavar="LIST",
                       help="comma-separated subset of csv,json")
        p.add_argument("--workers", type=int, default=1,
                       help="sweep: processes that evolve chunks of grid "
                            "points in parallel")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = parse_overrides(args.set)
        if args.format is not None:
            overrides["formats"] = _parse_value("formats", args.format)
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

    out = args.out or os.environ.get(OUTPUT_DIR_ENV)
    if out:
        spec = dataclasses.replace(spec, output_dir=Path(out))

    try:
        if args.command == "run":
            return run_single(spec, quiet=args.quiet)
        return run_sweep(spec, workers=args.workers, quiet=args.quiet)
    except Exception as exc:  # unexpected numerical failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
