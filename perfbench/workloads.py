"""The three benchmark workloads: how each op is drawn, run and read back.

Every op is drawn from ``numpy.random.default_rng((seed, workload, index))``,
so op ``i`` of a seed is the same whatever ran before it, and no two ops of a
run share a configuration (nothing the program might cache is repeated).
Op 0 of ``reference_run`` is the exact reference configuration for every
seed.

An op returns an :class:`Outcome`, the program's answer in a form the
correctness check compares; reading it back is not part of the op's time.
"""

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_MAX = 1000              # horizon of reference_run and of every sweep point
# grid points per detuning_sweep op. A point takes 0.3-0.5 s on a shared
# 2-core host; at 6 points a 30 s run sometimes held only 10 ops, and
# op_tail_s needs ten ops beyond it, so 4 points (at most 2.3 s an op, 14 or
# more ops a run) is the most that reliably fits
SWEEP_POINTS = 4
SHORT_N_MAX = (20, 100)   # inclusive horizon range of random_short_runs
TINY_N_MAX = 12           # horizon used by --tiny (smoke tests)

CSV_COLUMNS = ("n", "p0", "p1", "a", "b", "c_re", "c_im", "d_re", "d_im",
               "N_q", "g_n", "delta_I", "avg_dE_over_omega", "choi_min_eig",
               "residual")
SWEEP_COLUMNS = ("grid_value", "i_rhp", "i_lfs", "sum_nq")


@dataclass(frozen=True)
class Op:
    """One workload operation: what the program is asked, and its size."""

    index: int
    params: tuple              # sorted (key, value) pairs handed to the program
    rows: int                  # rows the answer must have
    collisions: int            # collisions analysed by the op

    @property
    def key(self) -> str:
        """Identity of the op's input, used to look up a recorded reference."""
        return json.dumps(self.params)

    @property
    def is_reference_config(self) -> bool:
        return not self.params


@dataclass
class Outcome:
    """What one op produced, normalised for the correctness check.

    ``rows`` is the per-collision table (``CSV_COLUMNS``) or, for a sweep,
    one row per grid point (``SWEEP_COLUMNS``). ``sums`` holds I_RHP, I_LFS
    and sum N_q of a run (empty for a sweep, whose rows carry them), and
    ``windows`` the first/last collision with N_q > 0 and with g_n > 0
    (-1 for none; empty for a sweep).
    """

    rows: np.ndarray
    sums: np.ndarray
    windows: tuple
    violations: int
    files_written: int = 0
    bytes_written: int = 0


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _set_args(params) -> list:
    args = []
    for key, value in params:
        args += ["--set", f"{key}={value!r}" if isinstance(value, float)
                 else f"{key}={value}"]
    return args


def _windows(summary) -> tuple:
    return tuple(-1 if v is None else int(v) for v in (
        summary["first_nq_positive"], summary["last_nq_positive"],
        summary["first_g_positive"], summary["last_g_positive"]))


def _written(out_dir: Path) -> tuple[int, int]:
    files = [p for p in out_dir.iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class ReferenceRun:
    """``kdqflux run`` at 1000 collisions, parameters near the reference."""

    name = "reference_run"

    def __init__(self, kdqflux, work_dir: Path, tiny: bool = False):
        self.kdqflux = kdqflux
        self.work_dir = work_dir
        self.n_max = TINY_N_MAX if tiny else N_MAX

    def op(self, seed: int, index: int) -> Op:
        params = {}
        if index > 0:
            rng = np.random.default_rng((seed, 1, index))
            for key, centre in (("omega_s", 1.0), ("omega_m", 1.0),
                                ("omega_a", 1.0), ("g_sm", 0.2), ("g_ma", 0.2),
                                ("tau1", 0.2), ("tau2", 0.2), ("beta", 1.0)):
                params[key] = centre * _uniform(rng, 0.98, 1.02)
        if self.n_max != N_MAX:
            params["n_max"] = self.n_max
        return Op(index, tuple(sorted(params.items())), rows=self.n_max,
                  collisions=self.n_max)

    def prepare(self, op: Op):
        out = self.work_dir / f"op{op.index}"
        return ["run", *_set_args(op.params), "--out", str(out), "--quiet"]

    def run(self, argv):
        return self.kdqflux.cli.main(argv)

    def read(self, argv, status) -> Outcome:
        out = Path(argv[argv.index("--out") + 1])
        try:
            if status != 0:
                raise RuntimeError(f"kdqflux run exited with {status}")
            with open(out / "collisions.csv", encoding="utf-8") as fh:
                header = fh.readline().strip()
                if header != ",".join(CSV_COLUMNS):
                    raise RuntimeError(f"unexpected CSV header {header!r}")
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            summary = json.loads((out / "summary.json").read_text("utf-8"))
            files, size = _written(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Outcome(
            rows=rows,
            sums=np.array([summary["i_rhp"], summary["i_lfs"],
                           summary["sum_nq"]], dtype=float),
            windows=_windows(summary),
            violations=int(summary["implication_violations"]),
            files_written=files, bytes_written=size)


class DetuningSweep(ReferenceRun):
    """``kdqflux sweep`` of a seeded detuning window, one worker."""

    name = "detuning_sweep"

    def op(self, seed: int, index: int) -> Op:
        rng = np.random.default_rng((seed, 2, index))
        grid_min = _uniform(rng, -0.5, 0.3)
        grid_max = min(grid_min + _uniform(rng, 0.05, 0.2), 0.5)
        params = {"kind": "detuning_sweep", "grid_min": grid_min,
                  "grid_max": grid_max, "grid_points": SWEEP_POINTS}
        if self.n_max != N_MAX:
            params["n_max"] = self.n_max
        return Op(index, tuple(sorted(params.items())), rows=SWEEP_POINTS,
                  collisions=SWEEP_POINTS * self.n_max)

    def prepare(self, op: Op):
        out = self.work_dir / f"op{op.index}"
        return ["sweep", *_set_args(op.params), "--workers", "1",
                "--out", str(out), "--quiet"]

    def read(self, argv, status) -> Outcome:
        out = Path(argv[argv.index("--out") + 1])
        try:
            if status != 0:
                raise RuntimeError(f"kdqflux sweep exited with {status}")
            sweep = json.loads((out / "sweep.json").read_text("utf-8"))
            files, size = _written(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        points = sweep["points"]
        return Outcome(
            rows=np.array([[p[c] for c in SWEEP_COLUMNS] for p in points],
                          dtype=float).reshape(-1, len(SWEEP_COLUMNS)),
            sums=np.empty(0), windows=(),
            violations=sum(int(p["implication_violations"]) for p in points),
            files_written=files, bytes_written=size)


class RandomShortRuns:
    """Library ``analyze(RunConfig(...))`` on random short configurations."""

    name = "random_short_runs"

    def __init__(self, kdqflux, work_dir: Path, tiny: bool = False):
        self.kdqflux = kdqflux
        self.n_range = (TINY_N_MAX // 2, TINY_N_MAX) if tiny else SHORT_N_MAX

    def op(self, seed: int, index: int) -> Op:
        rng = np.random.default_rng((seed, 3, index))
        params = {key: _uniform(rng, 0.6, 1.4)
                  for key in ("omega_s", "omega_m", "omega_a")}
        params.update({key: _uniform(rng, 0.05, 0.4)
                       for key in ("g_sm", "g_ma", "tau1", "tau2")})
        params["beta"] = float(np.exp(rng.uniform(np.log(0.2), np.log(3.0))))
        if rng.random() < 0.5:
            params["sm_kind"] = "anisotropic"
            params["gamma"] = _uniform(rng, -1.0, 1.0)
        params["n_max"] = int(rng.integers(self.n_range[0], self.n_range[1] + 1))
        return Op(index, tuple(sorted(params.items())), rows=params["n_max"],
                  collisions=params["n_max"])

    def prepare(self, op: Op):
        return dict(op.params)

    def run(self, p):
        k = self.kdqflux
        return k.analyze(k.RunConfig(
            spins=k.SpinParams(omega_s=p["omega_s"], omega_m=p["omega_m"],
                               omega_a=p["omega_a"]),
            couplings=k.CouplingParams(
                g_sm=p["g_sm"], g_ma=p["g_ma"], tau1=p["tau1"], tau2=p["tau2"],
                gamma=p.get("gamma", 0.0),
                sm_interaction_kind=p.get("sm_kind", "isotropic")),
            thermal=k.ThermalSpec(beta=p["beta"]),
            n_max=p["n_max"]))

    def read(self, p, result) -> Outcome:
        s = result.summary
        col = result.record_array
        n = len(result.records)
        rows = np.column_stack([
            col("n"), col("p0"), col("p1"), col("a"), col("b"),
            col("c").real, col("c").imag, col("d").real, col("d").imag,
            col("n_q"), col("g_n"), col("delta_i"),
            col("avg_de") / p["omega_s"], col("choi_min_eig"),
            col("residual")]).astype(float) if n else np.empty((0, 15))
        return Outcome(
            rows=rows, sums=np.array([s.i_rhp, s.i_lfs, s.sum_nq], dtype=float),
            windows=_windows(vars(s)), violations=int(s.implication_violations))


WORKLOADS = {w.name: w for w in (ReferenceRun, DetuningSweep, RandomShortRuns)}
