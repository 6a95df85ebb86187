import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdqflux import cli, engine, model
from kdqflux.analysis import analyze
from kdqflux.cli import (COLLISION_HEADER, SWEEP_HEADER, ExperimentSpec,
                         InvalidValueError, load_config,
                         main, parse_overrides, run_single, run_sweep,
                         sweep_point_config)
from kdqflux.model import ANISOTROPIC, ISOTROPIC
from oracles import inject_trace_drift, replaced_sweep_point_config
from test_analysis import NQ_ACCURACY

SWAP_TAU = np.pi / (2 * 0.2)
# the keys that describe the experiment rather than the physics
NON_PHYSICAL_KEYS = {"kind", "grid_min", "grid_max", "grid_points",
                     "output_dir"}


# ------------------------------------------------------------ configuration

def test_defaults_reproduce_reference_run(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    spec = load_config(empty)
    assert spec.kind == "single_run"
    assert spec.base.spins.omega_s == 1.0
    assert spec.base.couplings.g_sm == 0.2
    assert spec.base.couplings.tau1 == 0.2
    assert spec.base.thermal.beta == 1.0
    assert spec.base.n_max == 1000
    assert np.allclose(spec.base.initial_system, np.eye(2) / 2)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    text = """
# reference run, shorter
omega_s = 0.8
n_max = 17          # inline comments are stripped
"""
    cfg.write_text(text)
    spec = load_config(cfg)
    assert spec.base.spins.omega_s == 0.8
    assert spec.base.n_max == 17
    # a run always writes both files; there is no key to choose them
    cfg.write_text(text + "formats = json\n")
    with pytest.raises(InvalidValueError, match="'formats': unknown key"):
        load_config(cfg)


def test_config_file_with_byte_order_mark(tmp_path):
    # editors that save UTF-8 with a BOM put U+FEFF before the first key
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfomega_s = 0.9\nn_max = 3\n")
    spec = load_config(cfg)
    assert spec.base.spins.omega_s == 0.9
    assert spec.base.n_max == 3
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "summary.json").read_text())["params"]["omega_s"] == 0.9


def test_overrides_win_over_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 17\n")
    spec = load_config(cfg, parse_overrides(["n_max=10"]))
    assert spec.base.n_max == 10


def test_invalid_values_rejected(tmp_path):
    with pytest.raises(InvalidValueError):
        load_config(None, {"beta": -1.0})
    with pytest.raises(InvalidValueError):
        load_config(None, parse_overrides(["kind=nonsense"]))
    with pytest.raises(InvalidValueError):
        parse_overrides(["frequency=2"])      # unknown key
    with pytest.raises(InvalidValueError):
        parse_overrides(["n_max=ten"])
    with pytest.raises(InvalidValueError, match="'n_max': missing value"):
        parse_overrides(["n_max"])
    with pytest.raises(InvalidValueError, match="'n_max': missing value"):
        parse_overrides(["n_max="])
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    with pytest.raises(InvalidValueError):
        load_config(bad)


@pytest.mark.parametrize("pair, message", [
    ("frequency=2", "invalid value for key 'frequency': unknown key"),
    ("frequency=", "invalid value for key 'frequency': missing value"),
    ("n_max=ten", "invalid value for key 'n_max': 'ten' is not an integer"),
    ("g_sm=strong", "invalid value for key 'g_sm': 'strong' is not a number"),
    ("grid_min=inf", "invalid value for key 'grid_min': must be finite"),
    ("omega_s=nan", "invalid value for key 'omega_s': must be finite"),
])
def test_parse_errors_name_the_key_and_the_reason(pair, message):
    with pytest.raises(InvalidValueError) as error:
        parse_overrides([pair])
    assert str(error.value) == message


def test_sweep_grid_defaults_and_bounds():
    spec = load_config(None, {"kind": "detuning_sweep"})
    assert spec.grid.shape == (101,)
    assert spec.grid[0] == -0.5 and spec.grid[-1] == 0.5
    spec = load_config(None, {"kind": "anisotropy_sweep"})
    assert spec.grid[0] == -1.0 and spec.grid[-1] == 1.0
    with pytest.raises(InvalidValueError):
        load_config(None, {"kind": "detuning_sweep", "grid_min": -0.7})
    with pytest.raises(InvalidValueError):
        load_config(None, {"kind": "detuning_sweep", "grid_points": 0})


def test_sweep_point_config_rules():
    spec = load_config(None, {"kind": "detuning_sweep"})
    point = sweep_point_config(spec, -0.2)
    assert point.spins.omega_s == pytest.approx(0.8)
    assert point.spins.omega_m == 1.0

    spec = load_config(None, {"kind": "anisotropy_sweep"})
    point = sweep_point_config(spec, 0.5)
    assert point.couplings.sm_interaction_kind == ANISOTROPIC
    assert point.couplings.gamma == 0.5


@st.composite
def physical_keys(draw):
    """Physical keys of valid configurations, isotropic and anisotropic,
    with ``aniso_strength`` unset or set."""
    f = st.floats
    return {
        "omega_s": draw(f(0.5, 1.5)), "omega_m": draw(f(0.6, 1.5)),
        "omega_a": draw(f(0.5, 1.5)), "g_sm": draw(f(0.0, 0.5)),
        "g_ma": draw(f(0.0, 0.5)), "tau1": draw(f(0.0, 1.0)),
        "tau2": draw(f(0.0, 1.0)), "beta": draw(f(0.0, 5.0)),
        "gamma": draw(f(-1.0, 1.0)), "n_max": draw(st.integers(0, 2000)),
        "sm_kind": draw(st.sampled_from([ISOTROPIC, ANISOTROPIC])),
        "aniso_strength": draw(st.none() | f(-1.0, 1.0)),
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(keys=physical_keys())
def test_keys_to_run_config_and_back_is_the_identity(keys):
    assert cli._config_keys(cli._run_config(keys)) == keys


@settings(max_examples=60, deadline=None, derandomize=True)
@given(keys=physical_keys(),
       kind=st.sampled_from(["detuning_sweep", "anisotropy_sweep"]),
       at=st.floats(0.0, 1.0), polarized=st.booleans())
def test_sweep_point_config_equals_field_by_field_replacement(keys, kind, at,
                                                              polarized):
    spec = load_config(None, {**keys, "kind": kind})
    if polarized:   # a base built past load_config keeps its initial state
        spec = dataclasses.replace(spec, base=dataclasses.replace(
            spec.base, initial_system=np.diag([0.9, 0.1])))
    value = float(spec.grid[0] + at * (spec.grid[-1] - spec.grid[0]))
    got = sweep_point_config(spec, value)
    want = replaced_sweep_point_config(spec, value)
    for field in dataclasses.fields(engine.RunConfig):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.array_equal(a, b) if field.name == "initial_system" else a == b


@pytest.mark.parametrize("command, name, args", [
    ("run", "summary.json", ["--set", "n_max=3"]),
    ("sweep", "sweep.json", ["--set", "kind=anisotropy_sweep", "--set", "n_max=3",
                             "--set", "grid_points=2"]),
])
def test_json_params_are_the_physical_keys(tmp_path, command, name, args):
    out = tmp_path / "out"
    assert main([command, *args, "--set", "sm_kind=anisotropic",
                 "--set", "aniso_strength=0.3", "--out", str(out), "--quiet"]) == 0
    params = json.loads((out / name).read_text())["params"]
    assert set(params) == set(cli._KEYS) - NON_PHYSICAL_KEYS
    assert params["n_max"] == 3 and params["aniso_strength"] == 0.3
    assert params["sm_kind"] == "anisotropic"


# -------------------------------------------------------------- run command

def test_run_single_writes_rows_and_summary(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--set", "n_max=5", "--out", str(out), "--quiet"])
    assert code == 0
    rows = (out / "collisions.csv").read_text().splitlines()
    assert rows[0] == COLLISION_HEADER
    assert len(rows) == 6
    assert rows[1].startswith("1,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == 1
    assert summary["params"]["n_max"] == 5
    assert summary["error"] is None
    assert summary["tol_pos"] == 1e-10
    assert '"tol_pos": 1e-10\n' in (out / "summary.json").read_text()


def test_run_single_row_count_one(tmp_path):
    out = tmp_path / "one"
    assert main(["run", "--set", "n_max=1", "--out", str(out), "--quiet"]) == 0
    rows = (out / "collisions.csv").read_text().splitlines()
    assert len(rows) == 2


def test_run_output_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--set", "n_max=40", "--out", str(out), "--quiet"]) == 0
    assert (out_a / "collisions.csv").read_bytes() == (out_b / "collisions.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_run_rows_satisfy_witness_invariants(tmp_path):
    out = tmp_path / "inv"
    assert main(["run", "--set", "n_max=60", "--out", str(out), "--quiet"]) == 0
    rows = (out / "collisions.csv").read_text().splitlines()[1:]
    header = COLLISION_HEADER.split(",")
    i_nq, i_g = header.index("N_q"), header.index("g_n")
    for row in rows:
        fields = row.split(",")
        assert float(fields[i_nq]) >= -NQ_ACCURACY
        assert float(fields[i_g]) >= -1e-12


def test_run_csv_only_format(tmp_path, capsys):
    # a run writes both files, and neither a key nor a flag selects one
    out = tmp_path / "both"
    assert main(["run", "--set", "n_max=2", "--out", str(out), "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["collisions.csv",
                                                     "summary.json"]
    out = tmp_path / "csvonly"
    assert main(["run", "--set", "n_max=2", "--set", "formats=csv",
                 "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "configuration error: invalid value for key 'formats': unknown key\n")
    assert main(["run", "--set", "n_max=2", "--format", "csv",
                 "--out", str(out), "--quiet"]) == 1
    assert not out.exists()


def test_run_at_an_overflowing_gibbs_weight_is_finite(tmp_path):
    # beta omega_a / 2 = 750 is past the range of exp: the environment
    # qubit is in its ground state, and the run goes through
    out = tmp_path / "cold"
    code = main(["run", "--set", "beta=1000", "--set", "omega_a=1.5",
                 "--set", "n_max=5", "--out", str(out), "--quiet"])
    assert code == 0
    rows = (out / "collisions.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    assert all(np.isfinite(float(x)) for row in rows for x in row.split(","))
    assert json.loads((out / "summary.json").read_text())["error"] is None


def test_unresolvable_hamiltonian_is_a_configuration_error(tmp_path, capsys):
    # omega_m = 1e20 drowns the O(1) terms in the rounding of eigh (c read
    # exactly 1); a sweep is rejected before any point runs
    out = tmp_path / "huge"
    assert main(["run", "--set", "omega_m=1e20", "--set", "beta=1e-25",
                 "--set", "n_max=2", "--out", str(out), "--quiet"]) == 1
    assert main(["sweep", "--set", "kind=detuning_sweep", "--set", "omega_m=1e9",
                 "--set", "grid_points=3", "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("configuration error: invalid value for key "
                               "'config': Hamiltonian too large for double "
                               "precision") for line in err)
    assert not out.exists()


def test_oversized_anisotropy_sweep_is_a_configuration_error(tmp_path, capsys):
    # aniso_strength acts only on the anisotropic grid points, not on the
    # isotropic base: the grid's ends are checked before any point runs
    out = tmp_path / "huge"
    assert main(["sweep", "--set", "kind=anisotropy_sweep", "--set", "n_max=3",
                 "--set", "grid_points=3", "--set", "aniso_strength=1e17",
                 "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: invalid value for key 'config': Hamiltonian "
        "too large for double precision")
    assert not out.exists()
    with pytest.raises(InvalidValueError):
        load_config(None, {"kind": "anisotropy_sweep", "aniso_strength": 1e17})
    # an isotropic single run does not use the strength
    spec = load_config(None, {"aniso_strength": 1e17})
    assert spec.base.couplings.aniso_strength == 1e17


def test_run_singular_flushes_partial_output_and_exits_2(tmp_path):
    out = tmp_path / "partial"
    code = main(["run", "--set", f"tau1={SWAP_TAU}", "--set", "n_max=5",
                 "--out", str(out), "--quiet"])
    assert code == 2
    rows = (out / "collisions.csv").read_text().splitlines()
    assert len(rows) == 2          # header plus the single completed step
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"]["step"] == 2


@pytest.mark.parametrize("argv", [
    [],                                      # no subcommand
    ["frobnicate"],                          # unknown subcommand
    ["run", "--bogus"],                      # unknown flag
    ["sweep", "--workers", "abc"],           # flag value of the wrong type
    ["sweep", "--set"],                      # flag without its value
    ["run", "--format", "csv"],              # a removed flag
    ["run", "--workers", "2"],               # a sweep-only flag
    ["run", "--workers", "0"],
])
def test_usage_errors_are_configuration_errors(tmp_path, monkeypatch, capsys,
                                               argv):
    # argparse would exit 2, the code of a runtime failure, by SystemExit
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"],
                                  ["sweep", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kdqflux")


def test_config_error_exit_code():
    assert main(["run", "--set", "beta=-1", "--quiet"]) == 1
    assert main(["run", "--set", "kind=detuning_sweep", "--quiet"]) == 1
    assert main(["sweep", "--quiet"]) == 1     # default kind is single_run
    assert main(["sweep", "--set", "kind=detuning_sweep", "--workers", "0",
                 "--quiet"]) == 1


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_file_is_a_configuration_error(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"n_max = 5  # \xff\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: invalid value for key 'config'")
    assert "Traceback" not in err
    assert not out.exists()


def test_output_dir_precedence(tmp_path, monkeypatch):
    # --out wins over the output_dir key (from --set, which wins over the
    # file), which wins over ./out; the KDQFLUX_OUTPUT_DIR variable of
    # earlier versions moves nothing
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("KDQFLUX_OUTPUT_DIR", str(tmp_path / "env"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output_dir = {tmp_path / 'file'}\n", encoding="utf-8")

    def written_to(*args):
        before = set(tmp_path.glob("*/collisions.csv"))
        assert main(["run", "--set", "n_max=2", "--quiet", *args]) == 0
        (new,) = set(tmp_path.glob("*/collisions.csv")) - before
        return new.parent.name

    key = ("--config", str(cfg), "--set", f"output_dir={tmp_path / 'key'}")
    assert written_to() == "out"
    assert written_to("--config", str(cfg)) == "file"
    assert written_to(*key) == "key"
    assert written_to(*key, "--out", str(tmp_path / "flag")) == "flag"
    assert not (tmp_path / "env").exists()


def test_consecutive_main_calls_parse_independently(monkeypatch):
    # the parser is built once per process; each call still gets only its
    # own --set values on top of the defaults
    specs = []
    monkeypatch.setattr(cli, "run_single",
                        lambda spec, quiet: specs.append(spec) or 0)
    assert main(["run", "--set", "n_max=3", "--set", "beta=2", "--quiet"]) == 0
    assert main(["run", "--set", "n_max=5", "--quiet"]) == 0
    assert main(["run", "--quiet"]) == 0
    assert [s.base.n_max for s in specs] == [3, 5, 1000]
    assert [s.base.thermal.beta for s in specs] == [2.0, 1.0, 1.0]


def test_importing_the_cli_loads_no_process_pool():
    # only a sweep with more than one worker imports the pool modules
    code = ("import sys, kdqflux.cli; print([m for m in ('multiprocessing', "
            "'concurrent.futures') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


# ------------------------------------------------------------ sweep command

def test_sweep_rows_cover_grid(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--set", "kind=detuning_sweep",
                 "--set", "grid_points=3", "--set", "grid_min=-0.1",
                 "--set", "grid_max=0.1", "--set", "n_max=30",
                 "--out", str(out), "--quiet"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == SWEEP_HEADER
    assert len(rows) == 4
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["failures"] == 0
    assert len(payload["points"]) == 3
    assert all(p["error"] is None for p in payload["points"])


def test_sweep_zero_detuning_point_matches_single_run(tmp_path):
    out = tmp_path / "consistency"
    assert main(["sweep", "--set", "kind=detuning_sweep",
                 "--set", "grid_points=3", "--set", "grid_min=-0.1",
                 "--set", "grid_max=0.1", "--set", "n_max=40",
                 "--out", str(out), "--quiet"]) == 0
    assert main(["run", "--set", "n_max=40", "--out", str(out / "single"),
                 "--quiet"]) == 0
    sweep = json.loads((out / "sweep.json").read_text())
    single = json.loads((out / "single" / "summary.json").read_text())
    middle = sweep["points"][1]
    assert middle["grid_value"] == 0.0
    assert middle["i_rhp"] == single["i_rhp"]
    assert middle["i_lfs"] == single["i_lfs"]
    assert middle["sum_nq"] == single["sum_nq"]


def test_sweep_failures_marked_and_exit_3(tmp_path):
    # a full S-M swap is singular at step 2 exactly at resonance, so the
    # middle grid point fails while the detuned ones succeed
    out = tmp_path / "failing"
    code = main(["sweep", "--set", "kind=detuning_sweep",
                 "--set", f"tau1={SWAP_TAU}", "--set", "grid_points=3",
                 "--set", "grid_min=-0.1", "--set", "grid_max=0.1",
                 "--set", "n_max=4", "--out", str(out), "--quiet"])
    assert code == 3
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 4
    assert "SingularMapError" in rows[2]
    assert "SingularMapError" not in rows[1] and "SingularMapError" not in rows[3]
    assert all(len(row.split(",")) == 5 for row in rows[1:])   # no stray commas
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["failures"] == 1
    assert payload["points"][1]["error"] is not None


def test_sweep_worker_pool_path(tmp_path, monkeypatch):
    # one point per chunk: two chunks, so the pool runs
    monkeypatch.setattr(cli, "SWEEP_CHUNK_BYTES", 5 * 11 * 4 * 16)
    out = tmp_path / "pool"
    code = main(["sweep", "--set", "kind=anisotropy_sweep",
                 "--set", "grid_points=2", "--set", "grid_min=-0.5",
                 "--set", "grid_max=0.5", "--set", "n_max=10",
                 "--workers", "2", "--out", str(out), "--quiet"])
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert [p["grid_value"] for p in payload["points"]] == [-0.5, 0.5]


def test_one_chunk_sweep_runs_without_a_pool(tmp_path, monkeypatch):
    # three points fit one chunk: with two workers it runs in this process
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk sweep started a process pool")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    spec = load_config(None, {"kind": "detuning_sweep", "n_max": 20,
                              "grid_points": 3})
    points = cli.sweep_points(spec, workers=2)
    assert [p["error"] for p in points] == [None] * 3
    assert points == cli.sweep_points(spec)


def test_sweep_point_that_cannot_be_built_fails_alone(tmp_path):
    # a grid built past load_config's checks: omega_s = 1 - 1.5 < 0 at the
    # first point, so its configuration is rejected before the evolution
    spec = dataclasses.replace(
        load_config(None, {"kind": "detuning_sweep", "n_max": 20}),
        grid=np.array([-1.5, 0.0, 0.1]), output_dir=tmp_path / "unbuildable")
    assert run_sweep(spec, quiet=True) == 3
    points = json.loads((spec.output_dir / "sweep.json").read_text())["points"]
    assert points[0]["error"].startswith("ValueError: omega_s=")
    assert [p["error"] for p in points[1:]] == [None, None]
    single = analyze(sweep_point_config(spec, 0.1)).summary
    assert points[2]["i_lfs"] == single.i_lfs
    assert points[2]["sum_nq"] == single.sum_nq


def test_sweep_point_whose_propagators_fail_fails_alone(tmp_path, monkeypatch):
    build = model.collision_unitaries

    def failing_at_0_05(spins, couplings):
        if spins.omega_s == 1.05:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return build(spins, couplings)

    monkeypatch.setattr(model, "collision_unitaries", failing_at_0_05)
    spec = dataclasses.replace(
        load_config(None, {"kind": "detuning_sweep", "n_max": 20,
                           "grid_points": 5, "grid_min": -0.1,
                           "grid_max": 0.1}),
        output_dir=tmp_path / "failing")
    points = cli.sweep_points(spec)
    assert points[3]["error"] == "LinAlgError: Eigenvalues did not converge"
    for point in points[:3] + points[4:]:
        assert point["error"] is None
        single = analyze(sweep_point_config(spec, point["grid_value"])).summary
        assert [point[k] for k in ("i_rhp", "i_lfs", "sum_nq")] == [
            single.i_rhp, single.i_lfs, single.sum_nq]


@pytest.mark.parametrize("kind, overrides", [
    # a full S-M swap is singular at resonance ...
    ("detuning_sweep", ["grid_min=-0.1", "grid_max=0.1", f"tau1={SWAP_TAU}"]),
    # ... and, at half the flip-flop strength, for |gamma| < 1
    ("anisotropy_sweep", [f"tau1={np.pi / (2 * 0.1)}"]),
])
def test_sweep_files_identical_for_any_worker_count(tmp_path, monkeypatch, kind,
                                                    overrides):
    args = ["sweep", "--set", f"kind={kind}", "--set", "grid_points=5",
            "--set", "n_max=6"]
    for item in overrides:
        args += ["--set", item]
    outputs = {"one_chunk": tmp_path / "one_chunk"}
    assert main(args + ["--out", str(outputs["one_chunk"]), "--quiet"]) == 3
    # two points per chunk: three chunks for one or two workers
    monkeypatch.setattr(cli, "SWEEP_CHUNK_BYTES", 2 * 5 * 7 * 4 * 16)
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        assert main(args + ["--workers", workers, "--out", str(out),
                            "--quiet"]) == 3
        outputs[workers] = out
    payload = json.loads((outputs["one_chunk"] / "sweep.json").read_text())
    errors = [p["error"] for p in payload["points"]]
    assert 1 <= sum(e is not None for e in errors) < len(errors)
    for name in ("sweep.csv", "sweep.json"):
        want = (outputs["one_chunk"] / name).read_bytes()
        assert (outputs["1"] / name).read_bytes() == want
        assert (outputs["2"] / name).read_bytes() == want


def test_anisotropy_sweep_rejects_out_of_range_grid():
    assert main(["sweep", "--set", "kind=anisotropy_sweep",
                 "--set", "grid_min=-2", "--quiet"]) == 1


def test_experiment_spec_is_frozen(tmp_path):
    spec = load_config(None, {"n_max": 3})
    assert isinstance(spec, ExperimentSpec)
    with pytest.raises(Exception):
        spec.kind = "other"


def test_run_rejects_non_positive_system_frequency(tmp_path):
    out = tmp_path / "zero"
    assert main(["run", "--set", "omega_s=0", "--out", str(out), "--quiet"]) == 1
    assert not out.exists()


def test_detuning_sweep_rejects_grid_reaching_zero_frequency(tmp_path):
    # omega_m + grid_min = -0.3: rejected before any grid point runs
    out = tmp_path / "degenerate"
    assert main(["sweep", "--set", "kind=detuning_sweep",
                 "--set", "omega_m=0.2", "--set", "grid_points=3",
                 "--set", "n_max=4", "--out", str(out), "--quiet"]) == 1
    assert not out.exists()
    with pytest.raises(InvalidValueError):
        load_config(None, {"kind": "detuning_sweep", "omega_m": 0.5,
                           "grid_min": -0.5})
    spec = load_config(None, {"kind": "detuning_sweep", "omega_m": 0.5,
                              "grid_min": -0.4})
    assert spec.base.spins.omega_m + spec.grid.min() > 0


def test_run_drift_flushes_partial_output_and_exits_2(tmp_path, monkeypatch):
    spec = load_config(None, {"n_max": 200})
    spec = dataclasses.replace(spec, output_dir=tmp_path / "drift")
    inject_trace_drift(monkeypatch, [(spec.base, 150)])
    assert run_single(spec, quiet=True) == 2
    summary = json.loads((spec.output_dir / "summary.json").read_text())
    step = summary["error"]["step"]
    assert step == 150
    assert "invariants violated" in summary["error"]["message"]
    rows = (spec.output_dir / "collisions.csv").read_text().splitlines()
    assert rows[0] == COLLISION_HEADER
    assert len(rows) - 1 == step - 1
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(1, step))


# ------------------------------------------------------------ documentation

README = Path(__file__).parents[1] / "README.md"


def _command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Command line\n")
    return text[start:text.index("\n## ", start + 1)]


def test_readme_key_list_is_the_configuration_keys():
    (keys,) = re.findall(r"Keys: `([^`]*)`", _command_line_section())
    assert keys.split() == list(cli._KEYS)


def test_readme_command_line_flags_are_accepted():
    section = _command_line_section()
    parser = cli._build_parser()
    examples = [shlex.split(line, comments=True)
                for line in section.splitlines() if line.startswith("kdqflux ")]
    assert {argv[1] for argv in examples} == {"run", "sweep"}
    for argv in examples:
        parser.parse_args(argv[1:])     # a flag it does not know raises
    (subparsers,) = parser._subparsers._group_actions
    options = {option for sub in subparsers.choices.values()
               for option in sub._option_string_actions}
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) <= options
