"""Every demo runs to the end on the current API, at small sizes."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# command-line sizes: collision counts (and grid points for the detuning
# sweep); the reference run needs its first window, which opens at n = 40
ARGS = {"02_reference_run": ["50"], "03_witness_overlap": ["50"],
        "04_detuning_sweep": ["3", "20"], "05_anisotropy_sweep": ["20"]}


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)     # demos write under demo_out/
    monkeypatch.setattr(sys, "argv", [name, *ARGS.get(name, [])])
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_reference_run_demo_before_the_first_window(tmp_path, monkeypatch,
                                                    capsys):
    # at 10 collisions N_q never turns positive: the demo says so and skips
    # the window table
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["02_reference_run", "10"])
    runpy.run_path(str(DEMOS / "02_reference_run.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "N_q never turned positive in 10 collisions" in out
    assert "<dE>/omega" not in out
