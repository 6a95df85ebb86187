"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs at tiny size in both modes and must print every metric of
``BENCHMARK.json`` with its unit; the correctness check must reject a
perturbed output; without ``src/`` the benchmark must fail without a result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import check, load_reference, reference_path  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])


def _reference_case(workload: str):
    cls = WORKLOADS[workload]
    op = cls(None, Path("unused")).op(0, 0)
    ref = load_reference(reference_path(workload))[op.key]
    return op, ref


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_accepts_itself(workload):
    op, ref = _reference_case(workload)
    assert check(op, ref, {op.key: ref}) is None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_perturbed_rows_rejected(workload):
    op, ref = _reference_case(workload)
    rows = ref.rows.copy()
    rows[rows.shape[0] // 2, -1] += 1e-9
    bad = dataclasses.replace(ref, rows=rows)
    assert check(op, bad, {op.key: ref}) == "rows differ from reference"


def test_perturbed_sums_windows_and_violations_rejected():
    op, ref = _reference_case("reference_run")
    reference = {op.key: ref}
    sums = ref.sums.copy()
    sums[0] *= 1 + 1e-9
    assert check(op, dataclasses.replace(ref, sums=sums), reference) is not None
    shifted = (ref.windows[0] + 1,) + ref.windows[1:]
    assert check(op, dataclasses.replace(ref, windows=shifted), reference) is not None
    assert check(op, dataclasses.replace(ref, violations=1), {}) is not None
    assert check(op, dataclasses.replace(ref, rows=ref.rows[:-1]), {}) is not None
    rows = ref.rows.copy()
    rows[0, 1] = np.nan
    assert check(op, dataclasses.replace(ref, rows=rows), {}) is not None


def test_exact_reference_config_needs_first_nq_at_40():
    op, ref = _reference_case("reference_run")
    assert op.is_reference_config and ref.windows[0] == 40
    moved = dataclasses.replace(ref, windows=(41,) + ref.windows[1:])
    assert check(op, moved, {}) is not None


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "random_short_runs", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
