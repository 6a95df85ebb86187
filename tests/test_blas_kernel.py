"""Tests whose checks once held only for one BLAS kernel's rounding, run
again under another kernel.

Numpy's OpenBLAS wheels are built with ``DYNAMIC_ARCH``: they pick a kernel
for the host when they load, or the one ``OPENBLAS_CORETYPE`` names, and
with ``OPENBLAS_VERBOSE=2`` they print it as ``Core: <name>``. The kernels
round the collision loop's matrix products differently, so the first four
tests failed under ``Sandybridge`` (AVX) or ``Haswell`` (AVX2) while they
passed on an AVX-512 host, until each compared like with like, allowed the
measured rounding or drifted by an injected defect. The subprocess runs them
and the other drift tests under ``Sandybridge``, whatever the host picks,
and the printed kernel shows that the switch took.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
KERNEL = "Sandybridge"
KERNEL_SENSITIVE = (
    "tests/test_tomography.py::test_reconstruct_unevolved_probes_gives_identity",
    "tests/test_engine.py::test_evolve_grid_drifting_point_fails_alone",
    "tests/test_analysis.py::test_record_invariants",
    "tests/test_cli.py::test_run_rows_satisfy_witness_invariants",
    "tests/test_engine.py::test_single_run_drift_is_found_across_its_longer_blocks[0-150]",
    "tests/test_engine.py::test_single_run_drift_is_found_across_its_longer_blocks[1-256]",
    "tests/test_engine.py::test_ring_of_one_or_two_slots_gives_the_same_results[1]",
    "tests/test_engine.py::test_ring_of_one_or_two_slots_gives_the_same_results[2]",
    "tests/test_batched_pipeline.py::test_invariant_drift_truncates_with_partial_result",
    "tests/test_batched_pipeline.py::test_drifting_grid_point_fails_at_its_own_step",
    "tests/test_cli.py::test_run_drift_flushes_partial_output_and_exits_2",
)


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that reads OPENBLAS_CORETYPE."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # numpy < 1.25, or no BLAS entry
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                           "OPENBLAS_CORETYPE cannot choose its kernel")
def test_kernel_sensitive_tests_pass_under_another_kernel():
    env = {**os.environ, "OPENBLAS_CORETYPE": KERNEL, "OPENBLAS_VERBOSE": "2"}
    # -s: OpenBLAS prints its kernel while numpy loads, during collection,
    # which pytest's capture would swallow
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-s", "-p", "no:cacheprovider", "-q",
         *KERNEL_SENSITIVE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert f"Core: {KERNEL}" in out, out
    assert proc.returncode == 0, out
    assert f"{len(KERNEL_SENSITIVE)} passed" in proc.stdout, out
