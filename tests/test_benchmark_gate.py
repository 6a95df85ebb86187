"""The benchmark's correctness gate, run in-process on a sample of its ops.

``perfbench/run.py`` rejects every op whose output leaves the outputs
recorded in ``perfbench/reference/*.npz`` by more than ``checks.TOL``. This
test runs seed 0's recorded ops through the same workload code and check:
all 40 sweeps, all 500 short runs and every 10th of the 100 reference runs,
so a change that moves the recorded rounding fails here, not only in a
benchmark run. A sample of every 8th sweep missed a change that failed
sweeps 10 and 13 alone. It reads the reference files and writes only
to a temporary directory. Re-recording the reference, or changing the
gate, calls for a look at this test too.
"""

import sys
from pathlib import Path

import pytest

import kdqflux
import kdqflux.cli  # noqa: F401  (the run and sweep workloads call kdqflux.cli)

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

from checks import check, load_reference, reference_path  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
# every 10th recorded reference run, every sweep, every short run
OPS = {"reference_run": range(0, 100, 10), "detuning_sweep": range(40),
       "random_short_runs": range(500)}


@pytest.mark.parametrize("name", sorted(OPS))
def test_first_ops_pass_the_recorded_gate(name, tmp_path):
    workload = WORKLOADS[name](kdqflux, tmp_path)
    reference = load_reference(reference_path(name))
    for index in OPS[name]:
        op = workload.op(SEED, index)
        assert op.key in reference, f"op {index} was not recorded"
        prepared = workload.prepare(op)
        outcome = workload.read(prepared, workload.run(prepared))
        assert check(op, outcome, reference) is None, f"op {index}"
