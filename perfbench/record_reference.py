"""Record the reference outputs the correctness check compares against.

    python3 perfbench/record_reference.py

Runs the first ops of the default seed (0) of every workload against
``src/`` and writes ``perfbench/reference/<workload>.npz``. For
``reference_run`` and ``detuning_sweep`` that is more ops than a 30-second
run of seed 0 reaches (at most 90 and 23 were measured); for
``random_short_runs`` it is the first 500 of its 1000 to 1400 ops, since all
of them would take about 10 MB. Record it again only on purpose: the point
of the file is that later code must reproduce it.
"""

import sys

from checks import (REFERENCE_DIR, check, load_reference, reference_path,
                    save_reference)
from run import OUT_DIR, execute, import_program
from workloads import WORKLOADS

RECORDED_OPS = {"reference_run": 100, "detuning_sweep": 40,
                "random_short_runs": 500}


def main() -> int:
    kdqflux = import_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        workload = cls(kdqflux, OUT_DIR / "record")
        entries = {}
        for index in range(RECORDED_OPS[name]):
            op = workload.op(0, index)
            _, reason, outcome = execute(workload, op, {})
            if reason is not None:
                raise SystemExit(f"{name} op {index} failed: {reason}")
            entries[op.key] = outcome
        save_reference(reference_path(name), entries)
        loaded = load_reference(reference_path(name))
        for index, outcome in enumerate(entries.values()):
            reason = check(workload.op(0, index), outcome, loaded)
            if reason is not None:
                raise SystemExit(f"{name} op {index} rejects its own record: {reason}")
        print(f"{name}: {len(entries)} ops -> {reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
