"""Correctness check of every op, and the recorded reference it compares to.

Every op, for any seed, must have the expected row count, only finite
values and no implication violation (N_q > 0 without a negative Choi
eigenvalue). An op whose input was recorded in the reference file of its
workload must also reproduce it: window indices and violations exactly, every
row value and I_RHP, I_LFS, sum N_q within ``TOL`` (relative for magnitudes
above 1). The exact reference configuration must give its first N_q > 0 at
collision 40.
"""

import json
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from workloads import Outcome

TOL = 1e-12
REFERENCE_FIRST_NQ = 40
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npz"


def save_reference(path: Path, entries: dict) -> None:
    """Write ``{op key: Outcome}`` as one compressed npz file."""
    arrays = {"keys": np.array(json.dumps(list(entries)))}
    for i, out in enumerate(entries.values()):
        arrays[f"rows{i}"] = out.rows
        arrays[f"sums{i}"] = out.sums
        arrays[f"ints{i}"] = np.array([*out.windows, out.violations], dtype=np.int64)
    np.savez_compressed(path, **arrays)


class Reference(Mapping):
    """``{op key: Outcome}`` read from a file written by :func:`save_reference`.

    Each outcome is read from the file when it is looked up, so the recorded
    runs do not sit in memory and do not count in the workload's peak RSS.
    """

    def __init__(self, path: Path):
        self._data = np.load(path)
        self._index = {key: i for i, key in
                       enumerate(json.loads(str(self._data["keys"])))}

    def __getitem__(self, key) -> Outcome:
        i = self._index[key]
        ints = self._data[f"ints{i}"]
        return Outcome(rows=self._data[f"rows{i}"], sums=self._data[f"sums{i}"],
                       windows=tuple(int(x) for x in ints[:-1]),
                       violations=int(ints[-1]))

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def load_reference(path: Path) -> Mapping:
    """The recorded reference of one workload; an absent file is empty."""
    return Reference(path) if path.exists() else {}


def _far(value: np.ndarray, ref: np.ndarray) -> bool:
    return bool(np.any(np.abs(value - ref) > TOL * np.maximum(1.0, np.abs(ref))))


def check(op, out: Outcome, reference: dict) -> str | None:
    """Return why ``out`` is wrong for ``op``, or None when it is accepted."""
    if out.rows.shape[0] != op.rows:
        return f"{out.rows.shape[0]} rows, expected {op.rows}"
    if not (np.all(np.isfinite(out.rows)) and np.all(np.isfinite(out.sums))):
        return "non-finite value"
    if out.violations != 0:
        return f"{out.violations} implication violations"
    if op.is_reference_config and out.windows[0] != REFERENCE_FIRST_NQ:
        return (f"first N_q > 0 at {out.windows[0]}, "
                f"expected {REFERENCE_FIRST_NQ}")
    ref = reference.get(op.key)
    if ref is None:
        return None
    if out.windows != ref.windows:
        return f"windows {out.windows} differ from reference {ref.windows}"
    if out.rows.shape != ref.rows.shape or _far(out.rows, ref.rows):
        return "rows differ from reference"
    if out.sums.shape != ref.sums.shape or _far(out.sums, ref.sums):
        return "I_RHP / I_LFS / sum N_q differ from reference"
    return None
