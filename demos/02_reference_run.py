"""The reference run: a cooling process that turns non-Markovian.

The system starts in the completely mixed state I/2 while memory and
environment qubits sit in the thermal state at beta = 1; all frequencies are
resonant (omega = 1) and the couplings weak (g = 0.2, tau1 = tau2 = 0.2).
The system cools toward the thermal populations, but around collision 40 the
correlations stored in the memory feed back: the energy-change distribution
develops negative quasiprobabilities (N_q > 0), the single-step maps lose
complete positivity (g_n > 0), and the average energy flux reverses sign.

The run writes the same collisions.csv/summary.json files the command line
interface produces, then prints the first witness window.
"""

import sys
from pathlib import Path

import numpy as np

from kdqflux.cli import load_config, run_single

N_MAX = int(sys.argv[1]) if len(sys.argv) > 1 else 300
out_dir = Path("demo_out/reference_run")

spec = load_config(None, {"n_max": N_MAX, "output_dir": str(out_dir)})
code = run_single(spec, quiet=True)
assert code == 0

rows = (out_dir / "collisions.csv").read_text().splitlines()
header = rows[0].split(",")
data = np.array([[float(x) for x in row.split(",")]
                 for row in rows[1:]]).reshape(-1, len(header))
col = {name: i for i, name in enumerate(header)}

n = data[:, col["n"]].astype(int)
nq = data[:, col["N_q"]]

positive = n[nq > 1e-10]
print(f"analyzed {N_MAX} collisions -> {out_dir}/collisions.csv")
if positive.size == 0:
    print(f"N_q never turned positive in {N_MAX} collisions "
          "(the first window opens at n = 40)")
else:
    print(f"N_q > 0 at {positive.size} collisions, first at n = {positive[0]}")

    print("\n  n    p1       a        b        N_q        g_n        <dE>/omega")
    window = (n >= positive[0] - 3) & (n <= positive[0] + 6)
    for row in data[window]:
        print("%4d  %.4f  %+.4f  %+.4f  %.3e  %.3e  %+.3e" % (
            row[col["n"]], row[col["p1"]], row[col["a"]], row[col["b"]],
            row[col["N_q"]], row[col["g_n"]], row[col["avg_dE_over_omega"]]))

    print("\nnote how the map entry a leaves [0, 1] exactly where N_q turns on,")
    print("and the normalized energy flux flips sign inside the same window.")
