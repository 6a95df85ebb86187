"""Switching the memory off: the Markovian limit.

When the memory-environment collision implements a perfect swap
(g_MA tau2 = pi/2), the memory state is completely replaced by a fresh
thermal qubit after every step, so no correlations survive between
collisions. The reduced dynamics becomes CP-divisible: every witness stays
at zero and the time-local map is the same at every step.
"""

import numpy as np

from kdqflux import RunConfig, analyze
from kdqflux.model import CouplingParams

config = RunConfig(couplings=CouplingParams(tau2=np.pi / (2 * 0.2)), n_max=150)
result = analyze(config)

print("memory fully refreshed each collision (g_MA tau2 = pi/2):")
print(f"  max N_q  = {result.record_array('n_q').max():.2e}")
print(f"  max g_n  = {result.record_array('g_n').max():.2e}")
print(f"  max dI   = {result.record_array('delta_i').max():.2e}")
print(f"  I_RHP    = {result.summary.i_rhp:.2e}")
print(f"  I_LFS    = {result.summary.i_lfs:.2e}")

# the single-step map settles immediately: compare its four numbers
# (a, b, c, d) at a few collisions
from kdqflux.tomography import time_local_family  # noqa: E402

steps, _ = time_local_family(result.family)    # member n - 1 is step n
np.set_printoptions(precision=6, suppress=True)
print(f"  step map (a, b, c, d) at collision 2: {steps[1]}")
print(f"  step-map drift between collisions 2 and 9: "
      f"{np.max(np.abs(steps[1] - steps[8])):.2e}")

print("\nthe same configuration with a partial swap instead (tau2 = 0.2)")
partial = analyze(RunConfig(n_max=150))
print(f"  max N_q  = {partial.record_array('n_q').max():.2e}   "
      f"(non-Markovian window opens at n = {partial.summary.first_nq_positive})")
