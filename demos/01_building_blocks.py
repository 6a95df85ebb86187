"""Building blocks of the collision model.

A system qubit S exchanges energy with a memory qubit M, which in turn
collides with a fresh thermal environment qubit A each time step. This demo
assembles the ingredients one by one: local Hamiltonians, the Heisenberg
exchange interaction, thermal states, the two collision propagators, and the
probe states used later for process tomography.
"""

import numpy as np

from kdqflux import (CouplingParams, SpinParams, ThermalSpec,
                     collision_unitaries, heisenberg_interaction,
                     local_hamiltonian, maximally_entangled_state,
                     probe_states, qmi, thermal_state)
from kdqflux.model import IDENTITY_2, SIGMA_Z
from kdqflux.tomography import bloch_vector

np.set_printoptions(precision=4, suppress=True, linewidth=100)

print("=== local Hamiltonian (omega = 1) ===")
print(local_hamiltonian(1.0).real)

print("\n=== Heisenberg exchange, g = 0.2 ===")
h_sm = heisenberg_interaction(0.2)
print(h_sm.real)
mag = np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)
print("commutes with total z-magnetization:",
      np.max(np.abs(h_sm @ mag - mag @ h_sm)) < 1e-14)

print("\n=== thermal qubit at beta = 1, omega = 1 ===")
rho_th = thermal_state(ThermalSpec(beta=1.0), 1.0)
print(rho_th.real)
print("Bloch vector:", bloch_vector(rho_th), " (z = -tanh(1/2) = %.4f)" % -np.tanh(0.5))
print("positive semidefinite:", np.linalg.eigvalsh(rho_th).min() >= 0.0)

print("\n=== collision propagators (resonant reference parameters) ===")
u_sm, u_ma = collision_unitaries(SpinParams(), CouplingParams())
for name, u in (("U_SM", u_sm), ("U_MA", u_ma)):
    dev = np.max(np.abs(u.conj().T @ u - np.eye(8)))
    print(f"{name}: 8x8, unitarity deviation {dev:.2e}")

print("\n=== a perfect swap: g tau = pi/2 ===")
swap_couplings = CouplingParams(tau1=np.pi / (2 * 0.2))
u_swap, _ = collision_unitaries(SpinParams(), swap_couplings)
psi_01 = np.zeros(8)
psi_01[1 * 2] = 1.0          # |0>_S |1>_M |0>_A
out = u_swap @ psi_01
print("U_SM |01;0> overlaps |10;0| with probability %.6f"
      % abs(out[4]) ** 2)

print("\n=== tomography probes ===")
for label, p in zip(("P0", "P1", "P+", "PR"), probe_states()):
    print(f"{label}: bloch {bloch_vector(p)}")

print("\n=== maximally entangled reference pair ===")
bell = maximally_entangled_state()
print("purity %.3f, mutual information %.3f bits"
      % (np.trace(bell @ bell).real, qmi(bell)))
