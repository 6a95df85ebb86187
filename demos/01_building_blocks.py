"""Building blocks of the collision model.

A system qubit S exchanges energy with a memory qubit M, which in turn
collides with a fresh thermal environment qubit A each time step. This demo
assembles the ingredients one by one: local Hamiltonians and the Heisenberg
exchange interaction (with numpy, from the Pauli matrices), thermal states,
the two collision propagators, the probe states used for process tomography
(``PROBES``), the four numbers (a, b, c, d) that tomography reads off the
evolved probes for every map of the model, the Choi spectrum that the
witnesses take from them, and the entangled reference pair whose mutual
information builds the LFS measure.
"""

import numpy as np

from kdqflux import (PROBES, CouplingParams, RunConfig, SpinParams,
                     ThermalSpec, collision_unitaries, lfs_series,
                     phase_covariant_maps, thermal_state)
from kdqflux.analysis import evolve_runs
from kdqflux.model import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from kdqflux.tomography import choi_eigenvalues

np.set_printoptions(precision=4, suppress=True, linewidth=100)


def bloch(rho):
    """Bloch vector (Tr[sigma_x rho], Tr[sigma_y rho], Tr[sigma_z rho])."""
    return np.array([np.trace(p @ rho).real for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def entropy(rho):
    """Von Neumann entropy in bits."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


print("=== local Hamiltonian (omega = 1) ===")
print((1.0 / 2.0 * SIGMA_Z).real)

print("\n=== Heisenberg exchange, g = 0.2 ===")
h_sm = 0.2 / 2.0 * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)
                    + np.kron(SIGMA_Z, SIGMA_Z))
print(h_sm.real)
mag = np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z)
print("commutes with total z-magnetization:",
      np.max(np.abs(h_sm @ mag - mag @ h_sm)) < 1e-14)

print("\n=== thermal qubit at beta = 1, omega = 1 ===")
rho_th = thermal_state(ThermalSpec(beta=1.0), 1.0)
print(rho_th.real)
print("Bloch vector:", bloch(rho_th), " (z = -tanh(1/2) = %.4f)" % -np.tanh(0.5))
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
for label, p in zip(("P0", "P1", "P+", "PR"), PROBES):
    print(f"{label}: bloch {bloch(p)}")

print("\n=== the four numbers of a map ===")
# every Hamiltonian term conserves excitation parity and the memory and
# environment states are diagonal, so every reduced map is phase covariant:
# rho_00 -> a rho_00 + b rho_11 and rho_01 -> c rho_01 + d rho_10
# tomography reads them straight off the four evolved probe states
states, _ = evolve_runs([RunConfig(couplings=swap_couplings, n_max=1)])
swap = phase_covariant_maps(states[1, 0, 1:])
a, b, c, d = swap
print(f"one full swap: a = {a.real:.4f}, b = {b.real:.4f}, "
      f"|c| = {abs(c):.1e}, |d| = {abs(d):.1e}")
print("a = b = excited population of the thermal memory, %.4f: the system "
      "is replaced by the memory" % rho_th[0, 0].real)
print("Choi blocks [[a, c], [c*, 1-b]] and [[1-a, d*], [d, b]]: "
      "CP margins %.4f and %.4f"
      % ((a * (1 - b) - abs(c) ** 2).real, (b * (1 - a) - abs(d) ** 2).real))
print("Choi eigenvalues, block by block:", choi_eigenvalues(swap)[0])

print("\n=== maximally entangled reference pair ===")
psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
bell = np.outer(psi, psi).astype(complex)
marginals = bell.reshape(2, 2, 2, 2)
i_bell = (entropy(np.einsum("iaja->ij", marginals))
          + entropy(np.einsum("aiaj->ij", marginals)) - entropy(bell))
print("purity %.3f, mutual information %.3f bits" % (np.trace(bell @ bell).real, i_bell))
# the pipeline tracks this pair, the reference and the evolving system, along
# the cumulative maps; its QMI increments build the LFS measure
delta_i = lfs_series(phase_covariant_maps(states[:, 0, 1:]))
print("one full swap changes it by %.3f bits (witnesses.lfs_series)" % delta_i[0])
