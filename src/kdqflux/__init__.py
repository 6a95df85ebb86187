"""Memory-mediated qubit collision model with energy-change quasiprobability
witnesses of non-Markovian dynamics.

The package simulates a system qubit coupled to a stream of thermal
environment qubits through a memory qubit, reconstructs the reduced dynamics
by process tomography, and evaluates per collision: the Kirkwood-Dirac
energy-change distribution and its non-positivity, complete-positivity
margins and the RHP increment of the single-step maps, mutual-information
increments of a correlated reference (LFS), and the average energy change.
"""

from .analysis import RunResult, RunSummary, analyze
from .engine import RunConfig, evolve_grid
from .model import (CouplingParams, SpinParams, ThermalSpec,
                    anisotropic_sm_interaction, collision_unitaries,
                    heisenberg_interaction, local_hamiltonian,
                    maximally_entangled_state, probe_states, thermal_state)
from .tomography import (SingularMapError, bloch_vector, density_from_bloch,
                         phase_covariant_maps, time_local_family)
from .witnesses import WitnessRecord, lfs_series, qmi

__version__ = "0.1.0"
