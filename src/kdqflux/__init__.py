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
                    collision_unitaries, thermal_state)
from .tomography import (PROBES, SingularMapError, phase_covariant_maps,
                         time_local_family)
from .witnesses import WitnessRecord, lfs_series

__version__ = "0.1.0"
