"""Causality-derived capacity bounds for bucket-brigade quantum RAM.

Three layers of verification around the closed-form bounds:

* exact harmonic-lattice light cones against the commutator-growth bound,
* gate-level realization of the router primitives and their time scales,
* a functional bucket-brigade simulator with clock-cycle accounting.
"""
from .params import (Conventions, HardwareParams, ParamsError, density,
                     load_config, tau0)
from .bounds import (BoundError, BoundResult, FixedPointError, capacity,
                     coarse_grain, fixed_point_solve, naive_max_qubits,
                     qft_velocity, qram_max_qubits)
from .lattice import (LatticeError, LatticeSpec, LightConeScan, axis_signal,
                      coupling_matrix, dispersion, lr_speed, max_group_velocity,
                      measure_light_cone, omega_squared)
from .gates import (GateError, bs_unitary, cswap_composite, cswap_duration,
                    cz_unitary, swap_unitary, t_beamsplitter, t_cphase, t_swap)
from .qram import (ClassicalDatabase, QramError, RetrievalReport, Schedule,
                   random_database, read_database, schedule_initialization,
                   schedule_query, total_time, verify_retrieval)

__version__ = "0.1.0"
