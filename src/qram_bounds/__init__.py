"""Causality-derived capacity bounds for bucket-brigade quantum RAM.

Three layers of verification around the closed-form bounds:

* exact harmonic-lattice light cones against the commutator-growth bound,
* gate-level realization of the router primitives and their time scales,
* a functional bucket-brigade simulator with clock-cycle accounting.
"""
from .params import (Conventions, HardwareParams, ParamsError, density,
                     load_config, tau0)
from .bounds import (BoundError, BoundResult, FixedPointError, Speed, capacity,
                     coarse_grain, fixed_point_solve, lr_velocity,
                     naive_max_qubits, qft_velocity, qram_max_qubits,
                     teleport_hybrid_max_qubits)
from .lattice import (LatticeError, LatticeSpec, LightConeScan, LRBoundParams,
                      SymplecticPropagator, WeylFunction, axis_signal,
                      c_omega_lambda, coupling_matrix, dispersion, longwave_speed,
                      lr_bound_envelope, lr_bound_velocity, max_group_velocity,
                      measure_light_cone, normal_modes, omega_squared,
                      propagate_ode, symplectic_form, weyl_commutator_norm)
from .gates import (GateError, GaugeResult, bs_unitary, cswap_composite,
                    cswap_duration, cswap_exact, cz_unitary, gauge_equivalent,
                    swap_unitary, t_beamsplitter, t_cphase, t_swap)
from .qram import (ClassicalDatabase, QramError, QueryResult, RetrievalReport,
                   Schedule, classical_trace_read, random_database,
                   read_database, schedule_initialization, schedule_query,
                   simulate_query, total_time, verify_retrieval)

__version__ = "0.1.0"
