"""The fault catalogue: named faults, what each moves, and what catches it.

Each row patches one function or constant of the library in process, names
the output that the fault moves, and gives the exit code that
``qram-bounds verify`` returns under it. Every row is run through both
``verify.run_verify`` and ``cli.main(["verify"])``, and its output is shown
to move. The outputs are committed ones, except a bound record near the
root threshold: the solver's closed form, which no committed output reaches,
prints there. A fault that moves no output gets no row: it shows a constant
or a check that nothing printed depends on.

Each row's ``caught_by`` names the Tier-1 tests that fail under it, the ids
of a parametrized test folded into one, and its comment counts the failed
ids. They were measured by one Tier-1 run per row, with the row's patch
entered at interpreter start (a ``sitecustomize`` module) in the pytest
process and in every child process it starts, and this file left out. No
test fails in the same run with no patch entered.
"""
import contextlib
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from qram_bounds import bounds, cli, gates, lattice, params, qram, verify
from test_scripts import load_lightcone_script

ROOT = Path(__file__).resolve().parents[1]
MODULES = (params, bounds, lattice, gates, qram, verify, cli)
EXIT_OK, EXIT_VERIFY, EXIT_CONFIG = 0, 1, 2

# the CLI runs behind each output a fault can move; "{out}" is a file path
OUTPUTS = {
    "results/cone_1d_nn.csv": [*load_lightcone_script().CASES["cone_1d_nn"],
                               "--out", "{out}"],
    "results/fig3_velocity_sweep.csv": ["sweep", "--preset", "fig3", "--out", "{out}"],
    "bound record": ["bound"],
    # R = v*tau0/a = 2.7182846, 1e-6 above the root threshold e at p = 1
    "near-threshold bound record": ["bound", "--velocity", "0.0027182846",
                                    "--depth-exponent", "1"],
    "qramsim reads": ["qramsim", "--random-db", "--N", "8", "--seed", "3"],
}


@contextlib.contextmanager
def wrapped(owner, name: str, wrap: Callable):
    """``wrap(original)`` in place of ``owner.name``, at every module of the
    package that binds that function (``tau0`` is imported by name)."""
    original = getattr(owner, name)
    with pytest.MonkeyPatch.context() as patch:
        for module in MODULES:
            if getattr(module, name, None) is original:
                patch.setattr(module, name, wrap(original))
        yield


def scaled(owner, name: str, factor: float):
    return lambda: wrapped(owner, name, lambda f: lambda *args: factor * f(*args))


def scaled_weights(factor: float):
    def wrap(weight_rows):
        def faulty(*args):
            rows = weight_rows(*args)
            rows *= factor
            return rows
        return faulty
    return lambda: wrapped(lattice, "_weight_rows", wrap)


def faulty_orbits(fault: Callable):
    """``fault(omega, weight)`` applied to a copy of ``_axis_orbits``' output."""
    def wrap(axis_orbits):
        def faulty(*args):
            omega, tuples, weight, cosines, pairs = axis_orbits(*args)
            omega, weight = omega.copy(), weight.copy()
            fault(omega, weight)
            return omega, tuples, weight, cosines, pairs
        return faulty
    return lambda: wrapped(lattice, "_axis_orbits", wrap)


def scaled_frequencies(omega, weight):
    omega *= 1.0 + 1e-3


def zero_last_weight(omega, weight):
    weight[-1] = 0.0


def tilted_interpolation():
    def wrap(interpolation):
        def faulty(rows, count):
            u, I = interpolation(rows, count)
            return u, I * (1.0 + 1e-4 * np.cos(np.arange(len(I))))[:, None]
        return faulty
    return wrapped(lattice, "_interpolation", wrap)


def scaled_extent():
    def wrap(capacity):
        def faulty(v, tau, a, d, conventions):
            extent = capacity(v, tau, a, d, conventions)[0] * (1.0 + 1e-3)
            return extent, extent ** d
        return faulty
    return wrapped(bounds, "capacity", wrap)


def last_uncompute_dropped():
    def wrap(schedule_query):
        def faulty(n):
            s = schedule_query(n)
            return replace(s, phases=s.phases[:-1], ops=s.ops[:-1],
                           levels=s.levels[:-1], ctrls=s.ctrls[:-1])
        return faulty
    return wrapped(qram, "schedule_query", wrap)


def copy_from_neighbour():
    def wrap(run_cycles):
        def faulty(bits, phase, schedule, tables, stored):
            run_cycles(bits, phase, schedule, tables, np.roll(stored, -1))
        return faulty
    return wrapped(qram, "_run_cycles", wrap)


@dataclass(frozen=True)
class Fault:
    name: str
    patch: Callable[[], contextlib.AbstractContextManager]
    moves: str          # a key of OUTPUTS
    verify_exit: int
    caught_by: tuple[str, ...]   # the Tier-1 tests that fail under the fault


FAULTS = [
    Fault("orbit weights x (1 + 1e-3)", scaled_weights(1.0 + 1e-3),
          "results/cone_1d_nn.csv", EXIT_VERIFY,
          caught_by=(  # 75 failed ids in 15 tests
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestLightconeCommand::test_regenerates_committed_cone_rows",
              "test_cli.py::TestLightconeGolden::test_3d_scan_writes_golden_rows",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_lattice.py::TestAxisSignal::test_bessel_oracle_long_horizon_many_blocks",
              "test_lattice.py::TestAxisSignal::test_bessel_oracle_nearest_neighbor_chain",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn_across_blocks",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn_small_specs",
              "test_lattice.py::TestVerifyLatticeSuite::test_dense_check_calls_and_verdicts",
              "test_lattice_internals.py::TestBlockLoop::test_folded_small_specs_match_per_step_ifftn",
              "test_lattice_internals.py::TestOrbits::test_orbit_weights_take_one_cos_per_entry_bit_for_bit",
              "test_scripts.py::test_script_regenerates_committed_results",
          )),
    Fault("orbit weights x (1 + 1e-2)", scaled_weights(1.0 + 1e-2),
          "results/cone_1d_nn.csv", EXIT_VERIFY,
          caught_by=(  # 75 failed ids in 15 tests
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestLightconeCommand::test_regenerates_committed_cone_rows",
              "test_cli.py::TestLightconeGolden::test_3d_scan_writes_golden_rows",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_lattice.py::TestAxisSignal::test_bessel_oracle_long_horizon_many_blocks",
              "test_lattice.py::TestAxisSignal::test_bessel_oracle_nearest_neighbor_chain",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn_across_blocks",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn_small_specs",
              "test_lattice.py::TestVerifyLatticeSuite::test_dense_check_calls_and_verdicts",
              "test_lattice_internals.py::TestBlockLoop::test_folded_small_specs_match_per_step_ifftn",
              "test_lattice_internals.py::TestOrbits::test_orbit_weights_take_one_cos_per_entry_bit_for_bit",
              "test_scripts.py::test_script_regenerates_committed_results",
          )),
    Fault("orbit frequencies x (1 + 1e-3)", faulty_orbits(scaled_frequencies),
          "results/cone_1d_nn.csv", EXIT_VERIFY,
          caught_by=(  # 68 failed ids in 17 tests
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestLightconeCommand::test_regenerates_committed_cone_rows",
              "test_cli.py::TestLightconeGolden::test_3d_scan_writes_golden_rows",
              "test_cli.py::TestLightconeGolden::test_prints_golden_stdout",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_lattice.py::TestAxisSignal::test_bessel_oracle_long_horizon_many_blocks",
              "test_lattice.py::TestAxisSignal::test_bessel_oracle_nearest_neighbor_chain",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn_across_blocks",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn_small_specs",
              "test_lattice.py::TestVerifyLatticeSuite::test_dense_check_calls_and_verdicts",
              "test_lattice_internals.py::TestBlockLoop::test_folded_small_specs_match_per_step_ifftn",
              "test_scripts.py::test_lightcone_script_velocities_bit_for_bit",
              "test_scripts.py::test_lightcone_script_velocities_independent_of_openblas_kernel",
              "test_scripts.py::test_script_regenerates_committed_results",
          )),
    Fault("interpolation row i x (1 + 1e-4 cos i)", tilted_interpolation,
          "results/cone_1d_nn.csv", EXIT_VERIFY,
          caught_by=(  # 72 failed ids in 20 tests
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestLightconeCommand::test_regenerates_committed_cone_rows",
              "test_cli.py::TestLightconeGolden::test_3d_scan_writes_golden_rows",
              "test_cli.py::TestLightconeGolden::test_prints_golden_stdout",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_lattice.py::TestAxisSignal::test_bessel_oracle_long_horizon_many_blocks",
              "test_lattice.py::TestAxisSignal::test_bessel_oracle_nearest_neighbor_chain",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn_across_blocks",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn_small_specs",
              "test_lattice.py::TestAxisSignal::test_time_grid_is_the_arange_grid",
              "test_lattice.py::TestVerifyLatticeSuite::test_dense_check_calls_and_verdicts",
              "test_lattice_internals.py::TestBlockLoop::test_folded_small_specs_match_per_step_ifftn",
              "test_lattice_internals.py::TestNodes::test_identity_interpolation_returns_the_node_rows",
              "test_lattice_internals.py::TestNodes::test_interpolated_block_meets_the_bound",
              "test_lattice_internals.py::TestNodes::test_interpolation_at_every_block_shape",
              "test_lattice_internals.py::TestNodes::test_node_count_is_bounded_by_the_rows",
              "test_scripts.py::test_script_regenerates_committed_results",
          )),
    Fault("last orbit weight 0", faulty_orbits(zero_last_weight),
          "results/cone_1d_nn.csv", EXIT_VERIFY,
          caught_by=(  # 93 failed ids in 29 tests
              "test_acceptance.py::test_criterion_04_light_cone_vs_commutator_bound",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestEveryFlagChangesWhatRuns::test_each_flag_the_mode_reads_changes_its_output",
              "test_cli.py::TestLightconeCommand::test_out_meta_spells_the_parsed_couplings",
              "test_cli.py::TestLightconeCommand::test_physical_velocity_out_of_float_range_exits_2",
              "test_cli.py::TestLightconeCommand::test_prints_fit_diagnostics",
              "test_cli.py::TestLightconeCommand::test_regenerates_committed_cone_rows",
              "test_cli.py::TestLightconeCommand::test_small_scan_passes_and_writes_csv",
              "test_cli.py::TestLightconeGolden::test_3d_scan_writes_golden_rows",
              "test_cli.py::TestLightconeGolden::test_prints_golden_stdout",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_lattice.py::TestAxisSignal::test_bessel_oracle_long_horizon_many_blocks",
              "test_lattice.py::TestAxisSignal::test_bessel_oracle_nearest_neighbor_chain",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn_across_blocks",
              "test_lattice.py::TestAxisSignal::test_matches_per_step_ifftn_small_specs",
              "test_lattice.py::TestLightCone::test_fit_diagnostics",
              "test_lattice.py::TestLightCone::test_fit_r_min_at_limit_fits_two_distances",
              "test_lattice.py::TestLightCone::test_nearest_neighbor_velocity",
              "test_lattice.py::TestLightCone::test_no_arrival_reported_for_decoupled_lattice",
              "test_lattice.py::TestLightCone::test_rejects_infinite_physical_velocity",
              "test_lattice.py::TestVerifyLatticeSuite::test_dense_check_calls_and_verdicts",
              "test_lattice_internals.py::TestBlockLoop::test_folded_small_specs_match_per_step_ifftn",
              "test_lattice_internals.py::TestOrbits::test_orbit_weights_take_one_cos_per_entry_bit_for_bit",
              "test_scripts.py::test_lightcone_script_velocities_bit_for_bit",
              "test_scripts.py::test_lightcone_script_velocities_independent_of_openblas_kernel",
              "test_scripts.py::test_script_regenerates_committed_results",
          )),
    Fault("capacity extent x (1 + 1e-3)", scaled_extent, "bound record", EXIT_VERIFY,
          caught_by=(  # 35 failed ids in 21 tests
              "test_bounds.py::TestNaiveMaxQubits::test_is_the_capacity_at_p1",
              "test_bounds.py::TestNaiveMaxQubits::test_sound_speed",
              "test_bounds.py::TestQramMaxQubits::test_capacity_refusals_name_their_inputs",
              "test_bounds.py::TestQramMaxQubits::test_explicit_velocity_p0",
              "test_bounds.py::TestQramMaxQubits::test_explicit_velocity_p2",
              "test_bounds.py::TestQramMaxQubits::test_three_dimensions_sqrt_d",
              "test_bounds.py::TestTeleportHybrid::test_light_speed_2d_p0",
              "test_bounds.py::TestTeleportHybrid::test_p2_matches_scan_oracle",
              "test_cli.py::TestBoundCommand::test_explicit_velocity_no_log_factor",
              "test_cli.py::TestBoundCommand::test_headline_table",
              "test_cli.py::TestBoundCommand::test_plain_bound_record_golden",
              "test_cli.py::TestBoundCommand::test_preset_long_wave_sources_give_the_sound_speed",
              "test_cli.py::TestBoundCommand::test_teleport_kind_runs_the_capacity_path_at_c_max",
              "test_cli.py::TestBoundCommand::test_two_range_2d_record_golden",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestSweepAgainstPerCellPath::test_near_threshold_grid_gives_the_per_cell_bytes",
              "test_cli.py::TestSweepAgainstPerCellPath::test_same_csv_or_same_first_refusal",
              "test_cli.py::TestSweepCommand::test_fig3_spot_check_against_api",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
          )),
    Fault("fixed_point_solve x (1 + 1e-3)",
          scaled(bounds, "fixed_point_solve", 1.0 + 1e-3), "bound record", EXIT_VERIFY,
          caught_by=(  # 89 failed ids in 35 tests
              "test_bounds.py::TestFixedPointColumns::test_agrees_with_the_scalar_solve_cut_at_column_steps",
              "test_bounds.py::TestFixedPointSolve::test_closed_form_matches_lambert_w_oracle",
              "test_bounds.py::TestFixedPointSolve::test_converges_just_above_the_root_threshold",
              "test_bounds.py::TestFixedPointSolve::test_iterates_from_the_root_threshold_up",
              "test_bounds.py::TestFixedPointSolve::test_log2_base",
              "test_bounds.py::TestFixedPointSolve::test_matches_scan_from_threshold_to_1e15",
              "test_bounds.py::TestFixedPointSolve::test_naive_scale",
              "test_bounds.py::TestFixedPointSolve::test_p0_returns_ratio",
              "test_bounds.py::TestFixedPointSolve::test_pathological_small_ratio",
              "test_bounds.py::TestFixedPointSolve::test_quadratic_depth",
              "test_bounds.py::TestFixedPointSolve::test_refuses_the_threshold_as_a_tangency",
              "test_bounds.py::TestFixedPointSolve::test_residual_property",
              "test_bounds.py::TestFixedPointSolve::test_root_above_the_tangency_point_found",
              "test_bounds.py::TestFixedPointSolve::test_root_whose_log_power_overflows_matches_lambert_w_oracle",
              "test_bounds.py::TestNaiveMaxQubits::test_sound_speed",
              "test_bounds.py::TestQramMaxQubits::test_capacity_refusals_name_their_inputs",
              "test_bounds.py::TestQramMaxQubits::test_explicit_velocity_p0",
              "test_bounds.py::TestQramMaxQubits::test_explicit_velocity_p2",
              "test_bounds.py::TestQramMaxQubits::test_three_dimensions_sqrt_d",
              "test_bounds.py::TestTeleportHybrid::test_light_speed_2d_p0",
              "test_bounds.py::TestTeleportHybrid::test_p2_matches_scan_oracle",
              "test_cli.py::TestBoundCommand::test_explicit_velocity_no_log_factor",
              "test_cli.py::TestBoundCommand::test_headline_table",
              "test_cli.py::TestBoundCommand::test_plain_bound_record_golden",
              "test_cli.py::TestBoundCommand::test_preset_long_wave_sources_give_the_sound_speed",
              "test_cli.py::TestBoundCommand::test_teleport_kind_runs_the_capacity_path_at_c_max",
              "test_cli.py::TestBoundCommand::test_two_range_2d_record_golden",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestSweepAgainstPerCellPath::test_near_threshold_grid_gives_the_per_cell_bytes",
              "test_cli.py::TestSweepAgainstPerCellPath::test_same_csv_or_same_first_refusal",
              "test_cli.py::TestSweepCommand::test_fig3_spot_check_against_api",
              "test_cli.py::TestSweepCommand::test_overflowing_capacity_exits_2",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
          )),
    Fault("fixed_point_columns x (1 + 1e-3)",
          scaled(bounds, "fixed_point_columns", 1.0 + 1e-3),
          "results/fig3_velocity_sweep.csv", EXIT_VERIFY,
          caught_by=(  # 23 failed ids in 11 tests
              "test_bounds.py::TestFixedPointColumns::test_agrees_with_the_scalar_solve_cut_at_column_steps",
              "test_bounds.py::TestFixedPointSolve::test_refuses_the_threshold_as_a_tangency",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestSweepAgainstPerCellPath::test_near_threshold_grid_gives_the_per_cell_bytes",
              "test_cli.py::TestSweepAgainstPerCellPath::test_same_csv_or_same_first_refusal",
              "test_cli.py::TestSweepCommand::test_fig3_spot_check_against_api",
              "test_cli.py::TestSweepCommand::test_preset_regenerates_committed_csv",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_scripts.py::test_script_regenerates_committed_results",
          )),
    Fault("closed-form root x (1 + 1e-3)",
          scaled(bounds, "_closed_form", 1.0 + 1e-3), "near-threshold bound record",
          EXIT_VERIFY,
          caught_by=(  # 46 failed ids in 11 tests
              "test_bounds.py::TestFixedPointSolve::test_closed_form_matches_lambert_w_oracle",
              "test_bounds.py::TestFixedPointSolve::test_converges_just_above_the_root_threshold",
              "test_bounds.py::TestFixedPointSolve::test_iterates_from_the_root_threshold_up",
              "test_bounds.py::TestFixedPointSolve::test_matches_scan_from_threshold_to_1e15",
              "test_bounds.py::TestFixedPointSolve::test_residual_property",
              "test_bounds.py::TestFixedPointSolve::test_root_above_the_tangency_point_found",
              "test_bounds.py::TestFixedPointSolve::test_root_whose_log_power_overflows_matches_lambert_w_oracle",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
          )),
    Fault("max_group_velocity x 1.01", scaled(lattice, "max_group_velocity", 1.01),
          "results/cone_1d_nn.csv", EXIT_VERIFY,
          caught_by=(  # 83 failed ids in 19 tests
              "test_bounds.py::TestQramMaxQubits::test_velocity_sources_resolve",
              "test_cli.py::TestBoundCommand::test_preset_long_wave_sources_give_the_sound_speed",
              "test_cli.py::TestBoundCommand::test_two_range_2d_record_golden",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestLightconeCommand::test_out_meta_spells_the_parsed_couplings",
              "test_cli.py::TestLightconeCommand::test_regenerates_committed_cone_rows",
              "test_cli.py::TestLightconeGolden::test_prints_golden_stdout",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_lattice.py::TestGroupVelocity::test_closed_form_bounds_the_full_grid",
              "test_lattice.py::TestGroupVelocity::test_longwave_slope_independent_of_d",
              "test_lattice.py::TestGroupVelocity::test_nearest_neighbor_unit",
              "test_lattice.py::TestGroupVelocity::test_no_grid_rounding_above_the_supremum",
              "test_lattice.py::TestGroupVelocity::test_rejects_infinite_physical_velocity",
              "test_lattice.py::TestGroupVelocity::test_two_range_chain_against_numerical_gradient",
              "test_scripts.py::test_lightcone_script_velocities_bit_for_bit",
              "test_scripts.py::test_lightcone_script_velocities_independent_of_openblas_kernel",
              "test_scripts.py::test_script_regenerates_committed_results",
          )),
    Fault("lr_speed x 1.01", scaled(lattice, "lr_speed", 1.01),
          "results/cone_1d_nn.csv", EXIT_VERIFY,
          caught_by=(  # 33 failed ids in 25 tests
              "test_bounds.py::TestLrVelocity::test_1d_unit",
              "test_bounds.py::TestLrVelocity::test_3d_sqrt3",
              "test_bounds.py::TestLrVelocity::test_one_formula_with_the_lattice_bound",
              "test_bounds.py::TestLrVelocity::test_unbounded_velocity_of_vanishing_mass_passes_to_the_cap",
              "test_bounds.py::TestQramMaxQubits::test_velocity_sources_resolve",
              "test_cli.py::TestBoundCommand::test_capacity_below_one_qubit_or_out_of_float_range_exits_2",
              "test_cli.py::TestBoundCommand::test_plain_bound_record_golden",
              "test_cli.py::TestBoundCommand::test_plain_bound_refuses_below_the_root_threshold",
              "test_cli.py::TestBoundCommand::test_two_range_2d_record_golden",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestLightconeCommand::test_out_meta_spells_the_parsed_couplings",
              "test_cli.py::TestLightconeCommand::test_regenerates_committed_cone_rows",
              "test_cli.py::TestLightconeCommand::test_two_range_bound_reported",
              "test_cli.py::TestLightconeGolden::test_prints_golden_stdout",
              "test_cli.py::TestSweepCommand::test_overflowing_capacity_exits_2",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_lattice.py::TestBoundEnvelope::test_cone_constant",
              "test_lattice.py::TestGroupVelocity::test_bound_exceeds_measured_speed_by_factor_four_nn",
              "test_lattice.py::TestGroupVelocity::test_coupling_sums_keep_their_bits_on_every_python",
              "test_lattice.py::TestLightCone::test_2d_axis_cone_below_2d_bound",
              "test_scripts.py::test_lightcone_script_velocities_bit_for_bit",
              "test_scripts.py::test_lightcone_script_velocities_independent_of_openblas_kernel",
              "test_scripts.py::test_script_regenerates_committed_results",
          )),
    Fault("tau0 x 1.01", scaled(params, "tau0", 1.01),
          "results/fig3_velocity_sweep.csv", EXIT_VERIFY,
          caught_by=(  # 39 failed ids in 26 tests
              "test_bounds.py::TestQramMaxQubits::test_explicit_velocity_p0",
              "test_bounds.py::TestQramMaxQubits::test_explicit_velocity_p2",
              "test_bounds.py::TestQramMaxQubits::test_three_dimensions_sqrt_d",
              "test_bounds.py::TestTeleportHybrid::test_light_speed_2d_p0",
              "test_bounds.py::TestTeleportHybrid::test_p2_matches_scan_oracle",
              "test_cli.py::TestBoundCommand::test_capacity_below_one_qubit_or_out_of_float_range_exits_2",
              "test_cli.py::TestBoundCommand::test_config_file_used",
              "test_cli.py::TestBoundCommand::test_explicit_velocity_no_log_factor",
              "test_cli.py::TestBoundCommand::test_headline_table",
              "test_cli.py::TestBoundCommand::test_plain_bound_record_golden",
              "test_cli.py::TestBoundCommand::test_plain_bound_refuses_below_the_root_threshold",
              "test_cli.py::TestBoundCommand::test_preset_long_wave_sources_give_the_sound_speed",
              "test_cli.py::TestBoundCommand::test_teleport_kind_runs_the_capacity_path_at_c_max",
              "test_cli.py::TestBoundCommand::test_two_range_2d_record_golden",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestSweepAgainstPerCellPath::test_threshold_refused_as_the_per_cell_path_refuses_it",
              "test_cli.py::TestSweepCommand::test_overflowing_capacity_exits_2",
              "test_cli.py::TestSweepCommand::test_preset_regenerates_committed_csv",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_params.py::TestTau0::test_asymmetric",
              "test_params.py::TestTau0::test_kilohertz_couplings",
              "test_params.py::TestTau0::test_unit_couplings",
              "test_scripts.py::test_qram_demo_runs_end_to_end",
              "test_scripts.py::test_script_regenerates_committed_results",
          )),
    Fault("t_swap x 1.01", scaled(gates, "t_swap", 1.01), "qramsim reads", EXIT_VERIFY,
          caught_by=(  # 217 failed ids in 61 tests
              "test_acceptance.py::test_criterion_02_gate_time_laws",
              "test_acceptance.py::test_criterion_09_qram_functional_correctness",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestEveryFlagChangesWhatRuns::test_each_flag_the_mode_reads_changes_its_output",
              "test_cli.py::TestNoEigensolver::test_commands_but_verify_run_without_an_eigensolver",
              "test_cli.py::TestParserBuiltOnce::test_second_run_inherits_nothing",
              "test_cli.py::TestQramsimCommand::test_database_file_all_addresses",
              "test_cli.py::TestQramsimCommand::test_one_address_prints_its_line_of_the_full_table",
              "test_cli.py::TestQramsimCommand::test_random_database",
              "test_cli.py::TestQramsimCommand::test_random_database_seed_defaults_to_7",
              "test_cli.py::TestQramsimCommand::test_retrieval_mismatch_exits_3",
              "test_cli.py::TestQramsimCommand::test_single_address",
              "test_cli.py::TestQramsimCommand::test_sixteen_leaves_retrieved",
              "test_cli.py::TestQramsimGolden::test_large_trees_print_golden_digest",
              "test_cli.py::TestQramsimGolden::test_small_trees_print_golden_table",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_every_check_states_its_value",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_gates.py::TestApplyGate::test_swap_moves_population",
              "test_gates.py::TestBeamSplitter::test_full_transfer_at_t_swap",
              "test_gates.py::TestDurations::test_time_scales",
              "test_gates.py::TestMonomial::test_router_gates_rebuild_from_their_tables",
              "test_qram.py::TestClassicalTrace::test_harness_and_query_call_no_walker",
              "test_qram.py::TestClassicalTrace::test_harness_and_query_walk_all_addresses_at_once",
              "test_qram.py::TestClassicalTrace::test_vectorised_walker_agrees_at_every_address",
              "test_qram.py::TestDenseOracle::test_dense_oracle_retrieves",
              "test_qram.py::TestDenseOracle::test_initialization_phases_match_dense",
              "test_qram.py::TestDenseOracle::test_monomial_matches_dense_amplitudes",
              "test_qram.py::TestExecutedSchedule::test_gates_fix_all_zero_input",
              "test_qram.py::TestExecutedSchedule::test_on_path_gates_match_all_gates",
              "test_qram.py::TestExecutedSchedule::test_route_runs_exactly_the_timed_cycles",
              "test_qram.py::TestExecutedSchedule::test_rows_stay_keyed_by_input_address",
              "test_qram.py::TestExecutedSchedule::test_tables_equal_monomial_of_each_gate_and_adjoint",
              "test_qram.py::TestExecutedSchedule::test_uncomputing_with_forward_tables_fails",
              "test_qram.py::TestLargeTrees::test_exhaustive_retrieval_at_1024_leaves",
              "test_qram.py::TestLargeTrees::test_retrieval_at_the_leaf_cap_holds_one_table",
              "test_qram.py::TestReadOut::test_extreme_couplings_in_range_retrieve",
              "test_qram.py::TestReadOut::test_misrouted_superpositions_scored_as_simulate_query_routes_them",
              "test_qram.py::TestReadOut::test_no_superposition_scores_below_the_minimum",
              "test_qram.py::TestReadOut::test_phases_spread_past_a_half_turn_score_zero",
              "test_qram.py::TestReadOut::test_superpositions_scored_as_simulate_query_routes_them",
              "test_qram.py::TestReadOut::test_verify_routes_once_and_reads_once",
              "test_qram.py::TestSimulateQuery::test_basis_address_reads_one",
              "test_qram.py::TestSimulateQuery::test_basis_address_reads_zero",
              "test_qram.py::TestSimulateQuery::test_bell_address_superposition",
              "test_qram.py::TestSimulateQuery::test_dense_vector_beyond_register_cap_refused",
              "test_qram.py::TestSimulateQuery::test_exhaustive_basis_retrieval_matches_oracle",
              "test_qram.py::TestSimulateQuery::test_gate_phases_cancel_exactly",
              "test_qram.py::TestSimulateQuery::test_linearity_of_superposition_query",
              "test_qram.py::TestSimulateQuery::test_routers_and_addresses_restored",
              "test_qram.py::TestSimulateQuery::test_state_norm_preserved",
              "test_qram.py::TestTotalTime::test_single_level_exact",
              "test_qram.py::TestTotalTime::test_total_time_bits",
              "test_qram.py::TestVerifyRetrieval::test_constant_database_reads_one_everywhere",
              "test_qram.py::TestVerifyRetrieval::test_eight_leaves_random",
              "test_qram.py::TestVerifyRetrieval::test_one_address_is_its_row_of_the_full_report",
              "test_qram.py::TestVerifyRetrieval::test_phase_error_at_one_address_fails",
              "test_qram.py::TestVerifyRetrieval::test_phase_error_below_tolerance_passes",
              "test_qram.py::TestVerifyRetrieval::test_two_leaves",
              "test_scripts.py::test_qram_demo_runs_end_to_end",
          )),
    Fault("last uncompute cycle dropped", last_uncompute_dropped, "qramsim reads",
          EXIT_VERIFY,
          caught_by=(  # 102 failed ids in 44 tests
              "test_acceptance.py::test_criterion_09_qram_functional_correctness",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestNoEigensolver::test_commands_but_verify_run_without_an_eigensolver",
              "test_cli.py::TestParserBuiltOnce::test_second_run_inherits_nothing",
              "test_cli.py::TestQramsimCommand::test_database_file_all_addresses",
              "test_cli.py::TestQramsimCommand::test_one_address_prints_its_line_of_the_full_table",
              "test_cli.py::TestQramsimCommand::test_random_database",
              "test_cli.py::TestQramsimCommand::test_random_database_seed_defaults_to_7",
              "test_cli.py::TestQramsimCommand::test_single_address",
              "test_cli.py::TestQramsimCommand::test_sixteen_leaves_retrieved",
              "test_cli.py::TestQramsimGolden::test_large_trees_print_golden_digest",
              "test_cli.py::TestQramsimGolden::test_small_trees_print_golden_table",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_qram.py::TestClassicalTrace::test_harness_and_query_call_no_walker",
              "test_qram.py::TestClassicalTrace::test_harness_and_query_walk_all_addresses_at_once",
              "test_qram.py::TestDenseOracle::test_monomial_matches_dense_amplitudes",
              "test_qram.py::TestExecutedSchedule::test_on_path_gates_match_all_gates",
              "test_qram.py::TestLargeTrees::test_exhaustive_retrieval_at_1024_leaves",
              "test_qram.py::TestLargeTrees::test_retrieval_at_the_leaf_cap_holds_one_table",
              "test_qram.py::TestReadOut::test_extreme_couplings_in_range_retrieve",
              "test_qram.py::TestReadOut::test_misrouted_superpositions_scored_as_simulate_query_routes_them",
              "test_qram.py::TestReadOut::test_phases_spread_past_a_half_turn_score_zero",
              "test_qram.py::TestReadOut::test_superpositions_scored_as_simulate_query_routes_them",
              "test_qram.py::TestReadOut::test_verify_routes_once_and_reads_once",
              "test_qram.py::TestSchedules::test_columns_match_per_cycle_enumeration",
              "test_qram.py::TestSchedules::test_query_core_is_linear_in_depth",
              "test_qram.py::TestSimulateQuery::test_basis_address_reads_one",
              "test_qram.py::TestSimulateQuery::test_bell_address_superposition",
              "test_qram.py::TestSimulateQuery::test_exhaustive_basis_retrieval_matches_oracle",
              "test_qram.py::TestSimulateQuery::test_gate_phases_cancel_exactly",
              "test_qram.py::TestSimulateQuery::test_routers_and_addresses_restored",
              "test_qram.py::TestTotalTime::test_closed_form_accounting",
              "test_qram.py::TestTotalTime::test_refuses_time_out_of_float_range",
              "test_qram.py::TestTotalTime::test_single_level_exact",
              "test_qram.py::TestTotalTime::test_total_time_bits",
              "test_qram.py::TestVerifyRetrieval::test_constant_database_reads_one_everywhere",
              "test_qram.py::TestVerifyRetrieval::test_eight_leaves_random",
              "test_qram.py::TestVerifyRetrieval::test_one_address_is_its_row_of_the_full_report",
              "test_qram.py::TestVerifyRetrieval::test_phase_error_at_one_address_fails",
              "test_qram.py::TestVerifyRetrieval::test_phase_error_below_tolerance_passes",
              "test_qram.py::TestVerifyRetrieval::test_two_leaves",
              "test_scripts.py::test_qram_demo_runs_end_to_end",
          )),
    Fault("copy reads the neighbouring leaf", copy_from_neighbour, "qramsim reads",
          EXIT_VERIFY,
          caught_by=(  # 90 failed ids in 39 tests
              "test_acceptance.py::test_criterion_09_qram_functional_correctness",
              "test_cli.py::TestDocumentedCommands::test_readme_command_lines_exit_0",
              "test_cli.py::TestNoEigensolver::test_commands_but_verify_run_without_an_eigensolver",
              "test_cli.py::TestQramsimCommand::test_database_file_all_addresses",
              "test_cli.py::TestQramsimCommand::test_one_address_prints_its_line_of_the_full_table",
              "test_cli.py::TestQramsimCommand::test_random_database",
              "test_cli.py::TestQramsimCommand::test_random_database_seed_defaults_to_7",
              "test_cli.py::TestQramsimCommand::test_retrieval_mismatch_exits_3",
              "test_cli.py::TestQramsimCommand::test_single_address",
              "test_cli.py::TestQramsimCommand::test_sixteen_leaves_retrieved",
              "test_cli.py::TestQramsimGolden::test_large_trees_print_golden_digest",
              "test_cli.py::TestQramsimGolden::test_small_trees_print_golden_table",
              "test_cli.py::TestVerifyCommand::test_check_counts",
              "test_cli.py::TestVerifyCommand::test_clean_build_exits_0",
              "test_cli.py::TestVerifyCommand::test_verdicts_independent_of_openblas_kernel",
              "test_qram.py::TestClassicalTrace::test_harness_and_query_call_no_walker",
              "test_qram.py::TestClassicalTrace::test_harness_and_query_walk_all_addresses_at_once",
              "test_qram.py::TestDataCopy::test_bit_table_flips_match_walk",
              "test_qram.py::TestDenseOracle::test_monomial_matches_dense_amplitudes",
              "test_qram.py::TestExecutedSchedule::test_on_path_gates_match_all_gates",
              "test_qram.py::TestLargeTrees::test_exhaustive_retrieval_at_1024_leaves",
              "test_qram.py::TestLargeTrees::test_retrieval_at_the_leaf_cap_holds_one_table",
              "test_qram.py::TestReadOut::test_extreme_couplings_in_range_retrieve",
              "test_qram.py::TestReadOut::test_misrouted_superpositions_scored_as_simulate_query_routes_them",
              "test_qram.py::TestReadOut::test_phases_spread_past_a_half_turn_score_zero",
              "test_qram.py::TestReadOut::test_superpositions_scored_as_simulate_query_routes_them",
              "test_qram.py::TestReadOut::test_verify_routes_once_and_reads_once",
              "test_qram.py::TestSimulateQuery::test_basis_address_reads_one",
              "test_qram.py::TestSimulateQuery::test_basis_address_reads_zero",
              "test_qram.py::TestSimulateQuery::test_bell_address_superposition",
              "test_qram.py::TestSimulateQuery::test_dense_vector_beyond_register_cap_refused",
              "test_qram.py::TestSimulateQuery::test_exhaustive_basis_retrieval_matches_oracle",
              "test_qram.py::TestSimulateQuery::test_gate_phases_cancel_exactly",
              "test_qram.py::TestVerifyRetrieval::test_eight_leaves_random",
              "test_qram.py::TestVerifyRetrieval::test_one_address_is_its_row_of_the_full_report",
              "test_qram.py::TestVerifyRetrieval::test_phase_error_at_one_address_fails",
              "test_qram.py::TestVerifyRetrieval::test_phase_error_below_tolerance_passes",
              "test_qram.py::TestVerifyRetrieval::test_two_leaves",
              "test_scripts.py::test_qram_demo_runs_end_to_end",
          )),
]


def run_quietly(call) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = call()
    return code, out.getvalue()


def output_of(key: str, tmp_path: Path) -> tuple[int, str, str]:
    """(exit code, stdout and stderr, written file) of an output's CLI run."""
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    code, text = run_quietly(lambda: cli.main(
        [arg.replace("{out}", str(out)) for arg in OUTPUTS[key]]))
    return code, text, out.read_text() if out.exists() else ""


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.name)
def test_verify_exit_code(fault):
    with fault.patch():
        direct, printed = run_quietly(verify.run_verify)
        via_cli, cli_printed = run_quietly(lambda: cli.main(["verify"]))
    assert direct == via_cli == fault.verify_exit
    assert ("FAIL" in printed) == ("FAIL" in cli_printed) == (fault.verify_exit != EXIT_OK)
    assert len(printed.splitlines()) >= len(verify.SUITES)   # every suite has its line


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.name)
def test_fault_moves_its_output(fault, tmp_path):
    clean = output_of(fault.moves, tmp_path)
    if fault.moves.startswith("results/"):   # the run writes the committed file
        assert clean[2] == (ROOT / fault.moves).read_text()
    with fault.patch():
        faulty = output_of(fault.moves, tmp_path)
    assert faulty != clean


def test_no_fault_exits_as_invalid_input():
    assert EXIT_CONFIG not in {fault.verify_exit for fault in FAULTS}


def test_raising_suite_fails_on_one_line(capsys):
    # t_swap off makes the swap gate non-monomial, so the qram suite's
    # retrieval raises GateError: one FAIL line names it, and verify exits 1
    with scaled(gates, "t_swap", 1.01)():
        assert cli.main(["verify"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    qram_lines = [line for line in captured.out.splitlines() if "qram" in line]
    assert len(qram_lines) == 1
    assert qram_lines[0].startswith(
        "FAIL qram: raised GateError: gate is not monomial (tolerance 1e-12) (")
    assert captured.err == ""


def test_clean_build_passes():
    assert run_quietly(verify.run_verify)[0] == EXIT_OK
