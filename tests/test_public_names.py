"""The names the behaviour contract and the benchmark rely on.

``blochpulse`` defines no ``__all__`` of its own, so its public surface is
the set of names it re-exports from the submodules.
"""

import importlib
import types

import pytest

import blochpulse
from blochbench import tracing

REEXPORTED = {
    "AngleOutOfRange", "BlochControlError", "BoundTooSmall", "CartesianState",
    "CostateSample", "DegenerateKappa", "DidNotConverge", "Landmarks", "NoBracket",
    "NoRealSwitch", "NonpositiveThetaDot", "OracleResult", "PolarState",
    "PulseProgram", "PulseTarget", "Regime", "Segment", "StallDetected",
    "StepControl", "StepTooLarge", "SwitchingGeometry", "THETA_START",
    "TargetOutOfRange", "Trajectory", "UnboundedSolution", "Unreachable",
    "VerificationReport", "ZeroVector", "cartesian_from_polar", "check_adjoint",
    "check_hamiltonian", "classify", "closed_energy", "control_hamiltonian",
    "costate_along", "energy_theta_quadrature", "feedback_u", "first_switch_radius",
    "full_rhs", "integrate_feedback", "integrate_full", "kappa_for_target",
    "kappa_from_switch", "landmarks", "oracle_transcription", "partner_angle",
    "polar_from_cartesian", "reachable_boundary", "reduced_rhs",
    "required_first_switch_radius", "required_second_switch_radius",
    "sample_geometry", "saturated_arc_radius", "saturation_excess",
    "second_switch_radius", "solve_one_switch", "solve_two_switch",
    "switching_angles", "synthesize", "thetadot", "trajectory_r", "verify_program",
    "write_trajectory_csv",
}

SUBMODULE_ALL = {
    "bloch": [
        "THETA_START", "POLE_AZIMUTH", "CartesianState", "PolarState", "PulseTarget",
        "StepControl", "Trajectory", "polar_from_cartesian", "cartesian_from_polar",
        "reduced_rhs", "full_rhs", "control_hamiltonian", "integrate_feedback",
        "integrate_full", "energy_theta_quadrature", "write_trajectory_csv",
    ],
    "bounded": [
        "MIN_BOUND", "arccot", "cot", "switching_angles", "kappa_from_switch",
        "partner_angle", "first_switch_radius", "saturated_arc_radius",
        "second_switch_radius", "reachable_boundary", "max_no_switch_radius",
        "Landmarks", "landmarks", "Regime", "classify", "required_second_switch_radius",
        "required_first_switch_radius", "Segment", "PulseProgram", "solve_two_switch",
        "solve_one_switch", "synthesize", "SwitchingGeometry", "sample_geometry",
    ],
    "cli": ["main"],
    "errors": None,
    "oracle": ["OracleResult", "oracle_transcription"],
    "pmp": [
        "CostateSample", "costate_along", "check_hamiltonian", "check_adjoint",
        "saturation_excess", "VerificationReport", "verify_program",
    ],
    "unbounded": [
        "kappa_for_target", "feedback_u", "thetadot", "trajectory_r", "closed_energy",
        "UnboundedSolution",
    ],
}


def test_package_reexports():
    public = {
        name
        for name, value in vars(blochpulse).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == REEXPORTED
    assert len(REEXPORTED) == 63


@pytest.mark.parametrize("name", sorted(SUBMODULE_ALL))
def test_submodule_all(name):
    module = importlib.import_module(f"blochpulse.{name}")
    assert getattr(module, "__all__", None) == SUBMODULE_ALL[name]


def test_traced_names_resolve():
    pairs = [(module, attr) for module, attr, *_ in tracing.SPANS + tracing.COUNTED]
    missing = [
        f"{getattr(module, '__name__', module)}.{attr}"
        for module, attr in pairs
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
