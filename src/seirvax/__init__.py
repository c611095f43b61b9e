"""SEIR epidemic dynamics under feedback vaccination control.

Simulation of the closed loop for each vaccination law in the catalogue,
law synthesis by feedback linearization, equilibrium and stability
analysis, and numerical verification of conservation, positivity and the
asymptotic-limit claims.

The public names are exported lazily (PEP 562): `import seirvax` loads
no submodule, and a name's module is imported on its first use, so
`seirvax.analyze` loads the equilibria layer and numpy but not the
integrator. `__all__` lists the names; `_EXPORTS` groups them by module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exceptions": (
        "GainConstraintError", "HorizonError", "NonFiniteStateError",
        "PredictionError", "ScenarioError", "VaccinationChannelError"),
    "model": (
        "CONSERVATION_RTOL", "ModelParams", "SeirState", "check_assumption1",
        "coupling_control", "derivative"),
    "laws": (
        "AsymptoticPrediction", "ConstantVax", "ConstrainedImmuneFeedback",
        "ControlLaw", "GainCheck", "ImmuneFeedback", "Linearizing",
        "OutputZeroing", "Saturated", "SusceptibleLinear",
        "SusceptiblePlusExposed", "ZeroVax", "corollary1_upper_bound",
        "predicted_limits"),
    "integrator": ("IntegratorConfig", "Trajectory", "integrate"),
    "normal_form": (
        "integrate_normal", "integrate_zero_dynamics", "to_normal"),
    "equilibria": (
        "EquilibriumPoint", "StabilityReport", "SweepResult", "analyze",
        "char_zeros_x1", "disease_free_equilibrium", "eigenvalues",
        "endemic_equilibrium", "hinf_ratio_sweep"),
    "checks": (
        "Check", "VerificationReport", "check_asymptotics",
        "check_identity_suite", "check_integral_limit",
        "monitor_conservation", "monitor_positivity"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module of a public name on its first use, and keep it."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
