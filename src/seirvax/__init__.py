"""SEIR epidemic dynamics under feedback vaccination control.

Simulation of the closed loop for each vaccination law in the catalogue,
law synthesis by feedback linearization, equilibrium and stability
analysis, and numerical verification of conservation, positivity and the
asymptotic-limit claims.
"""

from .exceptions import (
    GainConstraintError,
    HorizonError,
    NonFiniteStateError,
    PredictionError,
    ScenarioError,
    VaccinationChannelError,
)
from .model import (
    AdmissibilityReport,
    CONSERVATION_RTOL,
    ModelParams,
    SeirState,
    StateDerivative,
    check_assumption1,
    coupling_control,
    derivative,
    is_conserved,
    vaccination_from_control,
)
from .laws import (
    AsymptoticPrediction,
    ConstantVax,
    ConstrainedImmuneFeedback,
    ControlLaw,
    GainCheck,
    ImmuneFeedback,
    InfectiousBound,
    Linearizing,
    OutputZeroing,
    Saturated,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    ZeroVax,
    constrained_gain_margin,
    corollary1_upper_bound,
    evaluate,
    infectious_upper_bound,
    predicted_limits,
    susceptible_plus_exposed_alt,
)
from .integrate import (
    EPS_POS_RTOL,
    IntegratorConfig,
    PositivityEvent,
    Trajectory,
    integrate,
    positivity_events,
)
from .normal_form import (
    NormalState,
    NormalTrajectory,
    TransformReport,
    ZeroDynTrajectory,
    from_normal,
    integrate_normal,
    integrate_zero_dynamics,
    normal_derivative,
    relative_degree,
    to_normal,
    to_normal_tangent,
    transform_jacobian,
    zero_dynamics_derivative,
)
from .equilibria import (
    CharZerosX1,
    EquilibriumPoint,
    StabilityReport,
    SweepResult,
    a11_feasibility,
    analyze,
    char_zeros_x1,
    disease_free_equilibrium,
    eigenvalues,
    endemic_equilibrium,
    hinf_ratio_sweep,
    jacobian_at,
)
from .checks import (
    Check,
    DecayFit,
    VerificationReport,
    check_asymptotics,
    check_identity_suite,
    check_integral_limit,
    estimate_decay_rate,
    identity_tolerance,
    monitor_conservation,
    monitor_positivity,
)

__version__ = "0.1.0"
