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
    CONSERVATION_RTOL,
    ModelParams,
    SeirState,
    check_assumption1,
    coupling_control,
    derivative,
)
from .laws import (
    AsymptoticPrediction,
    ConstantVax,
    ConstrainedImmuneFeedback,
    ControlLaw,
    GainCheck,
    ImmuneFeedback,
    Linearizing,
    OutputZeroing,
    Saturated,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    ZeroVax,
    corollary1_upper_bound,
    predicted_limits,
)
from .integrate import (
    IntegratorConfig,
    Trajectory,
    integrate,
)
from .normal_form import (
    NormalState,
    NormalTrajectory,
    ZeroDynTrajectory,
    from_normal,
    integrate_normal,
    integrate_zero_dynamics,
    to_normal,
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
    monitor_conservation,
    monitor_positivity,
)

__version__ = "0.1.0"
