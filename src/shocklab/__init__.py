"""shocklab: numerical laboratory for a shock-forming 1+1 quasilinear wave model.

The package evaluates, side by side, the maximal classical solution of the
model Cauchy problem (bounded by a singular boundary, a crease, and a
Cauchy horizon) and its global entropy weak solution (smooth except across
a straight shock), together with their wave potentials and the acoustic
Lorentzian geometry they induce, and verifies the model's quantitative
claims against independent oracles.
"""

from .core import (
    GEOM_TOL,
    DomainError,
    MaxIterExceeded,
    NearSingular,
    OnShockError,
    OutsideDomain,
    Point,
    ShockLabError,
    SolutionVariant,
    Vec2,
    psi0,
    psi0_prime,
    psi0_second,
)
from .characteristics import (
    BoundaryCurve,
    RegionTag,
    blowup_time,
    boundary_x,
    boundary_x_deriv,
    classify,
    foot_classical,
    foot_weak,
    outgoing_char,
    shock_arrival_time,
    shock_feet,
)
from .burgers import (
    ExpansionPrediction,
    ShockTrace,
    dpsidx_classical,
    expansion_near_B,
    expansion_near_S,
    psi,
    psi_boundary_extension,
    psi_classical,
    psi_weak,
    shock_trace,
)
from .wave_potential import (
    dphidt_closed,
    dphidx_closed,
    horizon_jump_probe,
    lbar_derivative,
    pde_residual_classical,
    phi,
)
from .geometry import (
    CausalClass,
    Metric2,
    NullFrame,
    backward_L_curves,
    bubble_witness,
    causal_class,
    causal_past_contains,
    horizon_null_check,
    inverse_metric,
    metric,
    null_frame,
    shock_character,
    shock_tangent_norms,
    tangency_residual_B,
    timelike_past_contains,
)
from .verification import (
    CheckResult,
    FitReport,
    Report,
    TestFunction,
    boundary_fit,
    dyadic_offsets,
    horizon_fit,
    lax_gaps,
    run_suite,
    weak_form_residual,
)
from .godunov import GodunovState, initial_state, l1_error, solve

__version__ = "0.1.0"
