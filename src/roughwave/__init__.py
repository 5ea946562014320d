"""roughwave: symmetric hyperbolic integro-differential systems with rough
coefficients -- causal solves, trace sampling, and adjoint-state gradients,
built so the discrete objects satisfy the same identities the continuum
theory proves (exact skew-symmetry, energy accounting, exact adjoints).
"""

from .errors import (
    ConfigError,
    GridMismatchError,
    InvalidArgumentError,
    InvalidCoefficientError,
    RoughwaveError,
    SolverError,
    UnsupportedConfigurationError,
)
from .fields import (
    CoefficientField,
    Grid,
    PronyKernel,
    SourceTerm,
    TabulatedKernel,
    build_grid,
    make_burst_source,
    make_ricker_source,
    measure_distance,
    mollify_field,
)
from .operators import (
    DiscreteSystem,
    acoustic_p_matrices,
    assemble_mass,
    assemble_skew,
    assemble_system,
    energy,
    prony_advance,
)
from .evolution import (
    Trajectory,
    energy_identity_residual,
    solve_causal,
    solve_ivp,
)
from .physics import (
    AcousticModel,
    ViscoelasticModel,
    acoustics_system,
    isotropic_hooke_kelvin,
    isotropic_inverse_hooke,
    max_wavespeed,
    two_layer_acoustic,
    viscoelastic_system,
)
from .forward import (
    Sampler,
    SeismogramData,
    apply_sampler,
    build_sampler,
    forward_map,
    sampler_adjoint_source,
)
from .sensitivity import (
    CoefficientPerturbation,
    GradientReport,
    adjoint_gradient,
    misfit_gradient,
    objective,
)
from .experiments import (
    ConeSpec,
    StudyReport,
    cone_from_speed,
    density_leak,
    energy_density,
    measure_convergence_study,
    trace_regularity_probe,
)

__version__ = "0.1.0"
