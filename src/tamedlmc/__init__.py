"""Tamed Langevin Monte Carlo sampling laboratory.

Stabilized (tamed) unadjusted Langevin chains for targets whose gradients
grow super-linearly, three benchmark targets with analytic marginals and
assumption certificates, the full closed-form convergence-constant
pipeline, and Wasserstein/KS/rate diagnostics.
"""

__version__ = "0.1.0"  # kept equal to pyproject.toml's [project] version

from .numerics import (
    QuadratureError,
    QuadratureResult,
    RngStream,
    integrate_semi_infinite,
)
from .potentials import (
    CheckReport,
    MarginalDensity,
    TargetSpec,
    check_assumption_2,
    check_assumption_3,
    check_assumption_4,
    default_mixture_center,
    make_double_well,
    make_gaussian,
    make_gaussian_mixture,
    make_target,
    marginal_pdf,
    override_constants,
)
from .sampler import (
    DivergenceError,
    EmpiricalMeasure,
    SamplerConfig,
    estimate_v2_integral,
    gaussian_chain_rho,
    gaussian_chain_std,
    reference_measure,
    run_chains,
    tamed_gradient,
)
from .metrics import (
    Histogram,
    RateFit,
    cdf_from_pdf,
    fit_rate,
    histogram,
    ks_statistic,
    sliced_wasserstein,
    wasserstein_1d,
)

# the constants pipeline imports mpmath, which only some commands need, so
# these names import it on first use
_CONSTANTS = frozenset((
    "DerivedConstants", "certified_moduli", "certify_derived_constants", "derive_constants",
    "derive_contraction_constants", "derive_drift_constants", "derive_moment_constants",
    "derive_theorem_constants",
))


def __getattr__(name):
    if name in _CONSTANTS:
        from . import constants
        return getattr(constants, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
