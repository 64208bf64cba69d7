"""Effective sample size for spatially indexed functional data.

Quantifies how many independent curves a spatially correlated functional
dataset is worth: trace-variogram estimation, parametric covariance
fitting, the plug-in functional ESS, exact functional AR(1) oracles, and
functional-boxplot subsample-fidelity metrics.
"""

__version__ = "0.1.0"

from .dataset import (
    EvalGrid,
    GeoCoord,
    PlanarCoord,
    SpatialFunctionalDataset,
    CsvSchema,
    load_wide_csv,
    write_wide_csv,
    pairwise_distances,
    project_sinusoidal,
    trapz_inner,
)
from .errors import EstimationError, ValidationError
from .ess import EssReport, ess_functional, ess_plugin, ess_scalar
from .far1 import (
    Far1Spec,
    GaussFieldSpec,
    far1_ess,
    far1_simulate,
    far1_sweep,
    far1_trace_cov,
    gauss_field_simulate,
    marginal_ess,
)
from .fboxplot import (
    FBoxplotSummary,
    FidelityMetrics,
    SubsampleExperiment,
    fidelity_metrics,
    functional_boxplot,
    mbd,
    subsample_experiment,
)
from .variogram import (
    EmpiricalVariogram,
    FitResult,
    LagBins,
    TraceCovModel,
    default_lag_bins,
    empirical_trace_covariogram,
    empirical_trace_variogram,
    fit_model,
    model_trace_cov,
    model_trace_variogram,
)

__all__ = [
    "EvalGrid",
    "GeoCoord",
    "PlanarCoord",
    "SpatialFunctionalDataset",
    "CsvSchema",
    "load_wide_csv",
    "write_wide_csv",
    "pairwise_distances",
    "project_sinusoidal",
    "trapz_inner",
    "ValidationError",
    "EstimationError",
    "LagBins",
    "EmpiricalVariogram",
    "TraceCovModel",
    "FitResult",
    "default_lag_bins",
    "empirical_trace_variogram",
    "empirical_trace_covariogram",
    "model_trace_cov",
    "model_trace_variogram",
    "fit_model",
    "EssReport",
    "ess_scalar",
    "ess_functional",
    "ess_plugin",
    "Far1Spec",
    "GaussFieldSpec",
    "far1_trace_cov",
    "marginal_ess",
    "far1_ess",
    "far1_simulate",
    "far1_sweep",
    "gauss_field_simulate",
    "FBoxplotSummary",
    "FidelityMetrics",
    "SubsampleExperiment",
    "mbd",
    "functional_boxplot",
    "fidelity_metrics",
    "subsample_experiment",
]
