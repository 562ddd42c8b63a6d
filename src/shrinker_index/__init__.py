"""Rotationally symmetric self-shrinkers as weighted half-plane geodesics.

Solves for the closed cross-section of the self-shrinking torus as a
discrete geodesic of the metric sigma^2 (dr^2 + dz^2) with
sigma = (r/2) exp(-(r^2+z^2)/4), assembles the discrete stability
operators of every rotational Fourier mode, computes their spectra, and
reports the entropy index (Morse index minus the dilation and translation
modes).  Convergence studies and Schroedinger-operator asymptotics serve
as independent validation.
"""

from .curve import (DiscreteCurve, discrete_length, read_curve,
                    resample_uniform, write_curve)
from .metric import segment_distance, sigma
from .solver import CurveCollapse, NonConvergence, SolveConfig, solve_geodesic
from .stability import (AmbiguousNormal, StabilityMatrix, assemble_L0,
                        assemble_Lk, assemble_Lk_ode, normal_field)
from .spectral import (EigenMode, ExclusionMismatch, IndexReport, Pipeline,
                       compute_index, spectrum)
from .convergence import (ConvergenceStudy, DegenerateFit, fit_loglog,
                          run_study, table_report)
from .asymptotics import (NoWell, SchrodingerProfile, drift_diagnostic,
                          high_j_estimate, high_k_estimate, potential_profile)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousNormal", "ConvergenceStudy", "CurveCollapse", "DegenerateFit",
    "DiscreteCurve", "EigenMode", "ExclusionMismatch", "IndexReport",
    "NoWell", "NonConvergence", "Pipeline",
    "SchrodingerProfile", "SolveConfig", "StabilityMatrix", "assemble_L0",
    "assemble_Lk", "assemble_Lk_ode", "compute_index", "discrete_length",
    "drift_diagnostic", "fit_loglog", "high_j_estimate", "high_k_estimate",
    "normal_field", "potential_profile", "read_curve", "resample_uniform",
    "run_study", "segment_distance", "sigma",
    "solve_geodesic", "spectrum", "table_report", "write_curve",
]
