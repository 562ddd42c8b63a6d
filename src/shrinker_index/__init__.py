"""Rotationally symmetric self-shrinkers as weighted half-plane geodesics.

Solves for the closed cross-section of the self-shrinking torus as a
discrete geodesic of the metric sigma^2 (dr^2 + dz^2) with
sigma = (r/2) exp(-(r^2+z^2)/4), assembles the discrete stability
operators of every rotational Fourier mode, computes their spectra, and
reports the entropy index (Morse index minus the dilation and translation
modes).  Convergence studies and Schroedinger-operator asymptotics serve
as independent validation.
"""

from .curve import DiscreteCurve, discrete_length, read_curve, write_curve
from .metric import segment_distance, sigma
from .solver import CurveCollapse, NonConvergence, solve_geodesic
from .stability import (AmbiguousNormal, Evaluation, StabilityMatrix,
                        assemble_Lk)
from .spectral import (EigenMode, ExclusionMismatch, IndexReport,
                       NarrowLongDouble, Pipeline, compute_index, spectrum)
from .convergence import (ConvergenceStudy, DegenerateFit, fit_loglog,
                          run_study)
from .asymptotics import (NoWell, SchrodingerProfile, drift_diagnostic,
                          high_j_estimate, high_k_estimate, potential_profile)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousNormal", "ConvergenceStudy", "CurveCollapse", "DegenerateFit",
    "DiscreteCurve", "EigenMode", "Evaluation", "ExclusionMismatch",
    "IndexReport", "NarrowLongDouble", "NoWell", "NonConvergence",
    "Pipeline", "SchrodingerProfile", "StabilityMatrix", "assemble_Lk",
    "compute_index", "discrete_length", "drift_diagnostic", "fit_loglog",
    "high_j_estimate", "high_k_estimate", "potential_profile", "read_curve",
    "run_study", "segment_distance", "sigma", "solve_geodesic", "spectrum",
    "write_curve",
]
