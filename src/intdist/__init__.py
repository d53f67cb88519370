"""Interaction distance of quantum many-body spectra.

Quantifies how far a thermal or entanglement spectrum is from the closest
free-fermion spectrum, and identifies the optimal free model.
"""

__version__ = "0.1.0"

from .distance import (DistanceResult, OptimizerOptions, df_upper_bound,
                       interaction_distance, trace_distance_sorted)
from .fock import (ManyBodyOperator, OccupationBasis, build_basis, build_density_density,
                   build_quadratic, density_density_diagonal)
from .free_fermion import (FreeSpectrumParams, diagonalize_kernel,
                           free_many_body_spectrum, free_probabilities)
from .models import ChainParams, DimerParams, dimer_sector_basis, hubbard_dimer, spinless_chain
from .perturbation import (PerturbativeDecomposition, first_order_reduced_density,
                           infer_free_labeling, perturbative_dent, perturbative_dth,
                           perturbative_free_decomposition)
from .spectra import (EigenSystem, ProbabilitySpectrum, exact_diagonalize,
                      reduced_density_spectrum, thermal_probabilities)

__all__ = [
    "__version__",
    "DistanceResult", "OptimizerOptions", "df_upper_bound",
    "interaction_distance", "trace_distance_sorted",
    "ManyBodyOperator", "OccupationBasis", "build_basis", "build_density_density",
    "build_quadratic", "density_density_diagonal",
    "FreeSpectrumParams", "diagonalize_kernel", "free_many_body_spectrum",
    "free_probabilities",
    "ChainParams", "DimerParams", "dimer_sector_basis", "hubbard_dimer",
    "spinless_chain",
    "PerturbativeDecomposition", "first_order_reduced_density",
    "infer_free_labeling", "perturbative_dent", "perturbative_dth",
    "perturbative_free_decomposition",
    "EigenSystem", "ProbabilitySpectrum", "exact_diagonalize",
    "reduced_density_spectrum", "thermal_probabilities",
]
