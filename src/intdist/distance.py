"""Trace distance between sorted spectra and the interaction distance.

The interaction distance of a probability spectrum is the minimal trace
distance to the Gibbs spectrum of any free (subset-sum structured) spectrum,
minimized over the single-particle energies.  After individually sorting
both spectra in descending order, the basis-alignment minimum of the trace
distance is attained by same-order matching, so the objective reduces to
half the L1 distance of sorted probability vectors.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .fock import MAX_MODES
from .free_fermion import greedy_single_particle_gaps, subset_sums
from .spectra import ProbabilitySpectrum

#: Nelder-Mead stopping tolerances on the simplex size and on its objective spread.
SIMPLEX_XATOL = 1e-10
SIMPLEX_FATOL = 1e-13
#: An unpolished start at or below this objective already sits at the floor D = 0.
FLOOR_TOL = 10 * SIMPLEX_FATOL
#: Smallest level span the random restarts are drawn over.
MIN_START_SPAN = 1e-3
#: Gibbs weight exponent beyond which an unresolvable free mode is parked.
_NEGLIGIBLE_EXPONENT = 46.0


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings for the multi-start simplex minimization.

    All randomness (perturbed and uniform restarts) derives from ``seed``;
    results are deterministic for a fixed seed, independent of scheduling.
    """

    seed: int = 1234
    restarts: int = 16
    max_iter: int = 5000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class DistanceResult:
    """Interaction-distance value with the minimizing free model.

    optimal_epsilons are canonicalized: sign-flipped modes are equivalent
    under filled/empty relabeling (the reference energy absorbs the shift),
    so the absolute values are reported in ascending order.
    """

    value: float
    optimal_epsilons: np.ndarray
    optimizer_info: dict = field(default_factory=dict)


def _as_probs(p) -> np.ndarray:
    return (p if isinstance(p, ProbabilitySpectrum) else ProbabilitySpectrum(p)).probs


def trace_distance_sorted(p, q) -> float:
    """Half the L1 distance of descending-sorted, zero-padded spectra.

    Accepts ProbabilitySpectrum objects or plain vectors.  A plain vector
    faces the one ProbabilitySpectrum rule: no entry below -CLAMP_TOL, entries
    below CLAMP_TOL count as 0, and the sum is within NORM_TOL of 1.
    Symmetric, in [0, 1], and insensitive to the order of entries and to
    padding with zeros.
    """
    pv = _as_probs(p)
    qv = _as_probs(q)
    n = max(pv.size, qv.size)
    ps = np.zeros(n)
    qs = np.zeros(n)
    ps[: pv.size] = np.sort(pv)[::-1]
    qs[: qv.size] = np.sort(qv)[::-1]
    return 0.5 * float(np.abs(ps - qs).sum())


def df_upper_bound() -> float:
    """Largest interaction distance any spectrum can attain: 3 - 2*sqrt(2)."""
    return 3.0 - 2.0 * math.sqrt(2.0)


def _pseudo_levels(probs: np.ndarray, beta: float) -> np.ndarray:
    """Effective free levels -ln(p_k / p_max) / beta, ascending, finite part."""
    p = np.sort(probs)[::-1]
    p = p[p > 0.0]
    return np.log(p[0] / p) / beta


def _objective_factory(target_desc: np.ndarray, beta: float):
    target = np.sort(target_desc)  # ascending; zeros lead

    def objective(eps: np.ndarray) -> float:
        # boltzmann_weights inlined and worked in place on the fresh level array:
        # an 8-mode fit makes ~44k calls, each would pay its validation and temporaries
        q = subset_sums(eps)
        q -= q.min()
        q *= -beta
        np.exp(q, out=q)
        q /= q.sum()
        q.sort()
        np.subtract(target, q, out=q)
        np.abs(q, out=q)
        return 0.5 * float(q.sum())

    return objective


def interaction_distance(rho, n_free_modes: Optional[int] = None, beta: float = 1.0,
                         opts: Optional[OptimizerOptions] = None) -> DistanceResult:
    """Minimal trace distance from a spectrum to any free Gibbs spectrum.

    Parameters
    ----------
    rho          : ProbabilitySpectrum (or normalized vector), thermal or
                   entanglement.  For entanglement spectra use beta = 1.
    n_free_modes : number of variational single-particle energies; defaults
                   to ceil(log2 len(rho)).  2**n_free_modes must cover
                   len(rho); anything smaller would discard weight and is an
                   error rather than a silent truncation.
    beta         : inverse temperature of the Gibbs comparison.
    opts         : OptimizerOptions; defaults are deterministic.

    The search runs a derivative-free simplex descent from several starts:
    a greedy gap decomposition of the input spectrum, random perturbations
    of it, and uniform draws over the resolved level range.  Restart results
    merge by taking the minimum in restart order, so the outcome is
    reproducible for a fixed seed.  The search stops at the first start whose
    objective is already at most FLOOR_TOL: D >= 0, so no descent can improve
    on it by more than FLOOR_TOL.
    """
    probs = _as_probs(rho)
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be finite and positive, got {beta}")
    if n_free_modes is None:
        n_free_modes = max(0, math.ceil(math.log2(probs.size)))
    if n_free_modes < 0:
        raise ValueError("n_free_modes must be nonnegative")
    if n_free_modes > MAX_MODES:
        raise ValueError(f"n_free_modes={n_free_modes} exceeds the cap MAX_MODES={MAX_MODES}")
    if (1 << n_free_modes) < probs.size:
        raise ValueError(
            f"2^{n_free_modes} free levels cannot cover a spectrum of size {probs.size}"
        )
    opts = opts or OptimizerOptions()

    target = np.zeros(1 << n_free_modes)
    target[: probs.size] = np.sort(probs)[::-1]
    objective = _objective_factory(target, beta)

    if n_free_modes == 0:
        value = objective(np.zeros(0))
        return DistanceResult(value, np.zeros(0), {
            "converged": True, "restarts": 0, "total_iterations": 0})

    levels = _pseudo_levels(probs, beta)
    top = levels[-1] if levels.size else 0.0
    filler = top + _NEGLIGIBLE_EXPONENT / beta
    guess = greedy_single_particle_gaps(levels, n_free_modes, filler=filler)
    span = max(top, MIN_START_SPAN)

    rng = np.random.default_rng(opts.seed)
    starts = [guess]
    n_perturbed = (opts.restarts - 1) // 2
    for _ in range(n_perturbed):
        starts.append(guess * (1.0 + 0.2 * rng.standard_normal(n_free_modes))
                      + 0.05 * span * rng.standard_normal(n_free_modes))
    while len(starts) < opts.restarts:
        starts.append(rng.uniform(0.0, span, n_free_modes))

    best_value = np.inf
    best_x = starts[0]
    best_success = False
    total_iterations = 0
    for x0 in starts:
        v0 = objective(x0)
        if v0 < best_value:
            best_value, best_x = v0, np.asarray(x0, float)
            # a start is only "converged" when it already sits at the floor
            best_success = v0 <= FLOOR_TOL
        if v0 <= FLOOR_TOL:  # D >= 0, so the best value so far is the global minimum
            best_success = True
            break
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": opts.max_iter, "maxfev": 4 * opts.max_iter,
                                "xatol": SIMPLEX_XATOL, "fatol": SIMPLEX_FATOL})
        total_iterations += int(res.nit)
        if res.fun < best_value:
            best_value, best_x = float(res.fun), res.x
            best_success = bool(res.success)

    return DistanceResult(float(best_value), np.sort(np.abs(best_x)), {
        "converged": best_success, "restarts": opts.restarts,
        "total_iterations": total_iterations})
