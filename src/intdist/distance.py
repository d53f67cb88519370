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
        for name, lowest in (("seed", 0), ("restarts", 1), ("max_iter", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < lowest:
                raise ValueError(f"{name} must be >= {lowest}, got {value}")
            object.__setattr__(self, name, int(value))


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

    def objective(eps: np.ndarray):
        # one value per row of eps, a scalar for 1-D eps; boltzmann_weights is inlined
        # and worked in place: a fit makes hundreds to thousands of batched calls
        q = subset_sums(eps)
        q -= q.min(axis=-1, keepdims=True)
        q *= -beta
        np.exp(q, out=q)
        q /= q.sum(axis=-1, keepdims=True)
        q.sort()
        np.subtract(target, q, out=q)
        np.abs(q, out=q)
        return 0.5 * q.sum(axis=-1)

    return objective


#: Most modes for which a simplex step evaluates all four candidate points in one call;
#: above 64 levels the two discarded candidates cost more than a second call.
FUSED_STEP_MAX_MODES = 6

#: Nelder-Mead step kinds and their points c1*xbar - c2*w (w the worst vertex):
#: 0 expansion, 1 reflection (2*xbar - w, since 1.0*w == w), 2 outside and 3 inside
#: contraction (0.5*xbar + 0.5*w, since a - (-b) == a + b in floating point).
_STEP_C1 = np.array([3.0, 2.0, 1.5, 0.5])[:, None]
_STEP_C2 = np.array([2.0, 1.0, 0.5, -0.5])[:, None]
#: The step's new last vertex by 2*kind + better: the point of that kind, or 4 for w.
#: An expansion no better than the reflection keeps the reflection, a contraction that
#: is no better keeps w and shrinks the simplex, and a reflection is never "better".
_NEW_VERTEX = np.array([1, 0, 1, 1, 4, 2, 4, 3])


def _sorted_simplices(sim, fsim, at):
    at, ind = at[:, None], fsim.argsort(1)
    return sim[at, ind], fsim[at, ind]


def _lockstep_nelder_mead(objective, x0: np.ndarray, max_iter: int):
    """Nelder-Mead from every row of x0 at once, with batched objective calls.

    Row r repeats, operation for operation, SciPy's
    ``minimize(objective, x0[r], method="Nelder-Mead")`` with maxiter=max_iter,
    maxfev=4*max_iter and the SIMPLEX_ tolerances: the same vertex arithmetic,
    comparisons, sorts and budget cut-offs.  A step builds the four candidate
    points of every live row.  Up to FUSED_STEP_MAX_MODES modes one objective call
    evaluates all of them and the second point is selected, not evaluated; larger
    fits evaluate the reflections in one call and then the second points in
    another.  The budget counts only the points SciPy evaluates.  Returns
    (x, fun, nit, success), one entry per row, bitwise equal to that call's fields.
    """
    m, n = x0.shape
    maxfev = 4 * max_iter
    fused = n <= FUSED_STEP_MAX_MODES
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full((m, n + 1), np.inf)
    count = min(n + 1, maxfev)  # the budget may end before the last vertex
    for j in range(count):
        fsim[:, j] = objective(sim[:, j])
    at = np.arange(m)
    sim, fsim = _sorted_simplices(*_sorted_simplices(sim, fsim, at), at)
    fcalls, nit, rows = np.full(m, count), np.ones(m, int), np.arange(m)
    x, fun, nits, success = np.empty((m, n)), np.empty(m), np.empty(m, int), np.empty(m, bool)
    first = np.ones((m, 4), bool)  # fr < f0, fr < f2, fr < f1, True: the kind is the first true
    ends = np.array([0, n - 1, n])
    step = 0
    while rows.size:
        # a row has made at most count + step*(n+2) calls and step+1 iterations so far,
        # so the budget tests below cannot fire until these bounds reach the budget
        tight = count + step * (n + 2) >= maxfev - 1 or step + 1 >= max_iter
        step += 1
        # rows are sorted ascending, NaN last: SciPy's max|f_j - f_0| is the last minus the first
        done = fsim[:, -1] - fsim[:, 0] <= SIMPLEX_FATOL
        if np.logical_or.reduce(done):
            size = np.maximum.reduce(np.abs(sim[:, 1:] - sim[:, :1]).reshape(rows.size, -1), 1)
            done &= size <= SIMPLEX_XATOL
        if tight:
            done |= (fcalls >= maxfev) | (nit >= max_iter)
        if np.logical_or.reduce(done):
            r = rows[done]
            x[r], fun[r], nits[r] = sim[done, 0], fsim[done].min(1), nit[done]
            success[r] = (fcalls[done] < maxfev) & (nit[done] < max_iter)
            live = ~done
            rows, sim, fsim, fcalls, nit = rows[live], sim[live], fsim[live], fcalls[live], nit[live]
            at, first = at[:rows.size], first[:rows.size]
            if not rows.size:
                break
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        pts = _STEP_C1 * xbar[:, None] - _STEP_C2 * sim[:, -1, None]  # row, kind, mode
        if fused:
            f = objective(pts)
        else:
            f = np.empty((rows.size, 4))
            f[:, 1] = objective(pts[:, 1])
        fr, f1 = f[:, 1], fsim[:, -1]
        np.less(fr[:, None], fsim.take(ends, 1), out=first[:, :3])
        kind = first.argmax(1)  # a NaN fr is kind 3
        go = kind != 1
        if tight:
            go &= fcalls < maxfev - 1  # else the second point overruns the budget
        if not fused:
            f[go, kind[go]] = objective(pts[go, kind[go]])
        fcalls += 1 + go
        fs = f[at, kind]  # a two-call fit leaves it unevaluated where go is false: w stays
        better = np.where(kind == 2, fs <= fr, fs < np.where(kind == 3, f1, fr))
        choice = _NEW_VERTEX.take(2 * kind + better)
        counted = go | (kind == 1)  # else the budget ran out before the second point
        if tight:
            choice[~counted] = 4
        new = (choice < 4).nonzero()[0]
        sim[new, -1], fsim[new, -1] = pts[new, choice[new]], f[new, choice[new]]
        shrink = (go & (choice == 4)).nonzero()[0]
        if shrink.size:
            budget = maxfev - fcalls[shrink]
            for j in range(1, n + 1):  # vertex j is written before its call, which may overrun
                reach, call = shrink[budget >= j - 1], shrink[budget >= j]
                sim[reach, j] = sim[reach, 0] + 0.5 * (sim[reach, j] - sim[reach, 0])
                fsim[call, j] = objective(sim[call, j])
            fcalls[shrink] += np.minimum(budget, n)
            counted[shrink[budget < n]] = False
        nit += counted
        sim, fsim = _sorted_simplices(sim, fsim, at)
    return x, fun, nits, success


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
    of it, and uniform draws over the resolved level range.  Only the starts
    before the first one whose objective is already at most FLOOR_TOL are
    searched: D >= 0, so no descent can improve on it by more than FLOOR_TOL.
    Their Nelder-Mead searches advance in lockstep on batched objective calls,
    each with the arithmetic of SciPy's Nelder-Mead from its start.  Restart
    results merge by taking the minimum in restart order, so the outcome is
    reproducible for a fixed seed.
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
        return DistanceResult(float(objective(np.zeros(0))), np.zeros(0), {
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

    starts = np.array(starts)
    v0 = objective(starts)
    at_floor = np.flatnonzero(v0 <= FLOOR_TOL)
    searched = at_floor[0] if at_floor.size else len(starts)
    x, fun, nit, success = _lockstep_nelder_mead(objective, starts[:searched], opts.max_iter)
    best_value, best_x, best_success = np.inf, starts[0], False
    for i in range(searched):  # merge in restart order
        if v0[i] < best_value:
            best_value, best_x, best_success = v0[i], starts[i], False
        if fun[i] < best_value:
            best_value, best_x, best_success = fun[i], x[i], success[i]
    if searched < len(starts):  # D >= 0, so the best value so far is the global minimum
        if v0[searched] < best_value:
            best_value, best_x = v0[searched], starts[searched]
        best_success = True

    return DistanceResult(float(best_value), np.sort(np.abs(best_x)), {
        "converged": bool(best_success), "restarts": opts.restarts,
        "total_iterations": int(nit.sum())})
