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
        q -= np.minimum.reduce(q, -1, keepdims=True)
        q *= -beta
        np.exp(q, out=q)
        q /= np.add.reduce(q, -1, keepdims=True)
        q.sort()
        np.subtract(target, q, out=q)
        np.abs(q, out=q)
        return 0.5 * np.add.reduce(q, -1)

    return objective


#: Most modes for which a simplex step evaluates all four candidate points in one call;
#: above 64 levels the two discarded candidates cost more than a second call.
FUSED_STEP_MAX_MODES = 6

#: Slots of a row's step block: the reflection 2*xbar - w (since 1.0*w == w), the
#: expansion, the outside and the inside contraction 0.5*xbar + 0.5*w (since a - (-b) ==
#: a + b in floating point), each c1*xbar - c2*w for the worst vertex w; then copies of
#: the worst, the best and the second-worst vertex.  Column 0 of a slot is its value.
_R, _E, _OC, _IC, _W = range(5)
_STEP_C1 = np.array([2.0, 3.0, 1.5, 0.5])[:, None]
_STEP_C2 = np.array([1.0, 2.0, 0.5, -0.5])[:, None]


def _scipy_step(fr_lt_fw, fr_lt_f0, fr_lt_fs, fe_lt_fr, fic_lt_fw, foc_le_fr):
    """SciPy's Nelder-Mead step from its comparisons: (new last vertex, calls, shrink).

    f0, fs and fw are the best, second-worst and worst vertex values.  A comparison
    with NaN is false, so a NaN reflection contracts inside and a NaN contraction
    shrinks.  A shrink keeps w as the last vertex, then moves every vertex but the best.
    """
    if fr_lt_f0:
        return (_E if fe_lt_fr else _R), 2, 0
    if fr_lt_fs:
        return _R, 1, 0
    if fr_lt_fw:
        return (_OC, 2, 0) if foc_le_fr else (_W, 2, 1)
    return (_IC, 2, 0) if fic_lt_fw else (_W, 2, 1)


#: _scipy_step for each of the 64 outcomes of its comparisons (argument k is bit k of
#: the index), one column per outcome.
_STEP_TABLE = np.array([_scipy_step(*(i >> k & 1 for k in range(6))) for i in range(64)]).T
#: The step of a row whose second point would overrun the budget: w stays, one call.
_BUDGET_CUT = np.array([[_W], [1], [0]])


class _Simplices:
    """The live rows' simplices and step blocks, and the views a step works through.

    Row r's simplex S[r] is an (n+1, 1+n) block, each vertex its value and then its
    point, sorted by value (NaN last) between steps; T[r] receives it sorted.  Its step
    block C[r] holds the _R.._W slots, value first, and B[r] _scipy_step's comparisons,
    one per bit.  The views are taken once per set of live rows: slicing costs as much
    as the small ufunc calls of a step.
    """

    def __init__(self, S, T, C, B):
        self.S, self.T, self.C, self.B = S, T, C, B
        m, size = S.shape[:2]
        self.at, self.first = np.arange(m), np.arange(0, m * size, size)[:, None]
        self.f, self.f0, self.fw = S[:, :, 0], S[:, 0, 0], S[:, -1, 0]
        self.head, self.last, self.flat = S[:, :-1, 1:], S[:, -1], S.reshape(m * size, -1)
        self.points, self.ends, self.w = C[:, :_W, 1:], C[:, _W:], C[:, _W, None, 1:]
        F = C[:, :, 0]
        self.values, self.fr, self.fr_col, self.f_ends = F[:, :_W], F[:, _R], F[:, :1], F[:, _W:]
        self.f_e_ic, self.f_r_w, self.f_oc = F[:, _E:_W:2], F[:, :_W + 1:_W], F[:, _OC]
        self.b_ends, self.b_e_ic, self.b_oc, self.b_second = B[:, :3], B[:, 3:5], B[:, 5], B[:, 3:6]

    def keep(self, live):
        """The live rows, moved to the front of the same buffers."""
        k = np.count_nonzero(live)
        self.S[:k] = self.S[live]
        return _Simplices(*(a[:k] for a in (self.S, self.T, self.C, self.B)))

    def sort(self):
        """Order each simplex by value with SciPy's argsort."""
        ind = self.f.argsort(1)
        ind += self.first
        self.flat.take(ind, 0, out=self.T, mode="clip")
        self.S[...] = self.T

    def table_index(self, reflection_only=False):
        """Each row's _STEP_TABLE index from the values in its step block.

        With reflection_only the second point's comparisons count as true, so the table
        gives the point SciPy evaluates second, or _R where it evaluates none.
        """
        np.less(self.fr_col, self.f_ends, self.b_ends)
        if reflection_only:
            self.b_second[...] = True
        else:
            np.less(self.f_e_ic, self.f_r_w, self.b_e_ic)
            np.less_equal(self.f_oc, self.fr, self.b_oc)
        return np.packbits(self.B, bitorder="little")


def _lockstep_nelder_mead(objective, x0: np.ndarray, max_iter: int):
    """Nelder-Mead from every row of x0 at once, with batched objective calls.

    Row r repeats, operation for operation, SciPy's
    ``minimize(objective, x0[r], method="Nelder-Mead")`` with maxiter=max_iter,
    maxfev=4*max_iter and the SIMPLEX_ tolerances: the same vertex arithmetic,
    comparisons, sorts and budget cut-offs.  A step builds the four candidate
    points of every live row.  Up to FUSED_STEP_MAX_MODES modes one objective call
    evaluates all of them and the second point is selected, not evaluated; larger
    fits evaluate the reflections in one call and then the second points in
    another.  SciPy's comparisons index _STEP_TABLE, which gives the new last
    vertex, the calls SciPy makes and whether the simplex shrinks.  The budget
    counts only the points SciPy evaluates.  Returns (x, fun, nit, success), one
    entry per row, bitwise equal to that call's fields.
    """
    m, n = x0.shape
    x, fun, nits, success = np.empty((m, n)), np.empty(m), np.empty(m, int), np.empty(m, bool)
    if not m:
        return x, fun, nits, success
    maxfev = 4 * max_iter
    fused = n <= FUSED_STEP_MAX_MODES
    s = _Simplices(np.empty((m, n + 1, 1 + n)), np.empty((m, n + 1, 1 + n)), np.zeros((m, 7, 1 + n)),
                   np.zeros((m, 8), bool))
    s.S[:, :, 0], s.S[:, :, 1:] = np.inf, x0[:, None]
    k = np.arange(1, n + 1)
    s.S[:, k, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    count = min(n + 1, maxfev)  # the budget may end before the last vertex
    for j in range(count):
        s.S[:, j, 0] = objective(s.S[:, j, 1:])
    s.sort()
    s.sort()  # SciPy sorts the first simplex twice
    ends = np.array([n, 0, n - 1])  # the worst, best and second-worst vertex
    rows, fcalls, lost = np.arange(m), np.full(m, count), np.zeros(m, int)
    step = 0
    while True:
        # a row has made at most count + step*(n+2) calls and step+1 iterations so far,
        # so the budget tests below cannot fire until these bounds reach the budget
        tight = count + step * (n + 2) >= maxfev - 1 or step + 1 >= max_iter
        step += 1
        # rows are sorted ascending, NaN last: SciPy's max|f_j - f_0| is the last minus the first
        spread = s.fw - s.f0
        if tight or np.fmin.reduce(spread) <= SIMPLEX_FATOL:
            nit = step - lost  # a row's iterations so far
            done = spread <= SIMPLEX_FATOL
            if np.logical_or.reduce(done):
                size = np.maximum.reduce(np.abs(s.S[:, 1:, 1:] - s.S[:, :1, 1:]), (1, 2))
                done &= size <= SIMPLEX_XATOL
            if tight:
                done |= (fcalls >= maxfev) | (nit >= max_iter)
            if np.logical_or.reduce(done):
                r = rows[done]
                x[r], fun[r], nits[r] = s.S[done, 0, 1:], np.minimum.reduce(s.f[done], 1), nit[done]
                success[r] = (fcalls[done] < maxfev) & (nit[done] < max_iter)
                live = ~done
                rows, fcalls, lost = rows[live], fcalls[live], lost[live]
                if not rows.size:
                    break
                s = s.keep(live)
        xbar = np.add.reduce(s.head, 1) / n
        s.S.take(ends, 1, out=s.ends, mode="clip")
        np.subtract(_STEP_C1 * xbar[:, None], _STEP_C2 * s.w, s.points)
        if fused:
            s.values[...] = objective(s.points)
        else:  # the reflections, then the second points in a call of their own
            s.fr[...] = objective(s.points[:, _R])
            kind = _STEP_TABLE[0].take(s.table_index(reflection_only=True))
            go = kind != _R
            if tight:
                go &= fcalls < maxfev - 1  # else the second point overruns the budget
            go = go.nonzero()[0]
            if go.size:
                s.C[go, kind[go], 0] = objective(s.points[go, kind[go]])
        act = _STEP_TABLE.take(s.table_index(), 1)
        vertex, calls, shrink = act
        if tight:  # SciPy stops before a second point that would overrun the budget
            cut = (calls == 2) & (fcalls >= maxfev - 1)
            act[:, cut] = _BUDGET_CUT
            lost += cut
        fcalls += calls
        s.last[...] = s.C[s.at, vertex]
        shrink = shrink.nonzero()[0]
        if shrink.size:
            S, budget = s.S, maxfev - fcalls[shrink]
            for j in range(1, n + 1):  # vertex j is written before its call, which may overrun
                reach, call = shrink[budget >= j - 1], shrink[budget >= j]
                S[reach, j, 1:] = S[reach, 0, 1:] + 0.5 * (S[reach, j, 1:] - S[reach, 0, 1:])
                if call.size:
                    S[call, j, 0] = objective(S[call, j, 1:])
            fcalls[shrink] += np.minimum(budget, n)
            lost[shrink[budget < n]] += 1
        s.sort()
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
