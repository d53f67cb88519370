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

from .fock import MAX_MODES, integer
from .free_fermion import greedy_single_particle_gaps, subset_sums
from .spectra import ProbabilitySpectrum, inverse_temperature

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
    ``max_iter`` is each restart's only budget: its Nelder-Mead iterations,
    with no separate cap on objective evaluations.
    """

    seed: int = 1234
    restarts: int = 16
    max_iter: int = 5000

    def __post_init__(self):
        for name, lowest in (("seed", 0), ("restarts", 1), ("max_iter", 1)):
            object.__setattr__(self, name, integer(name, getattr(self, name), lowest))


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
    return 0.5 * float(np.abs(np.pad(pv, (0, n - pv.size)) - np.pad(qv, (0, n - qv.size))).sum())


def df_upper_bound() -> float:
    """Largest interaction distance any spectrum can attain: 3 - 2*sqrt(2)."""
    return 3.0 - 2.0 * math.sqrt(2.0)


def _pseudo_levels(probs: np.ndarray, beta: float) -> np.ndarray:
    """Effective free levels -ln(p_k / p_max) / beta of descending probs, ascending."""
    p = probs[probs > 0.0]
    return np.log(p[0] / p) / beta


#: Most subset-sum levels one objective call holds at once (32 MB of float64); a larger
#: batch is evaluated in row chunks, so a fit at MAX_MODES = 20 holds 4 rows at a time.
OBJECTIVE_LEVEL_BUDGET = 1 << 22


def _objective_factory(target_desc: np.ndarray, beta: float):
    target = np.ascontiguousarray(target_desc[::-1])  # ascending; zeros lead

    def objective(eps: np.ndarray):
        # one value per row of eps, a scalar for 1-D eps; rows are independent, so a
        # chunk's values are bitwise those of the whole batch
        rows = max(1, OBJECTIVE_LEVEL_BUDGET >> eps.shape[-1])
        if math.prod(eps.shape[:-1]) > rows:
            flat = eps.reshape(-1, eps.shape[-1])
            values = [objective(flat[i:i + rows]) for i in range(0, len(flat), rows)]
            return np.concatenate(values).reshape(eps.shape[:-1])
        # boltzmann_weights is inlined and worked in place: a fit makes hundreds to
        # thousands of batched calls
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
    """SciPy's Nelder-Mead step from its comparisons: (new last vertex, shrink).

    f0, fs and fw are the best, second-worst and worst vertex values.  A comparison
    with NaN is false, so a NaN reflection contracts inside and a NaN contraction
    shrinks.  A shrink keeps w as the last vertex, then moves every vertex but the best.
    """
    if fr_lt_f0:
        return (_E if fe_lt_fr else _R), 0
    if fr_lt_fs:
        return _R, 0
    if fr_lt_fw:
        return (_OC, 0) if foc_le_fr else (_W, 1)
    return (_IC, 0) if fic_lt_fw else (_W, 1)


#: _scipy_step for each of the 64 outcomes of its comparisons (argument k is bit k of
#: the index), one column per outcome.
_STEP_TABLE = np.array([_scipy_step(*(i >> k & 1 for k in range(6))) for i in range(64)]).T


class _Simplices:
    """The live rows' simplices and step blocks, and the views a step works through.

    Row r's simplex S[r] is an (n+1, 1+n) block, each vertex its value and then its
    point, sorted by value (NaN last) between steps.  Its step block C[r] holds the
    _R.._W slots, value first, and B[r] _scipy_step's comparisons, one per bit.  The
    views are taken once per set of live rows: slicing costs as much as the small ufunc
    calls of a step.
    """

    def __init__(self, S, C, B):
        self.S, self.C, self.B = S, C, B
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
        return _Simplices(*(a[:k] for a in (self.S, self.C, self.B)))

    def sort(self):
        """Order each simplex by value with SciPy's argsort."""
        ind = self.f.argsort(1)
        ind += self.first
        self.S[...] = self.flat.take(ind, 0)

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

    Row r repeats, operation for operation, SciPy's ``minimize(objective, x0[r],
    method="Nelder-Mead")`` with maxiter=max_iter and the SIMPLEX_ tolerances: the
    same vertex arithmetic, comparisons and sorts.  max_iter is the only budget, as
    in SciPy when only maxiter is given.  One call evaluates every row's first
    simplex; like every call, it holds at most OBJECTIVE_LEVEL_BUDGET subset sums at
    a time.  A step builds the four candidate points of every live row.  Up to
    FUSED_STEP_MAX_MODES modes one objective call evaluates all of them and the second
    point is selected, not evaluated; larger fits evaluate the reflections in one call
    and then the second points in another.  SciPy's comparisons index _STEP_TABLE,
    which gives the new last vertex and whether the simplex shrinks; a shrink is one
    call on every moved vertex.  Returns (x, fun, nit, success), one entry per row,
    bitwise equal to that call's fields.
    """
    m, n = x0.shape
    x, fun, nits, success = np.empty((m, n)), np.empty(m), np.empty(m, int), np.empty(m, bool)
    if not m:
        return x, fun, nits, success
    fused = n <= FUSED_STEP_MAX_MODES
    s = _Simplices(np.empty((m, n + 1, 1 + n)), np.zeros((m, 7, 1 + n)), np.zeros((m, 8), bool))
    s.S[:, :, 1:] = x0[:, None]
    k = np.arange(1, n + 1)
    s.S[:, k, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    s.f[...] = objective(s.S[:, :, 1:])
    s.sort()
    s.sort()  # SciPy sorts the first simplex twice
    ends = np.array([n, 0, n - 1])  # the worst, best and second-worst vertex
    rows, nit = np.arange(m), 0
    while True:
        nit += 1  # every live row's iterations so far
        # rows are sorted ascending, NaN last: SciPy's max|f_j - f_0| is the last minus the first
        spread = s.fw - s.f0
        if nit >= max_iter or np.fmin.reduce(spread) <= SIMPLEX_FATOL:
            size = np.maximum.reduce(np.abs(s.S[:, 1:, 1:] - s.S[:, :1, 1:]), (1, 2))
            done = ((spread <= SIMPLEX_FATOL) & (size <= SIMPLEX_XATOL)) | (nit >= max_iter)
            if np.logical_or.reduce(done):
                r = rows[done]
                x[r], fun[r], nits[r] = s.S[done, 0, 1:], np.minimum.reduce(s.f[done], 1), nit
                success[r] = nit < max_iter
                live = ~done
                rows = rows[live]
                if not rows.size:
                    return x, fun, nits, success
                s = s.keep(live)
        xbar = np.add.reduce(s.head, 1) / n
        s.S.take(ends, 1, out=s.ends, mode="clip")
        np.subtract(_STEP_C1 * xbar[:, None], _STEP_C2 * s.w, s.points)
        if fused:
            s.values[...] = objective(s.points)
        else:  # the reflections, then the second points in a call of their own
            s.fr[...] = objective(s.points[:, _R])
            kind = _STEP_TABLE[0].take(s.table_index(reflection_only=True))
            go = (kind != _R).nonzero()[0]
            if go.size:
                s.C[go, kind[go], 0] = objective(s.points[go, kind[go]])
        vertex, shrink = _STEP_TABLE.take(s.table_index(), 1)
        s.last[...] = s.C[s.at, vertex]
        shrink = shrink.nonzero()[0]
        if shrink.size:
            best, moved = s.S[shrink, :1, 1:], s.S[shrink, 1:, 1:]
            s.S[shrink, 1:, 1:] = best + 0.5 * (moved - best)
            s.S[shrink, 1:, 0] = objective(s.S[shrink, 1:, 1:])
        s.sort()


def interaction_distance(rho, n_free_modes: Optional[int] = None, beta: float = 1.0,
                         opts: Optional[OptimizerOptions] = None) -> DistanceResult:
    """Minimal trace distance from a spectrum to any free Gibbs spectrum.

    Parameters
    ----------
    rho          : ProbabilitySpectrum (or normalized vector), thermal or
                   entanglement.  For entanglement spectra use beta = 1.
    n_free_modes : number of variational single-particle energies, an integer
                   but not a bool; defaults to ceil(log2 len(rho)).
                   2**n_free_modes must cover len(rho); anything smaller would
                   discard weight and is an error rather than a silent
                   truncation.
    beta         : inverse temperature of the Gibbs comparison.
    opts         : OptimizerOptions; defaults are deterministic.

    The search runs a derivative-free simplex descent from several starts: a greedy
    gap decomposition of the input spectrum, random perturbations of it, and uniform
    draws over the resolved level range.  Only the starts before the first one whose
    objective is already at most FLOOR_TOL are searched: D >= 0, so no descent can
    improve on it by more than FLOOR_TOL.  A zero-mode fit has nothing to vary, so it
    takes the same exit at its first start, whatever that start scores.  The searches
    advance in lockstep on batched objective calls, each with the arithmetic of
    SciPy's Nelder-Mead from its start.  The merge takes the best search result, the
    first in restart order among equals, so the outcome is reproducible for a fixed
    seed; a search never ends above its start.  A fit that would overflow or make an
    invalid value (a tiny beta puts the pseudo-levels near the float maximum) raises
    a ValueError that names beta instead.
    """
    probs = _as_probs(rho)
    beta = inverse_temperature(beta)
    if n_free_modes is None:
        n_free_modes = math.ceil(math.log2(probs.size))
    n_free_modes = integer("n_free_modes", n_free_modes, 0, MAX_MODES)
    if (1 << n_free_modes) < probs.size:
        raise ValueError(
            f"2^{n_free_modes} free levels cannot cover a spectrum of size {probs.size}"
        )
    opts = opts or OptimizerOptions()

    target = np.pad(probs, (0, (1 << n_free_modes) - probs.size))
    objective = _objective_factory(target, beta)
    try:
        with np.errstate(over="raise", invalid="raise"):
            levels = _pseudo_levels(probs, beta)
            top = levels[-1]
            filler = top + _NEGLIGIBLE_EXPONENT / beta
            guess = greedy_single_particle_gaps(levels, n_free_modes, filler=filler)
            span = max(top, MIN_START_SPAN)
            rng = np.random.default_rng(opts.seed)
            n_perturbed = (opts.restarts - 1) // 2
            noise = rng.standard_normal((n_perturbed, 2, n_free_modes))  # relative, absolute
            starts = np.concatenate([
                guess[None], guess * (1.0 + 0.2 * noise[:, 0]) + 0.05 * span * noise[:, 1],
                rng.uniform(0.0, span, (opts.restarts - 1 - n_perturbed, n_free_modes))])
            v0 = objective(starts)
            at_floor = np.flatnonzero((v0 <= FLOOR_TOL) | (n_free_modes == 0))
            searched = at_floor[0] if at_floor.size else len(starts)
            x, fun, nit, success = _lockstep_nelder_mead(objective, starts[:searched],
                                                         opts.max_iter)
    except FloatingPointError as exc:
        raise ValueError(f"beta={beta} takes the fit out of the float range: {exc}") from None
    best_value, best_x, best_success = np.inf, None, False
    if searched:
        i = fun.argmin()  # the first of equal minima
        best_value, best_x, best_success = fun[i], x[i], success[i]
    if searched < len(starts):  # D >= 0, so the best value so far is the global minimum
        if v0[searched] < best_value:
            best_value, best_x = v0[searched], starts[searched]
        best_success = True

    return DistanceResult(float(best_value), np.sort(np.abs(best_x)), {
        "converged": bool(best_success), "restarts": opts.restarts,
        "total_iterations": int(nit.sum())})
