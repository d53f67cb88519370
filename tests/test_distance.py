import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from intdist import distance
from intdist.distance import (FLOOR_TOL, FUSED_STEP_MAX_MODES, SIMPLEX_FATOL, SIMPLEX_XATOL,
                              DistanceResult, OptimizerOptions, _lockstep_nelder_mead,
                              _objective_factory, df_upper_bound, interaction_distance,
                              trace_distance_sorted)
from intdist.free_fermion import FreeSpectrumParams, free_probabilities, subset_sums
from intdist.models import DimerParams, hubbard_dimer
from intdist.spectra import exact_diagonalize, thermal_probabilities

SQRT2 = np.sqrt(2.0)

# independent dense grid search over two mode energies, resolution 1e-3 on
# [0, 8]^2, for the dimer thermal spectrum at coupling 2 (run once, frozen)
GRID_ORACLE_V2 = 0.0072727136

FAST = OptimizerOptions(restarts=6)


def _random_probs(rng, n):
    p = rng.random(n)
    return p / p.sum()


def _dimer_thermal(v, beta=1.0):
    h, _ = hubbard_dimer(DimerParams(v=v))
    return thermal_probabilities(exact_diagonalize(h, keep_vectors=False).energies, beta)


def test_trace_distance_identical_is_zero():
    p = np.array([0.5, 0.3, 0.2])
    assert trace_distance_sorted(p, p) == 0.0


def test_trace_distance_simple_value():
    assert trace_distance_sorted([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.5)


def test_trace_distance_sorting_matters():
    assert trace_distance_sorted([0.7, 0.3], [0.3, 0.7]) == 0.0


def test_trace_distance_zero_padding():
    assert trace_distance_sorted([1.0], [0.5, 0.5]) == pytest.approx(0.5)
    assert trace_distance_sorted([0.6, 0.4], [0.6, 0.4, 0.0, 0.0]) == 0.0
    assert trace_distance_sorted([1.0, -1e-15], [1.0]) == 0.0  # clamped, as ProbabilitySpectrum


def test_trace_distance_rejects_unnormalized():
    with pytest.raises(ValueError, match="not a normalized"):
        trace_distance_sorted([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(ValueError, match="not a normalized"):
        trace_distance_sorted([1.0], [0.5, 0.5 + 5e-10])


def test_trace_distance_metric_axioms():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        p = _random_probs(rng, n)
        q = _random_probs(rng, n)
        r = _random_probs(rng, n)
        dpq = trace_distance_sorted(p, q)
        assert 0.0 <= dpq <= 1.0
        assert dpq == pytest.approx(trace_distance_sorted(q, p), abs=1e-15)
        assert trace_distance_sorted(p, q) <= (trace_distance_sorted(p, r)
                                               + trace_distance_sorted(r, q) + 1e-12)
    # identity of indiscernibles on sorted multisets
    p = _random_probs(rng, 8)
    shuffled = np.random.default_rng(1).permutation(p)
    assert trace_distance_sorted(p, shuffled) == 0.0


def test_trace_distance_sorted_matching_is_optimal():
    # brute force over permutations confirms descending-descending pairing
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = np.sort(_random_probs(rng, n))[::-1]
        q = _random_probs(rng, n)
        best = min(0.5 * np.abs(p - np.array(perm)).sum()
                   for perm in itertools.permutations(q))
        assert trace_distance_sorted(p, q) == pytest.approx(best, abs=1e-12)


def test_trace_distance_tie_invariance():
    p = [0.25, 0.25, 0.25, 0.25]
    q = [0.4, 0.3, 0.2, 0.1]
    reference = trace_distance_sorted(p, q)
    for perm in itertools.permutations(q):
        assert trace_distance_sorted(p, perm) == reference


def test_df_upper_bound_value():
    assert df_upper_bound() == 3.0 - 2.0 * math.sqrt(2.0)
    assert df_upper_bound() == pytest.approx(0.1715728752538097, abs=1e-12)


def test_free_member_has_zero_distance():
    params = FreeSpectrumParams(0.0, [0.9, 2.1])
    rho = free_probabilities(params, 1.3)
    res = interaction_distance(rho, 2, 1.3, FAST)
    assert res.value <= 1e-8
    np.testing.assert_allclose(res.optimal_epsilons, [0.9, 2.1], atol=1e-6)


def test_dimer_free_point_distance_vanishes():
    res = interaction_distance(_dimer_thermal(0.0), 2, 1.0, FAST)
    assert res.value <= 1e-8


def test_dimer_interacting_point_matches_grid_oracle():
    res = interaction_distance(_dimer_thermal(2.0), 2, 1.0)
    assert res.value == pytest.approx(GRID_ORACLE_V2, abs=1e-3)
    assert res.value <= GRID_ORACLE_V2 + 1e-9  # grid value upper-bounds the minimum


def test_default_mode_count_covers_input():
    rho = _dimer_thermal(1.0)
    res = interaction_distance(rho, beta=1.0, opts=FAST)  # default n = ceil(log2 4)
    assert res.optimal_epsilons.size == 2


def test_rejects_too_few_modes():
    rho = _dimer_thermal(1.0)
    with pytest.raises(ValueError, match="cannot cover"):
        interaction_distance(rho, 1, 1.0)


def test_rejects_bad_beta_and_input():
    rho = _dimer_thermal(1.0)
    with pytest.raises(ValueError, match="beta"):
        interaction_distance(rho, 2, 0.0)
    with pytest.raises(ValueError, match="not a normalized"):
        interaction_distance(np.array([0.7, 0.7]), 2, 1.0)
    with pytest.raises(ValueError, match="not a normalized"):
        interaction_distance(np.array([0.5, 0.5 + 5e-10]), 1, 1.0)


def test_rejects_mode_count_beyond_cap():
    # refused before the 2**35-entry target is allocated
    with pytest.raises(ValueError, match="MAX_MODES=20"):
        interaction_distance(np.array([1.0]), 35)


def test_single_entry_spectrum_needs_no_modes():
    res = interaction_distance(np.array([1.0]), 0, 1.0)
    assert res.value == 0.0
    assert res.optimal_epsilons.size == 0
    assert interaction_distance(np.array([1.0, -1e-15]), 1, 1.0, FAST).value <= 1e-12


def test_zero_padding_leaves_value_unchanged():
    rho = _dimer_thermal(2.0)
    res2 = interaction_distance(rho, 2, 1.0)
    padded = np.concatenate([rho.probs, np.zeros(4)])
    res3 = interaction_distance(padded, 3, 1.0)
    assert abs(res2.value - res3.value) <= 1e-10


def test_objective_reproducible_at_reported_minimizer():
    rho = _dimer_thermal(2.0)
    res = interaction_distance(rho, 2, 1.0)
    regenerated = free_probabilities(FreeSpectrumParams(0.0, res.optimal_epsilons), 1.0)
    assert trace_distance_sorted(rho, regenerated) == pytest.approx(res.value, abs=1e-10)


def test_deterministic_for_fixed_seed():
    rho = _dimer_thermal(1.7)
    a = interaction_distance(rho, 2, 1.0, OptimizerOptions(seed=99))
    b = interaction_distance(rho, 2, 1.0, OptimizerOptions(seed=99))
    assert a.value == b.value
    np.testing.assert_array_equal(a.optimal_epsilons, b.optimal_epsilons)
    assert a.optimizer_info == b.optimizer_info


def test_optimizer_info_fields():
    res = interaction_distance(_dimer_thermal(0.5), 2, 1.0, FAST)
    info = res.optimizer_info
    assert set(info) == {"converged", "restarts", "total_iterations"}
    assert info["restarts"] == 6
    assert isinstance(res, DistanceResult)


def test_free_point_recovery_quick_sample():
    # broader 200-case suite lives in the acceptance tests
    rng = np.random.default_rng(43)
    for case in range(20):
        nf = int(rng.integers(1, 5))
        eps = rng.uniform(-5, 5, nf)
        beta = rng.uniform(0.1, 10.0)
        rho = free_probabilities(FreeSpectrumParams(0.0, eps), beta)
        res = interaction_distance(rho, nf, beta, OptimizerOptions(seed=case, restarts=6))
        assert res.value <= 1e-6


def test_values_respect_universal_bound():
    for v in (0.0, 1.0, 2.5, 6.0):
        res = interaction_distance(_dimer_thermal(v), 2, 1.0, FAST)
        assert res.value <= df_upper_bound() + 1e-6


def test_canonical_epsilons_are_sorted_absolute_values():
    rho = free_probabilities(FreeSpectrumParams(0.0, [-1.5, 0.4]), 2.0)
    res = interaction_distance(rho, 2, 2.0, FAST)
    assert res.value <= 1e-7
    np.testing.assert_allclose(res.optimal_epsilons, [0.4, 1.5], atol=1e-5)
    assert (np.diff(res.optimal_epsilons) >= 0).all()


def test_options_validation():
    with pytest.raises(ValueError, match="^restarts must be >= 1"):
        OptimizerOptions(restarts=0)
    with pytest.raises(ValueError, match="^max_iter must be >= 1"):
        OptimizerOptions(max_iter=0)
    with pytest.raises(ValueError, match="^seed must be >= 0"):
        OptimizerOptions(seed=-1)


@pytest.mark.parametrize("field, value", [
    # without the check a float reaches range() or numpy's generator or becomes a
    # fractional budget, and True is reported as the restart count
    ("restarts", 2.5), ("max_iter", 10.5), ("restarts", True), ("seed", 1.5),
    ("max_iter", np.True_), ("seed", "7"),
])
def test_options_reject_non_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        OptimizerOptions(**{field: value})


def test_options_store_numpy_integers_as_plain_ints():
    opts = OptimizerOptions(seed=np.uint64(7), restarts=np.int32(3), max_iter=np.int64(40))
    assert (opts.seed, opts.restarts, opts.max_iter) == (7, 3, 40)
    assert all(type(v) is int for v in (opts.seed, opts.restarts, opts.max_iter))
    assert interaction_distance(_dimer_thermal(0.5), 2, 1.0, opts).optimizer_info["restarts"] == 3


def test_objective_matches_allocating_expression_bitwise():
    rng = np.random.default_rng(44)
    for _ in range(2000):
        n = int(rng.integers(0, 9))
        beta = rng.uniform(0.1, 10.0)
        target = np.sort(_random_probs(rng, 1 << n))[::-1]
        eps = rng.uniform(-5.0, 5.0, n)
        eps[rng.random(n) < 0.1] = 0.0
        levels = subset_sums(eps)
        w = np.exp(-beta * (levels - levels.min()))
        q = w / w.sum()
        q.sort()
        expected = 0.5 * float(np.abs(np.sort(target) - q).sum())
        assert _objective_factory(target, beta)(eps) == expected


def test_start_at_the_floor_stops_the_search():
    # a pure state: the greedy start parks both modes and already scores ~1e-20
    res = interaction_distance(np.array([1.0, 0.0, 0.0, 0.0]), 2, 1.0)
    info = res.optimizer_info
    assert res.value <= FLOOR_TOL
    np.testing.assert_array_equal(res.optimal_epsilons, [46.0, 46.0])
    assert info["converged"] and info["total_iterations"] == 0
    assert info["restarts"] == OptimizerOptions().restarts
    # the dimer free point: the greedy start is exact, so no simplex runs either
    free = interaction_distance(_dimer_thermal(0.0), 2, 1.0)
    assert free.value == 0.0 and free.optimizer_info["total_iterations"] == 0


def test_batched_subset_sums_and_objective_rows_match_1d_calls_bitwise():
    rng = np.random.default_rng(45)
    for _ in range(300):
        n = int(rng.integers(0, 9))
        beta = rng.uniform(0.1, 10.0)
        target = np.sort(_random_probs(rng, 1 << n))[::-1]
        eps = rng.uniform(-5.0, 5.0, (int(rng.integers(1, 20)), n))
        eps[rng.random(eps.shape) < 0.1] = 0.0
        objective = _objective_factory(target, beta)
        sums, values = subset_sums(eps), objective(eps)
        assert sums.shape == (eps.shape[0], 1 << n) and values.shape == (eps.shape[0],)
        for row, row_sums, value in zip(eps, sums, values):
            assert row_sums.tobytes() == subset_sums(row).tobytes()
            assert value == objective(row)
        stacked = subset_sums(np.stack([eps, -eps]))
        assert stacked[0].tobytes() == sums.tobytes()
        assert stacked[1].tobytes() == subset_sums(-eps).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.sampled_from([1, 2, 3, 40, 5000]), st.floats(0.1, 10.0),
       st.integers(0, 2**32 - 1))
@example(6, 2, 1.0, 8)  # 7 vertex calls and a reflection leave no call for the second point
# the largest fused fit and the smallest two-call one, with budgets that end
# before the simplex is complete, before the second point and inside a shrink
@example(6, 1, 1.0, 9)
@example(6, 3, 0.7, 10)
@example(7, 1, 1.0, 11)
@example(7, 2, 1.0, 12)
@example(7, 3, 0.7, 13)
def test_lockstep_search_matches_scipy_nelder_mead_bitwise(n, max_iter, beta, seed):
    # max_iter=1 leaves 4 calls, fewer than the 6+ vertices of a 5+ mode simplex
    rng = np.random.default_rng(seed)
    target = np.sort(_random_probs(rng, 1 << n) ** 4)[::-1]
    objective = _objective_factory(target / target.sum(), beta)
    x0 = rng.uniform(0.0, 5.0, (3, n))
    x0[rng.random(x0.shape) < 0.15] = 0.0  # a zero coordinate gets the absolute step
    # a parked mode's Gibbs weight underflows to 0: along it the objective is
    # flat, which makes ties; with all modes parked every step shrinks, and the
    # small budgets run out inside a shrink
    x0[1, rng.random(n) < 0.5] = 850.0 / beta
    x0[2] = rng.uniform(800.0, 900.0, n) / beta
    x, fun, nit, success = _lockstep_nelder_mead(objective, x0, max_iter)
    for r, start in enumerate(x0):
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"maxiter": max_iter, "maxfev": 4 * max_iter,
                                "xatol": SIMPLEX_XATOL, "fatol": SIMPLEX_FATOL})
        assert res.x.tobytes() == x[r].tobytes()
        assert np.float64(res.fun).tobytes() == fun[r].tobytes()
        assert (res.nit, res.success) == (nit[r], success[r])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.sampled_from([1, 2, 3, 40, 300]), st.integers(0, 2**32 - 1))
@example(2, 300, 14)
@example(7, 40, 15)
def test_lockstep_search_matches_scipy_on_nan_and_inf_values(n, max_iter, seed):
    # NaN beyond a plane and +inf below a wall: a comparison with NaN is false, so a NaN
    # reflection contracts inside and a NaN contraction shrinks; NaN sorts last, after inf
    rng = np.random.default_rng(seed)
    target = np.sort(_random_probs(rng, 1 << n) ** 4)[::-1]
    objective = _objective_factory(target / target.sum(), 1.0)
    seen = set()

    def walled(eps):
        value = np.where(np.add.reduce(eps, -1) > 2.5 * n, np.nan, objective(eps))
        value = np.where(eps[..., 0] < 0.3, np.inf, value)
        seen.update(np.unique(value[~np.isfinite(value)]).tolist())
        return value

    x0 = rng.uniform(0.0, 5.0, (3, n))
    x0[0] = 2.5 - 0.01 / n  # its first simplex has NaN vertices
    x0[1, 0] = 0.29  # the start itself is +inf
    x, fun, nit, success = _lockstep_nelder_mead(walled, x0, max_iter)
    assert math.inf in seen and any(math.isnan(v) for v in seen)
    for r, start in enumerate(x0):
        res = minimize(walled, start, method="Nelder-Mead",
                       options={"maxiter": max_iter, "maxfev": 4 * max_iter,
                                "xatol": SIMPLEX_XATOL, "fatol": SIMPLEX_FATOL})
        assert res.x.tobytes() == x[r].tobytes()
        assert np.float64(res.fun).tobytes() == fun[r].tobytes()
        assert (res.nit, res.success) == (nit[r], success[r])


@pytest.mark.parametrize("n", [2, FUSED_STEP_MAX_MODES + 1])
def test_fused_step_makes_one_objective_call(n):
    # up to FUSED_STEP_MAX_MODES modes a step is one call on every live row's four
    # candidates; only a shrink adds calls, one per moved vertex.  Larger fits call
    # on the reflections and then on the second points.
    rng = np.random.default_rng(46)
    target = np.sort(_random_probs(rng, 1 << n) ** 4)[::-1]
    objective = _objective_factory(target / target.sum(), 1.0)
    shapes = []

    def recorded(eps):
        shapes.append(eps.shape)
        return objective(eps)

    x0 = rng.uniform(0.0, 3.0, (5, n))
    _, _, nit, success = _lockstep_nelder_mead(recorded, x0, 5000)
    assert success.all()
    calls = shapes[n + 1:]  # after the vertices of the first simplex
    steps = [i for i, shape in enumerate(calls) if len(shape) == 3]
    if n > FUSED_STEP_MAX_MODES:  # no call holds more points than there are rows
        assert not steps and all(shape[0] <= len(x0) for shape in calls)
        return
    assert len(steps) == nit.max() - 1  # every step counts an iteration of each live row
    assert all(calls[i][1:] == (4, n) for i in steps)
    between = np.diff(steps + [len(calls)]) - 1
    assert set(between) <= {0, n} and n in between  # 0 extra calls, or a shrink's n


@pytest.mark.parametrize("case", ["seven modes", "floor start"])
def test_no_objective_call_on_zero_rows(monkeypatch, case):
    # a step in which no row has a second point, a shrink whose budget allows no call
    # and a fit whose first start is already at the floor make no call on an empty batch
    shapes = []

    def recorded(eps):
        shapes.append(np.shape(eps))
        return subset_sums(eps)

    monkeypatch.setattr(distance, "subset_sums", recorded)  # every objective call makes one
    if case == "floor start":
        res = interaction_distance(np.array([1.0, 0.0, 0.0, 0.0]), 2, 1.0)
        assert res.optimizer_info["total_iterations"] == 0
    else:
        rng = np.random.default_rng(47)
        target = _random_probs(rng, 1 << 7) ** 4
        interaction_distance(target / target.sum(), 7, 1.0, OptimizerOptions(restarts=4, max_iter=300))
    assert shapes and all(len(shape) == 1 or shape[0] for shape in shapes)

