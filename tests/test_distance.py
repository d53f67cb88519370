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
from intdist.free_fermion import (FreeSpectrumParams, free_probabilities,
                                  greedy_single_particle_gaps, subset_sums)
from intdist.models import DimerParams, hubbard_dimer
from intdist.spectra import ProbabilitySpectrum, exact_diagonalize, thermal_probabilities

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
    with pytest.raises(ValueError, match="not a normalized"):
        trace_distance_sorted([np.nan, 1.0], [1.0])


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
    # refused up front, not searched by every restart up to the iteration cap
    with pytest.raises(ValueError, match="not a normalized"):
        interaction_distance(np.array([np.nan, 0.5, 0.5, 0.0]), 2, 1.0)


def test_fit_beyond_the_float_range_names_beta():
    # pseudo-levels of ln(p_max / p) / beta near the float maximum overflow in the search
    with pytest.raises(ValueError, match="beta"):
        interaction_distance([0.5, 0.3, 0.2, 0.0], None, 1e-308)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta", [1e-307, 1e-300])
def test_fit_at_a_tiny_beta_within_the_float_range(beta):
    res = interaction_distance([0.5, 0.3, 0.2, 0.0], None, beta)
    assert math.isfinite(res.value) and np.isfinite(res.optimal_epsilons).all()


@pytest.mark.parametrize("n_free_modes", [2.0, True, np.True_, "2", -1])
def test_rejects_bad_mode_count(n_free_modes):
    # a bool is not taken as 0 or 1 modes, nor a float as an integer
    with pytest.raises(ValueError, match="^n_free_modes must be"):
        interaction_distance(_dimer_thermal(1.0), n_free_modes, 1.0)


def test_numpy_integer_mode_count_gives_the_int_result():
    rho = _dimer_thermal(1.0)
    expected = interaction_distance(rho, 2, 1.0, FAST)
    for n_free_modes in (np.int64(2), np.uint8(2)):
        res = interaction_distance(rho, n_free_modes, 1.0, FAST)
        assert res.value == expected.value and res.optimizer_info == expected.optimizer_info
        assert res.optimal_epsilons.tobytes() == expected.optimal_epsilons.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_shuffled_vector_gives_the_result_of_its_spectrum_bitwise(n, beta, seed):
    # the fit takes ProbabilitySpectrum's descending order as given
    rng = np.random.default_rng(seed)
    probs = _random_probs(rng, int(rng.integers(1, (1 << n) + 1)))
    probs[1:][rng.random(probs.size - 1) < 0.2] = 0.0  # empty levels, never all of them
    probs /= probs.sum()
    opts = OptimizerOptions(seed=seed % 1000, restarts=3)
    res = interaction_distance(ProbabilitySpectrum(probs), n, beta, opts)
    shuffled = interaction_distance(rng.permutation(probs), n, beta, opts)
    assert np.float64(shuffled.value).tobytes() == np.float64(res.value).tobytes()
    assert shuffled.optimal_epsilons.tobytes() == res.optimal_epsilons.tobytes()
    assert shuffled.optimizer_info == res.optimizer_info


def test_rejects_mode_count_beyond_cap():
    # refused before the 2**35-entry target is allocated
    with pytest.raises(ValueError, match=r"n_free_modes must be in \[0, 20\], got 35"):
        interaction_distance(np.array([1.0]), 35)


def test_single_entry_spectrum_needs_no_modes():
    # a zero-mode fit leaves through the floor exit, also when its weight is off 1
    # by less than NORM_TOL and so every start scores above FLOOR_TOL
    opts = OptimizerOptions(restarts=5)
    for p in (1.0, 1 - 1e-11, 1 + 5e-11):
        for n_free_modes in (0, None):
            res = interaction_distance(np.array([p]), n_free_modes, 1.0, opts)
            assert res.value == 0.5 * abs(p - 1.0)
            assert res.optimal_epsilons.size == 0
            assert res.optimizer_info == {"converged": True, "restarts": opts.restarts,
                                          "total_iterations": 0}
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
# the largest fused fit and the smallest two-call one, with budgets of no step,
# one step and two steps: max_iter is the only budget, so a step that needs a
# second point or a shrink makes every call, however many the fit has made
@example(6, 1, 1.0, 9)
@example(6, 2, 1.0, 8)
@example(6, 3, 0.7, 10)
@example(7, 1, 1.0, 11)
@example(7, 2, 1.0, 12)
@example(7, 3, 0.7, 13)
# every step of the parked row is 10 calls, so it makes 4 * max_iter calls long before max_iter
@example(8, 40, 1.0, 16)
def test_lockstep_search_matches_scipy_nelder_mead_bitwise(n, max_iter, beta, seed):
    rng = np.random.default_rng(seed)
    target = np.sort(_random_probs(rng, 1 << n) ** 4)[::-1]
    objective = _objective_factory(target / target.sum(), beta)
    x0 = rng.uniform(0.0, 5.0, (3, n))
    x0[rng.random(x0.shape) < 0.15] = 0.0  # a zero coordinate gets the absolute step
    # a parked mode's Gibbs weight underflows to 0: along it the objective is
    # flat, which makes ties; with all modes parked every step shrinks
    x0[1, rng.random(n) < 0.5] = 850.0 / beta
    x0[2] = rng.uniform(800.0, 900.0, n) / beta
    x, fun, nit, success = _lockstep_nelder_mead(objective, x0, max_iter)
    for r, start in enumerate(x0):
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"maxiter": max_iter, "xatol": SIMPLEX_XATOL,
                                "fatol": SIMPLEX_FATOL})
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
                       options={"maxiter": max_iter, "xatol": SIMPLEX_XATOL,
                                "fatol": SIMPLEX_FATOL})
        assert res.x.tobytes() == x[r].tobytes()
        assert np.float64(res.fun).tobytes() == fun[r].tobytes()
        assert (res.nit, res.success) == (nit[r], success[r])


@pytest.mark.parametrize("n", [2, FUSED_STEP_MAX_MODES + 1])
def test_fused_step_makes_one_objective_call(n):
    # up to FUSED_STEP_MAX_MODES modes a step is one call on every live row's four
    # candidates; larger fits call on the reflections and then on the second points.
    # A shrink adds one call on the n moved vertices of every shrinking row, and the
    # first simplex is one call on the n + 1 vertices of every row.
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
    assert shapes[0] == (len(x0), n + 1, n)
    calls = shapes[1:]  # after the first simplex
    shrinks = [i for i, shape in enumerate(calls) if shape[1:] == (n, n)]
    assert shrinks and all(calls[i][0] <= len(x0) and calls[i - 1][1:] != (n, n) for i in shrinks)
    steps = [shape for i, shape in enumerate(calls) if i not in shrinks]
    if n > FUSED_STEP_MAX_MODES:  # no call holds more points than there are rows
        assert all(len(shape) == 2 and shape[0] <= len(x0) for shape in steps)
        return
    assert len(steps) == nit.max() - 1  # every step counts an iteration of each live row
    assert all(shape[1:] == (4, n) for shape in steps)


@pytest.mark.parametrize("case", ["seven modes", "floor start"])
def test_no_objective_call_on_zero_rows(monkeypatch, case):
    # a step in which no row has a second point, a step in which no row shrinks and a
    # fit whose first start is already at the floor make no call on an empty batch
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


@pytest.mark.parametrize("n", [FUSED_STEP_MAX_MODES, FUSED_STEP_MAX_MODES + 1])
def test_objective_chunks_above_the_level_budget_bitwise(monkeypatch, n):
    # with a budget of one row, every objective call on several points is made in chunks
    rng = np.random.default_rng(48)
    p = _random_probs(rng, 1 << n) ** 4
    p /= p.sum()
    opts = OptimizerOptions(seed=5, restarts=4, max_iter=200)
    sizes = []

    def recorded(eps):
        levels = subset_sums(eps)
        sizes.append(levels.size)
        return levels

    monkeypatch.setattr(distance, "subset_sums", recorded)
    whole = interaction_distance(p, n, 1.0, opts)
    assert max(sizes) > 1 << n
    sizes.clear()
    monkeypatch.setattr(distance, "OBJECTIVE_LEVEL_BUDGET", 1 << n)
    chunked = interaction_distance(p, n, 1.0, opts)
    assert max(sizes) <= 1 << n
    assert np.float64(chunked.value).tobytes() == np.float64(whole.value).tobytes()
    assert chunked.optimal_epsilons.tobytes() == whole.optimal_epsilons.tobytes()
    assert chunked.optimizer_info == whole.optimizer_info


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.floats(0.2, 5.0), st.integers(1, 8), st.sampled_from([1, 2, 40]),
       st.integers(0, 2**32 - 1))
def test_search_never_ends_above_its_start(n, beta, m, max_iter, seed):
    # why the fit's merge takes search results only: each row's start is vertex 0 of its
    # first simplex, Nelder-Mead never drops its best vertex, and fun is the value at x
    rng = np.random.default_rng(seed)
    target = np.sort(_random_probs(rng, 1 << n))[::-1]
    objective = _objective_factory(target, beta)
    starts = rng.uniform(0.0, 5.0, (m, n))
    starts[rng.random(starts.shape) < 0.2] = 0.0
    x, fun, _, _ = _lockstep_nelder_mead(objective, starts, max_iter)
    for i in range(m):
        assert fun[i] <= objective(starts[i:i + 1])[0]
        assert fun[i].tobytes() == objective(x[i:i + 1])[0].tobytes()


def _reference_starts(guess, span, restarts, seed):
    """The fit's starts drawn one restart at a time: its block draws must match them bitwise."""
    rng = np.random.default_rng(seed)
    starts = [guess]
    for _ in range((restarts - 1) // 2):
        starts.append(guess * (1.0 + 0.2 * rng.standard_normal(guess.size))
                      + 0.05 * span * rng.standard_normal(guess.size))
    while len(starts) < restarts:
        starts.append(rng.uniform(0.0, span, guess.size))
    return np.array(starts)


class _Captured(Exception):
    pass


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("restarts", [1, 2, 3, 16, 17])
def test_starts_match_the_per_restart_draws_bitwise(monkeypatch, n, restarts):
    # a constant objective puts no start at the floor, so the search gets every start
    monkeypatch.setattr(distance, "_objective_factory",
                        lambda target, beta: lambda eps: np.ones(eps.shape[:-1]))

    def capture(objective, x0, max_iter):
        raise _Captured(x0)

    monkeypatch.setattr(distance, "_lockstep_nelder_mead", capture)
    beta, seed = 0.7, 100 * n + restarts
    p = np.sort(_random_probs(np.random.default_rng(seed), 1 << n))[::-1]
    with pytest.raises(_Captured) as caught:
        interaction_distance(p, n, beta, OptimizerOptions(seed=seed, restarts=restarts))
    levels = distance._pseudo_levels(p, beta)
    filler = levels[-1] + distance._NEGLIGIBLE_EXPONENT / beta
    guess = greedy_single_particle_gaps(levels, n, filler=filler)
    expected = _reference_starts(guess, max(levels[-1], distance.MIN_START_SPAN), restarts, seed)
    x0 = caught.value.args[0]
    assert x0.shape == (restarts, n) and x0.tobytes() == expected.tobytes()
