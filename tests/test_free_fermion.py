import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdist.fock import build_basis, build_quadratic
from intdist.free_fermion import (GREEDY_MATCH_TOL, FreeSpectrumParams, _greedy_match,
                                  diagonalize_kernel, free_many_body_spectrum,
                                  free_probabilities, greedy_single_particle_gaps,
                                  match_tolerance, subset_sums)
from intdist.models import ChainParams, spinless_chain
from intdist.perturbation import LABELING_TOL, infer_free_labeling
from intdist.spectra import exact_diagonalize

SQRT2 = np.sqrt(2.0)


def free_partition_function(epsilons, beta: float) -> float:
    """Factorized partition function prod_j (1 + exp(-beta eps_j)).

    The cross-check of the brute-force sum over the 2^N subset sums; the
    reference energy is excluded, as it cancels in any normalized quantity.
    """
    return float(np.prod(1.0 + np.exp(-beta * np.asarray(epsilons, dtype=float))))


def _random_symmetric(rng, n):
    h = rng.standard_normal((n, n))
    return (h + h.T) / 2


def test_diagonalize_kernel_two_by_two():
    np.testing.assert_allclose(diagonalize_kernel([[0, -1], [-1, 0]]), [-1.0, 1.0], atol=1e-12)


def test_diagonalize_kernel_sorts_diagonal():
    np.testing.assert_allclose(diagonalize_kernel(np.diag([3.0, -1.0, 2.0])),
                               [-1.0, 2.0, 3.0], atol=1e-12)


def test_diagonalize_kernel_dimer_single_spin_block():
    np.testing.assert_allclose(diagonalize_kernel([[1.0, -1.0], [-1.0, -1.0]]),
                               [-SQRT2, SQRT2], atol=1e-12)


def test_diagonalize_kernel_rejects_nonhermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalize_kernel([[0.0, 1.0], [0.0, 0.0]])


def test_diagonalize_kernel_against_characteristic_polynomial():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5):
        h = _random_symmetric(rng, n)
        roots = np.sort(np.roots(np.poly(h)).real)
        np.testing.assert_allclose(diagonalize_kernel(h), roots, atol=1e-8)


def test_free_spectrum_two_modes():
    params = FreeSpectrumParams(e0=0.3, epsilons=[1.0, 2.5])
    np.testing.assert_allclose(np.sort(free_many_body_spectrum(params)),
                               0.3 + np.array([0.0, 1.0, 2.5, 3.5]))


def test_free_spectrum_no_modes_is_single_level():
    params = FreeSpectrumParams(e0=0.0, epsilons=[])
    np.testing.assert_allclose(free_many_body_spectrum(params), [0.0])


def test_free_spectrum_degenerate_modes():
    params = FreeSpectrumParams(e0=0.0, epsilons=[0.7, 0.7])
    np.testing.assert_allclose(np.sort(free_many_body_spectrum(params)),
                               [0.0, 0.7, 0.7, 1.4])


def test_free_spectrum_mode_cap():
    with pytest.raises(ValueError, match="too many free modes"):
        subset_sums(np.ones(21))


def _concatenated_subset_sums(epsilons):
    # the straightforward construction: append the current sums shifted by each mode
    levels = np.zeros(1)
    for e in np.asarray(epsilons, dtype=float):
        levels = np.concatenate([levels, levels + e])
    return levels


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(-50.0, 50.0, allow_subnormal=False)), max_size=12))
def test_subset_sums_match_concatenation_bitwise(eps):
    assert subset_sums(eps).tobytes() == _concatenated_subset_sums(eps).tobytes()


def test_params_canonical_ascending():
    params = FreeSpectrumParams(e0=0.0, epsilons=[3.0, -1.0, 2.0])
    np.testing.assert_allclose(params.epsilons, [-1.0, 2.0, 3.0])


def test_free_probabilities_single_mode_gibbs():
    eps, beta = 0.8, 1.7
    p = free_probabilities(FreeSpectrumParams(0.0, [eps]), beta).probs
    z = 1.0 + np.exp(-beta * eps)
    np.testing.assert_allclose(p, [1.0 / z, np.exp(-beta * eps) / z], atol=1e-14)


def test_free_probabilities_flat_for_zero_modes():
    p = free_probabilities(FreeSpectrumParams(0.0, [0.0, 0.0]), 4.2).probs
    np.testing.assert_allclose(p, [0.25] * 4, atol=1e-14)


def test_free_probabilities_match_explicit_partition_function():
    # two equal modes: weights (1, e^-be, e^-be, e^-2be) / Z_f
    eps = 2.0 * SQRT2
    beta = 1.0
    p = free_probabilities(FreeSpectrumParams(0.0, [eps, eps]), beta).probs
    zf = 1.0 + 2.0 * np.exp(-beta * eps) + np.exp(-2.0 * beta * eps)
    assert abs(zf - free_partition_function([eps, eps], beta)) < 1e-12
    expected = np.array([1.0, np.exp(-beta * eps), np.exp(-beta * eps),
                         np.exp(-2 * beta * eps)]) / zf
    np.testing.assert_allclose(p, expected, atol=1e-14)


def test_free_probabilities_sum_to_one():
    rng = np.random.default_rng(22)
    for _ in range(30):
        nf = int(rng.integers(1, 6))
        params = FreeSpectrumParams(rng.standard_normal(), rng.uniform(-5, 5, nf))
        beta = rng.uniform(0.1, 10)
        assert abs(free_probabilities(params, beta).probs.sum() - 1.0) <= 1e-12


def test_free_probabilities_reference_energy_drops_out():
    rng = np.random.default_rng(23)
    eps = rng.uniform(-3, 3, 4)
    beta = 0.9
    p0 = free_probabilities(FreeSpectrumParams(0.0, eps), beta).probs
    p1 = free_probabilities(FreeSpectrumParams(137.5, eps), beta).probs
    np.testing.assert_allclose(p0, p1, atol=1e-12)


def test_free_probabilities_survive_large_beta():
    p = free_probabilities(FreeSpectrumParams(0.0, [1.0, 2.0]), 50.0).probs
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) <= 1e-12


def test_free_probabilities_reject_bad_beta():
    params = FreeSpectrumParams(0.0, [1.0])
    for beta in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            free_probabilities(params, beta)


def test_factorized_partition_function_vs_brute_force():
    rng = np.random.default_rng(24)
    for _ in range(20):
        nf = int(rng.integers(1, 13))
        eps = rng.uniform(-4, 4, nf)
        beta = rng.uniform(0.1, 5)
        brute = np.exp(-beta * subset_sums(eps)).sum()
        assert abs(free_partition_function(eps, beta) - brute) <= 1e-12 * brute


def test_kernel_to_many_body_consistency():
    # central check: lifting the kernel and generating from its eigenvalues
    # produce the same spectrum
    rng = np.random.default_rng(25)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        h = _random_symmetric(rng, n)
        lifted = build_quadratic(build_basis(n), h)
        spectrum = np.sort(np.linalg.eigvalsh(lifted.matrix))
        generated = np.sort(free_many_body_spectrum(
            FreeSpectrumParams(0.0, diagonalize_kernel(h))))
        np.testing.assert_allclose(spectrum, generated, atol=1e-10)


def test_greedy_gap_decomposition_recovers_free_levels():
    rng = np.random.default_rng(26)
    for _ in range(50):
        nf = int(rng.integers(1, 5))
        eps = np.sort(rng.uniform(0.05, 5, nf))
        levels = np.sort(subset_sums(eps))
        got = greedy_single_particle_gaps(levels, nf, filler=99.0)
        np.testing.assert_allclose(np.sort(got), eps, atol=1e-8)


def test_greedy_gap_decomposition_fills_unresolved_modes():
    got = greedy_single_particle_gaps([0.0, 1.0], 3, filler=99.0)
    assert got[0] == pytest.approx(1.0)
    assert (got[1:] == 99.0).all()


def _list_scan_match(levels, n_modes, rtol):
    """Reference matcher: every (sum, pattern) pair scans a Python list of the levels.

    The merge in ``_greedy_match`` must reproduce it bitwise: each sum, in
    ascending (sum, pattern) order, removes the first remaining level within
    tolerance, and the first level left over becomes the next gap.
    """
    atol = match_tolerance(levels, rtol)
    gaps, labels, unmatched = [], [(0.0, 0)], 0
    for j in range(n_modes):
        remaining = list(levels)
        for s, _ in sorted(labels):
            for idx, val in enumerate(remaining):
                if abs(val - s) <= atol:
                    del remaining[idx]
                    break
            else:
                unmatched += 1
        if not remaining:
            break
        e = remaining[0]
        gaps.append(e)
        labels += [(s + e, pat | (1 << j)) for s, pat in labels]
    return gaps, labels, unmatched


def _list_scan_labeling(energies, tol=LABELING_TOL):
    """Reference labeling built on _list_scan_match, for inputs past the size and order checks."""
    shifted = energies - energies[0]
    n_modes = shifted.size.bit_length() - 1
    eps, labels, unmatched = _list_scan_match(shifted, n_modes, tol)
    if unmatched or len(eps) < n_modes:
        raise ValueError("spectrum admits no free labeling within tolerance")
    atol = match_tolerance(shifted, tol)
    for idx, (value, _) in enumerate(sorted(labels)):
        if abs(value - shifted[idx]) > atol:
            raise ValueError(f"level {idx} deviates from the free reconstruction by "
                             f"{abs(value - shifted[idx]):.2e}")
    return np.array(eps), np.array([pat for _, pat in sorted(labels)])


@st.composite
def _free_like_spectra(draw, truncate=True):
    """Ascending spectra of 0-8 modes: free, perturbed, truncated or rounded to degeneracy."""
    eps = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 5.0)),
                        max_size=8))
    levels = np.sort(draw(st.floats(-3.0, 3.0)) + subset_sums(eps))
    kind = draw(st.sampled_from(["free", "perturbed", "truncated", "rounded"]))
    if kind == "perturbed":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        levels = np.sort(levels + rng.standard_normal(levels.size) * 10.0 ** draw(st.integers(-12, -1)))
    elif kind == "truncated" and truncate:
        levels = levels[:draw(st.integers(1, levels.size))]
    elif kind == "rounded":
        levels = np.sort(np.round(levels, draw(st.integers(0, 3))))
    return levels


@settings(max_examples=300, deadline=None)
@given(_free_like_spectra(), st.integers(0, 9), st.sampled_from([GREEDY_MATCH_TOL, LABELING_TOL]))
# a level exactly at either edge of the last sum's window (the tolerance is exact)
@example(np.array([0.0, 0.25, 0.5, 0.75 + 2.0**-30]), 3, 2.0**-30)
@example(np.array([0.0, 0.25, 0.5, 0.75 - 2.0**-30]), 3, 2.0**-30)
def test_merge_matches_list_scan_bitwise(levels, n_modes, rtol):
    shifted = levels - levels[0]
    gaps, sums, unmatched = _greedy_match(shifted, n_modes, rtol)
    ref_gaps, ref_labels, ref_unmatched = _list_scan_match(shifted, n_modes, rtol)
    assert [pat for _, pat in ref_labels] == list(range(len(ref_labels)))
    assert np.array(gaps, dtype=float).tobytes() == np.array(ref_gaps, dtype=float).tobytes()
    assert sums.tobytes() == np.array([s for s, _ in ref_labels]).tobytes()
    assert unmatched == ref_unmatched


def _labeling_outcome(labeler, energies):
    try:
        eps, pattern = labeler(energies)
    except ValueError as exc:
        return str(exc)
    return eps.tobytes(), pattern.tolist()


@settings(max_examples=300, deadline=None)
@given(_free_like_spectra(truncate=False), st.integers(0, 2**32 - 1), st.booleans())
def test_labeling_matches_list_scan(levels, seed, descend):
    if descend:
        # descents below LABELING_TOL pass the order check and reach the matcher
        noise = np.random.default_rng(seed).uniform(-0.45, 0.45, levels.size)
        levels = levels + noise * LABELING_TOL
    got = _labeling_outcome(infer_free_labeling, levels)
    ref = _labeling_outcome(_list_scan_labeling, levels)
    if got != ref and np.any(np.diff(levels) < 0):
        # a level above a sum's window followed by one inside it: the single
        # pointer reports the sum unmatched where the list scan matched it out
        # of order and failed the reconstruction instead
        assert isinstance(ref, str) and ref.startswith("level ")
        assert got == "spectrum admits no free labeling within tolerance"
    else:
        assert got == ref


def test_labels_the_free_twelve_site_chain():
    params = ChainParams(n_sites=12)
    levels = np.sort(np.concatenate([
        exact_diagonalize(spinless_chain(params, n), keep_vectors=False).energies
        for n in range(13)]), kind="stable")
    eps, pattern = infer_free_labeling(levels)
    np.testing.assert_allclose(np.sort(eps), np.sort(np.abs(diagonalize_kernel(
        -params.hopping_matrix()))), atol=1e-10)
    assert sorted(pattern.tolist()) == list(range(4096))
    np.testing.assert_allclose(subset_sums(eps)[pattern], levels - levels[0], atol=1e-10)
