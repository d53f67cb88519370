import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdist.fock import build_basis, build_quadratic
from intdist.free_fermion import (FreeSpectrumParams, diagonalize_kernel,
                                  free_many_body_spectrum, free_probabilities,
                                  greedy_single_particle_gaps, subset_sums)

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
        got = greedy_single_particle_gaps(levels, nf)
        np.testing.assert_allclose(np.sort(got), eps, atol=1e-8)


def test_greedy_gap_decomposition_fills_unresolved_modes():
    got = greedy_single_particle_gaps([0.0, 1.0], 3, filler=99.0)
    assert got[0] == pytest.approx(1.0)
    assert (got[1:] == 99.0).all()
