import numpy as np
import pytest

from intdist.fock import ManyBodyOperator, build_basis, build_quadratic
from intdist.models import DimerParams, dimer_sector_basis, hubbard_dimer
from intdist.spectra import (ProbabilitySpectrum, exact_diagonalize,
                             reduced_density_spectrum, thermal_probabilities)

SQRT2 = np.sqrt(2.0)


def entanglement_energies(spectrum: ProbabilitySpectrum) -> np.ndarray:
    """-log of the nonzero probabilities, ascending."""
    nz = spectrum.probs[spectrum.probs > 0.0]
    return -np.log(nz)


def _random_symmetric(rng, n):
    h = rng.standard_normal((n, n))
    return (h + h.T) / 2


def test_exact_diagonalize_sorts_diagonal():
    basis = build_basis(2)
    op = ManyBodyOperator(basis, np.diag([3.0, 1.0, 2.0, 5.0]))
    eig = exact_diagonalize(op, keep_vectors=False)
    np.testing.assert_allclose(eig.energies, [1.0, 2.0, 3.0, 5.0])
    assert eig.vectors is None


def test_exact_diagonalize_dimer_free_point():
    h, _ = hubbard_dimer(DimerParams())
    eig = exact_diagonalize(h)
    np.testing.assert_allclose(eig.energies, [-2 * SQRT2, 0.0, 0.0, 2 * SQRT2], atol=1e-10)


def test_exact_diagonalize_matches_shuffled_basis_resolve():
    # independent cross-check: diagonalize in a permuted basis and compare
    rng = np.random.default_rng(31)
    basis = build_basis(3)
    m = _random_symmetric(rng, 8)
    perm = rng.permutation(8)
    shuffled = m[np.ix_(perm, perm)]
    e1 = exact_diagonalize(ManyBodyOperator(basis, m), keep_vectors=False).energies
    e2 = exact_diagonalize(ManyBodyOperator(basis, shuffled), keep_vectors=False).energies
    np.testing.assert_allclose(e1, e2, atol=1e-9)


def test_exact_diagonalize_residual_and_orthonormality():
    rng = np.random.default_rng(32)
    basis = build_basis(3)
    m = _random_symmetric(rng, 8)
    eig = exact_diagonalize(ManyBodyOperator(basis, m))
    scale = np.linalg.norm(m)
    for k in range(8):
        residual = np.linalg.norm(m @ eig.vectors[:, k] - eig.energies[k] * eig.vectors[:, k])
        assert residual <= 1e-9 * scale
    gram = eig.vectors.T @ eig.vectors
    assert np.abs(gram - np.eye(8)).max() <= 1e-10


def test_thermal_probabilities_suppresses_high_levels():
    p = thermal_probabilities([0.0, 200.0], 1.0).probs
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)


def test_thermal_probabilities_flat_on_degenerate_spectrum():
    p = thermal_probabilities([0.3, 0.3, 0.3, 0.3], 7.7).probs
    np.testing.assert_allclose(p, [0.25] * 4)


def test_thermal_probabilities_dimer_free_point():
    energies = np.array([-2 * SQRT2, 0.0, 0.0, 2 * SQRT2])
    p = thermal_probabilities(energies, 1.0).probs
    w = np.exp(np.array([2 * SQRT2, 0.0, 0.0, -2 * SQRT2]))
    np.testing.assert_allclose(p, np.sort(w / w.sum())[::-1], atol=1e-14)


def test_thermal_probabilities_shift_invariant():
    rng = np.random.default_rng(33)
    energies = rng.standard_normal(16)
    p0 = thermal_probabilities(energies, 2.2).probs
    p1 = thermal_probabilities(energies + 81.3, 2.2).probs
    np.testing.assert_allclose(p0, p1, atol=1e-12)


def test_thermal_probabilities_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        thermal_probabilities([], 1.0)
    with pytest.raises(ValueError, match="beta"):
        thermal_probabilities([1.0], -2.0)


def test_probability_spectrum_sorts_and_clamps():
    spec = ProbabilitySpectrum([0.25, 0.75, -1e-16, 1e-16])
    np.testing.assert_allclose(spec.probs, [0.75, 0.25, 0.0, 0.0])
    assert len(spec) == 4
    assert ProbabilitySpectrum([1.0, -1e-15]).probs.tolist() == [1.0, 0.0]


def test_probability_spectrum_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum"):
        ProbabilitySpectrum([0.5, 0.6])
    with pytest.raises(ValueError, match="not a normalized probability vector"):
        ProbabilitySpectrum([0.5, 0.5 + 5e-10])
    with pytest.raises(ValueError, match="negative"):
        ProbabilitySpectrum([1.1, -0.1])
    # abs(nan - 1) > NORM_TOL is false: the check must be written so that NaN fails it
    for probs in ([np.nan, 1.0], [np.nan, 0.5, 0.5, 0.0], [np.nan]):
        with pytest.raises(ValueError, match="not a normalized probability vector"):
            ProbabilitySpectrum(probs)


def test_entanglement_energies_view():
    spec = ProbabilitySpectrum([0.5, 0.25, 0.25, 0.0])
    np.testing.assert_allclose(entanglement_energies(spec),
                               [np.log(2), np.log(4), np.log(4)])


def test_reduced_density_product_state():
    basis = build_basis(2)
    psi = np.zeros(4)
    psi[basis.index_of[0b01]] = 1.0
    p = reduced_density_spectrum(psi, basis, (0,)).probs
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-14)


def test_reduced_density_maximally_entangled_pair():
    basis = build_basis(2)
    psi = np.zeros(4)
    psi[basis.index_of[0b01]] = 1 / SQRT2
    psi[basis.index_of[0b10]] = 1 / SQRT2
    p = reduced_density_spectrum(psi, basis, (0,)).probs
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-14)


def test_reduced_density_dimer_ground_state():
    h, _ = hubbard_dimer(DimerParams())
    eig = exact_diagonalize(h)
    p = reduced_density_spectrum(eig.vectors[:, 0], dimer_sector_basis(), (0, 1)).probs
    expected = [(3 + 2 * SQRT2) / 8, 1 / 8, 1 / 8, (3 - 2 * SQRT2) / 8]
    np.testing.assert_allclose(p, expected, atol=1e-10)
    # at the free point the entanglement energies are free: two equal modes
    mode = np.log(3 + 2 * SQRT2)
    np.testing.assert_allclose(np.diff(entanglement_energies(ProbabilitySpectrum(p))),
                               [mode, 0.0, mode], atol=1e-9)


def test_reduced_density_sector_matches_full_embedding():
    h, _ = hubbard_dimer(DimerParams(v=1.3))
    eig = exact_diagonalize(h)
    sector = dimer_sector_basis()
    full = build_basis(4)
    embedded = np.zeros(full.dim)
    for amp, state in zip(eig.vectors[:, 0], sector.state_array.tolist()):
        embedded[full.index_of[state]] = amp
    p_sector = reduced_density_spectrum(eig.vectors[:, 0], sector, (0, 1)).probs
    p_full = reduced_density_spectrum(embedded, full, (0, 1)).probs
    np.testing.assert_allclose(p_sector, p_full, atol=1e-12)


def test_reduced_density_validates_input():
    basis = build_basis(2)
    psi = np.array([1.0, 1.0, 0.0, 0.0])  # unnormalized
    with pytest.raises(ValueError, match="norm"):
        reduced_density_spectrum(psi, basis, (0,))
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="proper nonempty subset"):
        reduced_density_spectrum(psi, basis, ())
    with pytest.raises(ValueError, match="proper nonempty subset"):
        reduced_density_spectrum(psi, basis, (0, 1))
    with pytest.raises(ValueError, match="outside"):
        reduced_density_spectrum(psi, basis, (5,))
    # a NaN amplitude fails the norm check before it reaches the SVD
    with pytest.raises(ValueError, match="norm"):
        reduced_density_spectrum(np.array([np.nan, 1.0, 0.0, 0.0]), basis, (0,))


def _random_state(rng, dim):
    psi = rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def _random_parity_state(rng, basis):
    # fermion-parity superselection: amplitudes mixing even and odd particle
    # number have no consistent mode partial trace
    parity = int(rng.integers(0, 2))
    psi = rng.standard_normal(basis.dim)
    for idx, state in enumerate(basis.state_array.tolist()):
        if state.bit_count() % 2 != parity:
            psi[idx] = 0.0
    return psi / np.linalg.norm(psi)


def test_schmidt_symmetry_random_states_and_cuts():
    rng = np.random.default_rng(34)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        basis = build_basis(n)
        psi = _random_parity_state(rng, basis)
        size_a = int(rng.integers(1, n))
        region_a = tuple(sorted(rng.choice(n, size=size_a, replace=False).tolist()))
        region_b = tuple(m for m in range(n) if m not in region_a)
        pa = reduced_density_spectrum(psi, basis, region_a).probs
        pb = reduced_density_spectrum(psi, basis, region_b).probs
        width = max(pa.size, pb.size)
        pa = np.pad(pa, (0, width - pa.size))
        pb = np.pad(pb, (0, width - pb.size))
        np.testing.assert_allclose(pa, pb, atol=1e-10)


def test_purity_bound():
    rng = np.random.default_rng(35)
    basis = build_basis(4)
    for _ in range(10):
        psi = _random_state(rng, basis.dim)
        p = reduced_density_spectrum(psi, basis, (0, 2)).probs
        assert (p**2).sum() <= 1.0 + 1e-12
    # equality iff pure product
    psi = np.zeros(basis.dim)
    psi[basis.index_of[0b0101]] = 1.0
    p = reduced_density_spectrum(psi, basis, (0, 2)).probs
    assert abs((p**2).sum() - 1.0) <= 1e-12


def test_noncontiguous_cut_matches_correlation_matrix_oracle():
    # ground state of a quadratic model: the cut spectrum factorizes over the
    # eigenvalues of the restricted two-point correlation matrix
    rng = np.random.default_rng(36)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        h = _random_symmetric(rng, n)
        basis = build_basis(n)
        op = build_quadratic(basis, h)
        eig = exact_diagonalize(op)
        ground = eig.vectors[:, 0]
        eps, u = np.linalg.eigh(h)
        occupied = u[:, eps < 0.0]
        corr = occupied @ occupied.T
        size_a = int(rng.integers(1, n))
        region_a = tuple(sorted(rng.choice(n, size=size_a, replace=False).tolist()))
        nu = np.clip(np.linalg.eigvalsh(corr[np.ix_(region_a, region_a)]), 0.0, 1.0)
        oracle = np.ones(1)
        for v in nu:
            oracle = np.concatenate([oracle * (1 - v), oracle * v])
        oracle = np.sort(oracle)[::-1]
        p = reduced_density_spectrum(ground, basis, region_a).probs
        np.testing.assert_allclose(p, oracle, atol=1e-9)
