import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intdist.distance import interaction_distance
from intdist.fock import build_basis, build_quadratic, density_density_diagonal
from intdist.models import (DIMER_SITE1_MODES, ChainParams, DimerParams, dimer_sector_basis,
                            hubbard_dimer, spinless_chain)
from intdist.perturbation import (DEGENERACY_TOL, PerturbativeDecomposition,
                                  _state_and_correction, degenerate_groups,
                                  first_order_reduced_density,
                                  infer_free_labeling, perturbative_dent, perturbative_dth,
                                  perturbative_free_decomposition, resolve_degeneracies)
from intdist.spectra import (EigenSystem, exact_diagonalize, reduced_density_spectrum,
                             thermal_probabilities)

SQRT2 = np.sqrt(2.0)

# Closed-form oracle for the dimer at default couplings: unperturbed
# reduced-density eigenvalues of the half-system cut and their linear
# responses to the on-site coupling.  The degenerate middle pair splits
# evenly, which keeps the total weight normalized.
DIMER_RDM_0 = np.array([(3 + 2 * SQRT2) / 8, 1 / 8, 1 / 8, (3 - 2 * SQRT2) / 8])
DIMER_RDM_SLOPE = np.array([(-8 - 5 * SQRT2) / 128, 5 * SQRT2 / 128,
                            5 * SQRT2 / 128, (8 - 5 * SQRT2) / 128])


def _dimer_h0_and_unit_v(**couplings):
    h0, _ = hubbard_dimer(DimerParams(v=0.0, **couplings))
    unit_v = hubbard_dimer(DimerParams(v=1.0, **couplings))[1]
    return exact_diagonalize(h0), unit_v


def _first_order_energies(eig, v_diag, lam):
    """Unperturbed energies plus lam times the degeneracy-resolved first-order slope."""
    return eig.energies + lam * resolve_degeneracies(eig, v_diag)[0]


def _dimer_rdm(**couplings):
    """First-order (r0, slope) of the dimer's half-system density matrix."""
    eig, unit_v = _dimer_h0_and_unit_v(**couplings)
    return first_order_reduced_density(eig, unit_v, dimer_sector_basis(), DIMER_SITE1_MODES)


def _exact_dimer_rdm(v, **couplings):
    h, _ = hubbard_dimer(DimerParams(v=v, **couplings))
    eig = exact_diagonalize(h)
    return reduced_density_spectrum(eig.vectors[:, 0], dimer_sector_basis(), (0, 1)).probs


def test_zero_perturbation_keeps_energies():
    eig, _ = _dimer_h0_and_unit_v()
    np.testing.assert_allclose(_first_order_energies(eig, np.zeros(4), 0.7), eig.energies,
                               atol=1e-14)


def test_dimer_first_order_energies():
    eig, unit_v = _dimer_h0_and_unit_v()
    v = 0.5
    energies = _first_order_energies(eig, unit_v, v)
    expected = [-2 * SQRT2 + 3 * v / 4, 0.0, v / 2, 2 * SQRT2 + 3 * v / 4]
    np.testing.assert_allclose(energies, expected, atol=1e-12)


def test_degenerate_block_is_rotated():
    # the degenerate pair's eigenvectors lie at 45 degrees to the occupation
    # states, so in their frame the diagonal perturbation only couples the pair
    c = np.sqrt(0.5)
    vectors = np.eye(4)
    vectors[:2, :2] = [[c, -c], [c, c]]
    h0 = EigenSystem(np.array([0.0, 0.0, 1.0, 2.0]), vectors)
    v_diag = np.array([-0.3, 0.3, 0.0, 0.0])
    # the degenerate block is rotated, so its eigenvalues are used
    energies = _first_order_energies(h0, v_diag, 1.0)
    np.testing.assert_allclose(energies[:2], [-0.3, 0.3], atol=1e-14)
    # and its rotated vectors are the occupation states again
    _, rotated = resolve_degeneracies(h0, v_diag)
    np.testing.assert_allclose(np.abs(rotated), np.eye(4), atol=1e-14)


def _dense_split(eig, v_diag):
    """The split's oracle: each group's eigh of x.T @ P @ x with P the dense diagonal matrix."""
    dense = np.diag(v_diag)
    vectors = np.array(eig.vectors)
    coeffs = np.empty(eig.energies.size)
    for grp in degenerate_groups(eig.energies):
        x = vectors[:, grp]
        coeffs[grp], w = np.linalg.eigh(x.T @ dense @ x)
        vectors[:, grp] = x @ w
    return coeffs, vectors


def _chain_sectors(n, potential):
    """(eigensystem, unit interaction diagonal) of each particle-number sector of a chain."""
    coupling = ChainParams(n, interaction=1.0).interaction_matrix()
    ops = [spinless_chain(ChainParams(n, potential=potential), k) for k in range(n + 1)]
    return [(exact_diagonalize(op), density_density_diagonal(op.basis, coupling)) for op in ops]


@pytest.mark.parametrize("n", range(2, 12))
@pytest.mark.parametrize("potential", ["uniform", "staggered"])
def test_split_equals_dense_product_bitwise(n, potential):
    mu = 0.0 if potential == "uniform" else [0.5 * (-1) ** i for i in range(n)]
    cases = _chain_sectors(n, mu)
    if n == 2:
        h0, unit_v = _dimer_h0_and_unit_v()
        cases.append((h0, unit_v))
    for eig, v_diag in cases:
        coeffs, vectors = resolve_degeneracies(eig, v_diag)
        ref_coeffs, ref_vectors = _dense_split(eig, v_diag)
        np.testing.assert_array_equal(coeffs, ref_coeffs)
        np.testing.assert_array_equal(vectors, ref_vectors)


def test_rejects_v_diag_of_the_wrong_shape():
    # one degenerate group spans the whole basis, where a (d, d) array would broadcast
    eig = EigenSystem(np.zeros(4), np.eye(4))
    for bad in (np.zeros((4, 4)), np.zeros(3)):
        with pytest.raises(ValueError, match="v_diag shape"):
            resolve_degeneracies(eig, bad)
        with pytest.raises(ValueError, match="v_diag shape"):
            _state_and_correction(eig, bad, 0)


def test_first_order_eigenstate_matches_state_by_state_sum():
    # reference: the per-state loop over every state outside k's degenerate group
    h0 = spinless_chain(ChainParams(4))
    eig = exact_diagonalize(h0)
    coupling = ChainParams(4, interaction=1.0).interaction_matrix()
    v_diag = density_density_diagonal(h0.basis, coupling)
    dense = np.diag(v_diag)
    assert np.any(np.diff(eig.energies) < DEGENERACY_TOL)  # the spectrum has degeneracies
    _, vectors = resolve_degeneracies(eig, v_diag)
    lam = 0.3
    for k in range(eig.energies.size):
        ref = vectors[:, k].copy()
        for m in range(eig.energies.size):
            gap = eig.energies[k] - eig.energies[m]
            if abs(gap) > DEGENERACY_TOL:
                ref += lam * (vectors[:, m] @ dense @ vectors[:, k]) / gap * vectors[:, m]
        psi, correction = _state_and_correction(eig, v_diag, k)
        np.testing.assert_allclose(psi + lam * correction, ref, rtol=0, atol=1e-12)


def test_requires_eigenvectors():
    eig = EigenSystem(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="eigenvectors"):
        resolve_degeneracies(eig, np.zeros(2))


def test_infer_free_labeling_dimer():
    eig, _ = _dimer_h0_and_unit_v()
    eps, pattern = infer_free_labeling(eig.energies)
    np.testing.assert_allclose(eps, [2 * SQRT2, 2 * SQRT2], atol=1e-10)
    assert pattern.tolist() == [0, 1, 2, 3]


def test_infer_free_labeling_rejects_non_free_spectrum():
    with pytest.raises(ValueError, match="free"):
        infer_free_labeling(np.array([0.0, 1.0, 2.0, 2.5]))
    with pytest.raises(ValueError, match="power of two"):
        infer_free_labeling(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="empty"):
        infer_free_labeling(np.array([]))
    # the matcher claims no NaN or inf level, so these would otherwise be labeled
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="energies must be finite"):
            infer_free_labeling(np.array([0.0, 1.0, 2.0, bad]))


@pytest.mark.parametrize("v", [0.1, 0.5, 1.0])
def test_dimer_shifted_mode_energies(v):
    eig, unit_v = _dimer_h0_and_unit_v()
    _, pattern = infer_free_labeling(eig.energies)
    decomp = perturbative_free_decomposition(_first_order_energies(eig, unit_v, v), pattern)
    np.testing.assert_allclose(decomp.epsilons_tilde,
                               [2 * SQRT2 - 3 * v / 4, 2 * SQRT2 - v / 4], atol=1e-12)


def test_dimer_residual_on_doubly_occupied_state():
    # solve the linear split by hand: residual = E_top - E_vac - eps1 - eps2
    eig, unit_v = _dimer_h0_and_unit_v()
    _, pattern = infer_free_labeling(eig.energies)
    v = 0.8
    decomp = perturbative_free_decomposition(_first_order_energies(eig, unit_v, v), pattern)
    np.testing.assert_allclose(decomp.delta_e, [0.0, 0.0, 0.0, v], atol=1e-12)
    assert decomp.delta_e[0] == 0.0 and decomp.delta_e[1] == 0.0 and decomp.delta_e[2] == 0.0


def test_zero_perturbation_decomposition_is_trivial():
    eig, _ = _dimer_h0_and_unit_v()
    eps0, pattern = infer_free_labeling(eig.energies)
    decomp = perturbative_free_decomposition(_first_order_energies(eig, np.zeros(4), 1.0), pattern)
    np.testing.assert_allclose(decomp.epsilons_tilde, eps0, atol=1e-12)
    np.testing.assert_allclose(decomp.delta_e, 0.0, atol=1e-12)


def test_reconstruction_identity_random_chain():
    # random free chain + random density interactions: the decomposition must
    # rebuild the first-order spectrum exactly
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        h = rng.standard_normal((n, n))
        h = (h + h.T) / 2
        vmat = rng.standard_normal((n, n))
        vmat = (vmat + vmat.T) / 2
        basis = build_basis(n)
        h0 = build_quadratic(basis, h)
        v_diag = density_density_diagonal(basis, vmat)
        eig = exact_diagonalize(h0)
        lam = 0.05
        eps, pattern = infer_free_labeling(eig.energies)
        first = _first_order_energies(eig, v_diag, lam)
        decomp = perturbative_free_decomposition(first, pattern)
        rebuilt = decomp.e_vacuum + decomp.free_part() + decomp.delta_e
        np.testing.assert_allclose(rebuilt, first, atol=1e-12)
        singles = np.isin(decomp.pattern, [0] + [1 << j for j in range(n)])
        assert (decomp.delta_e[singles] == 0.0).all()


def test_perturbative_dth_zero_residuals():
    decomp = PerturbativeDecomposition(np.array([1.0, 2.0]), np.zeros(4),
                                       np.arange(4), -3.0)
    assert perturbative_dth(decomp, 1.0) == 0.0


def test_perturbative_dth_exactly_homogeneous_in_residuals():
    eig, unit_v = _dimer_h0_and_unit_v()
    _, pattern = infer_free_labeling(eig.energies)
    base = perturbative_free_decomposition(_first_order_energies(eig, unit_v, 0.3), pattern)
    d1 = perturbative_dth(base, 1.0)
    for s in (1e-3, 1e-6):
        scaled = PerturbativeDecomposition(base.epsilons_tilde, s * base.delta_e,
                                           base.pattern, base.e_vacuum)
        assert perturbative_dth(scaled, 1.0) == pytest.approx(s * d1, rel=1e-12)


def _dimer_four_term_reference(v, beta=1.0):
    # unexpanded four-absolute-value expression with the first-order energies
    # and the shifted free spectrum, paired by occupation pattern
    e1t = 2 * SQRT2 - 3 * v / 4
    e2t = 2 * SQRT2 - v / 4
    exact = np.array([-2 * SQRT2 + 3 * v / 4, 0.0, v / 2, 2 * SQRT2 + 3 * v / 4])
    free = np.array([0.0, e1t, e2t, e1t + e2t])
    z = np.exp(-beta * exact).sum()
    zf = np.exp(-beta * free).sum()
    return 0.5 * np.abs(np.exp(-beta * exact) / z - np.exp(-beta * free) / zf).sum()


def test_perturbative_dth_matches_four_term_formula_at_weak_coupling():
    eig, unit_v = _dimer_h0_and_unit_v()
    _, pattern = infer_free_labeling(eig.energies)
    v = 1e-7
    decomp = perturbative_free_decomposition(_first_order_energies(eig, unit_v, v), pattern)
    assert perturbative_dth(decomp, 1.0) == pytest.approx(_dimer_four_term_reference(v), abs=1e-12)


def test_perturbative_dth_close_to_exact_at_quarter_coupling():
    eig, unit_v = _dimer_h0_and_unit_v()
    _, pattern = infer_free_labeling(eig.energies)
    v = 0.25
    decomp = perturbative_free_decomposition(_first_order_energies(eig, unit_v, v), pattern)
    approx = perturbative_dth(decomp, 1.0)
    h, _ = hubbard_dimer(DimerParams(v=v))
    rho = thermal_probabilities(exact_diagonalize(h, keep_vectors=False).energies, 1.0)
    exact = interaction_distance(rho, 2, 1.0).value
    assert abs(approx - exact) <= 0.005


def test_perturbative_dth_warns_outside_validity():
    eig, unit_v = _dimer_h0_and_unit_v()
    _, pattern = infer_free_labeling(eig.energies)
    decomp = perturbative_free_decomposition(_first_order_energies(eig, unit_v, 2.0), pattern)
    with pytest.warns(UserWarning, match="unreliable"):
        perturbative_dth(decomp, 1.0)


def test_perturbative_dth_rejects_bad_beta():
    decomp = PerturbativeDecomposition(np.array([1.0]), np.zeros(2), np.arange(2), 0.0)
    for beta in (np.inf, 0.0, -1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a bad beta raises before any numerical warning
            with pytest.raises(ValueError, match="beta"):
                perturbative_dth(decomp, beta)


def test_dimer_first_order_rdm_matches_closed_form():
    r0, slope = _dimer_rdm()
    np.testing.assert_allclose(r0, DIMER_RDM_0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(slope, DIMER_RDM_SLOPE, rtol=0, atol=1e-14)


def test_dimer_rdm_slopes_match_state_perturbation():
    # cross-check the reduced-density slopes against the spectrum of the
    # first-order eigenstate itself
    eig, unit_v = _dimer_h0_and_unit_v()
    v = 1e-4
    psi0, psi1 = _state_and_correction(eig, unit_v, 0)
    psi = psi0 + v * psi1
    psi /= np.linalg.norm(psi)
    spectrum = reduced_density_spectrum(psi, dimer_sector_basis(), (0, 1)).probs
    r0, slope = _dimer_rdm()
    np.testing.assert_allclose(spectrum, r0 + v * slope, atol=1e-7)


def test_dimer_rdm_slopes_match_exact_derivative():
    dv = 1e-6
    numeric = (_exact_dimer_rdm(dv) - _exact_dimer_rdm(-dv)) / (2 * dv)
    _, slope = _dimer_rdm()
    np.testing.assert_allclose(numeric, slope, atol=1e-6)
    assert abs(slope.sum()) <= 1e-15  # normalization preserved at first order


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.5, 3.0), delta1=st.floats(-2.0, 2.0), delta2=st.floats(-2.0, 2.0))
def test_first_order_rdm_slope_is_the_exact_derivative(t, delta1, delta2):
    couplings = {"t": t, "delta1": delta1, "delta2": delta2}
    eig, _ = _dimer_h0_and_unit_v(**couplings)
    assume(eig.energies[1] - eig.energies[0] > 1e-2)  # nondegenerate ground state
    r0, slope = _dimer_rdm(**couplings)
    # The spin-flip pair is always degenerate and moves as one; any other
    # degeneracy (equal site potentials) splits at first order, so the sorted
    # exact spectrum has a kink at v = 0 that a central difference cannot see.
    assume(np.sum(-np.diff(r0) > 1e-4) == 2)
    dv = 1e-5
    numeric = (_exact_dimer_rdm(dv, **couplings) - _exact_dimer_rdm(-dv, **couplings)) / (2 * dv)
    np.testing.assert_allclose(slope, numeric, rtol=0, atol=1e-6)
    assert abs(slope.sum()) <= 1e-14


def test_dimer_perturbative_rdm_stays_normalized():
    r0, slope = _dimer_rdm()
    for v in (0.0, 0.3, 1.0):
        assert (r0 + v * slope).sum() == pytest.approx(1.0, abs=1e-14)


def test_dimer_entanglement_mode_energy_closed_form():
    r0, slope = _dimer_rdm()
    for v in (0.2, 0.7):
        r = r0 + v * slope
        closed = np.log((48 + 32 * SQRT2 + (-8 - 5 * SQRT2) * v) / (16 + 5 * SQRT2 * v))
        assert np.log(r[0] / r[1]) == pytest.approx(closed, abs=1e-14)


def test_dimer_perturbative_dent_free_point():
    assert perturbative_dent(*_dimer_rdm(), 0.0) <= 1e-15


def test_dimer_perturbative_dent_agrees_with_exact():
    v = 0.5
    h, _ = hubbard_dimer(DimerParams(v=v))
    eig = exact_diagonalize(h)
    rho = reduced_density_spectrum(eig.vectors[:, 0], dimer_sector_basis(), (0, 1))
    exact = interaction_distance(rho, 2, 1.0).value
    assert abs(perturbative_dent(*_dimer_rdm(), v) - exact) <= 0.01


def test_dimer_perturbative_dent_rejects_reordered_levels():
    with pytest.raises(ValueError, match="ordering"):
        perturbative_dent(*_dimer_rdm(), 4.0)


def test_perturbative_dent_product_state_raises():
    # t = 0 leaves the ground state a product state: reduced-density entries are 0
    r0, slope = _dimer_rdm(t=0.0)
    assert r0.tolist() == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="reaches 0"):
        perturbative_dent(r0, slope, 0.5)


def test_decomposition_validation():
    eig, unit_v = _dimer_h0_and_unit_v()
    with pytest.raises(ValueError, match="vacuum"):
        perturbative_free_decomposition(eig.energies, np.array([1, 1, 2, 3]))
    with pytest.raises(ValueError, match="sizes differ"):
        perturbative_free_decomposition(eig.energies, np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="energies must be finite"):
        perturbative_free_decomposition([0.0, 1.0, np.nan, 3.0], np.arange(4))
