import numpy as np
import pytest

from intdist.distance import OptimizerOptions, interaction_distance
from intdist.fock import build_basis, build_quadratic, density_density_diagonal
from intdist.free_fermion import FreeSpectrumParams, diagonalize_kernel, free_many_body_spectrum
from intdist.models import (ChainParams, DimerParams, dimer_interaction_matrix, dimer_kernel,
                            dimer_sector_basis, hubbard_dimer, spinless_chain)
from intdist.spectra import exact_diagonalize, reduced_density_spectrum, thermal_probabilities

SQRT2 = np.sqrt(2.0)
FAST = OptimizerOptions(restarts=6)


def hubbard_dimer_full(params: DimerParams = DimerParams()):
    """Dimer Hamiltonian over the unrestricted 16-dimensional Fock space.

    The cross-check of the S_z = 0 sector that ``hubbard_dimer`` builds directly.
    """
    basis = build_basis(4)
    v_diag = density_density_diagonal(basis, dimer_interaction_matrix(params.v))
    return build_quadratic(basis, dimer_kernel(params), diagonal=v_diag)


def test_dimer_free_point_spectrum():
    h, _ = hubbard_dimer(DimerParams())
    np.testing.assert_allclose(np.linalg.eigvalsh(h.matrix),
                               [-2 * SQRT2, 0.0, 0.0, 2 * SQRT2], atol=1e-12)


def test_dimer_ground_state_coefficients():
    # reference (unnormalized) ground state over the sector ordering
    h, _ = hubbard_dimer(DimerParams())
    eig = exact_diagonalize(h)
    reference = np.array([3 + 2 * SQRT2, 1 + SQRT2, -(1 + SQRT2), 1.0])
    reference /= np.linalg.norm(reference)
    ground = eig.vectors[:, 0]
    if ground[0] < 0:
        ground = -ground
    np.testing.assert_allclose(ground, reference, atol=1e-12)


def test_dimer_interaction_part():
    for v in (0.0, 0.7, 3.0):
        _, v_diag = hubbard_dimer(DimerParams(v=v))
        np.testing.assert_allclose(v_diag, [v, 0.0, 0.0, v], atol=1e-15)


def test_dimer_sector_basis_ordering():
    states = dimer_sector_basis().state_array.tolist()
    assert states == [0b1100, 0b1001, 0b0110, 0b0011]
    # modes 0, 2 are spin up and 1, 3 spin down: two particles, S_z = 0 in every state
    for s in states:
        up, down = (s & 0b0101).bit_count(), (s & 0b1010).bit_count()
        assert (up + down, up - down) == (2, 0)


def test_dimer_full_space_commutes_with_spin_projection():
    h_full = hubbard_dimer_full(DimerParams(v=1.9))
    basis = h_full.basis
    sz = build_quadratic(basis, np.diag([0.5, -0.5, 0.5, -0.5]))
    comm = h_full.matrix @ sz.matrix - sz.matrix @ h_full.matrix
    assert np.abs(comm).max() == 0.0


def test_dimer_sector_is_block_of_full_hamiltonian():
    params = DimerParams(v=2.4)
    h_sector, _ = hubbard_dimer(params)
    h_full = hubbard_dimer_full(params)
    idx = h_full.basis.index_of[dimer_sector_basis().state_array].tolist()
    np.testing.assert_allclose(h_sector.matrix, h_full.matrix[np.ix_(idx, idx)], atol=1e-14)
    # no matrix elements leak out of the sector
    others = [i for i in range(16) if i not in idx]
    assert np.abs(h_full.matrix[np.ix_(others, idx)]).max() == 0.0


def test_dimer_large_coupling_is_nearly_free():
    h, _ = hubbard_dimer(DimerParams(v=20.0))
    rho = thermal_probabilities(exact_diagonalize(h, keep_vectors=False).energies, 1.0)
    assert interaction_distance(rho, 2, 1.0, FAST).value <= 1e-2


def test_chain_two_site_spectrum():
    op = spinless_chain(ChainParams(n_sites=2, hopping=1.0))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(op.matrix)),
                               [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_chain_all_zero_parameters():
    op = spinless_chain(ChainParams(n_sites=3, hopping=0.0))
    assert np.abs(op.matrix).max() == 0.0


def test_chain_free_spectrum_matches_combinatorial_generation():
    rng = np.random.default_rng(61)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        params = ChainParams(n_sites=n, hopping=rng.uniform(0.5, 2.0),
                             potential=rng.standard_normal(n).tolist())
        op = spinless_chain(params)
        spectrum = np.sort(np.linalg.eigvalsh(op.matrix))
        eps = diagonalize_kernel(params.kernel())
        generated = np.sort(free_many_body_spectrum(FreeSpectrumParams(0.0, eps)))
        np.testing.assert_allclose(spectrum, generated, atol=1e-9)


def test_chain_without_interaction_is_free_thermally():
    rng = np.random.default_rng(62)
    params = ChainParams(n_sites=3, hopping=1.3, potential=rng.standard_normal(3).tolist())
    op = spinless_chain(params)
    rho = thermal_probabilities(np.linalg.eigvalsh(op.matrix), 1.0)
    assert interaction_distance(rho, 3, 1.0, FAST).value <= 1e-6


def test_chain_ground_state_entanglement_is_free():
    params = ChainParams(n_sites=5, hopping=1.0, potential=[0.3, -0.2, 0.0, 0.4, -0.5])
    op = spinless_chain(params)
    eig = exact_diagonalize(op)
    for cut in (1, 2, 3):
        rho = reduced_density_spectrum(eig.vectors[:, 0], op.basis, tuple(range(cut)))
        assert interaction_distance(rho, cut, 1.0, FAST).value <= 1e-6


def test_chain_interaction_matrix_from_scalar():
    params = ChainParams(n_sites=3, interaction=0.8)
    m = params.interaction_matrix()
    np.testing.assert_allclose(m, [[0.0, 0.8, 0.0], [0.8, 0.0, 0.8], [0.0, 0.8, 0.0]])


def test_chain_parameter_validation():
    with pytest.raises(ValueError, match="n_sites"):
        ChainParams(n_sites=0)
    assert ChainParams(n_sites=14).n_sites == 14
    with pytest.raises(ValueError, match="n_sites"):
        ChainParams(n_sites=15)
    for n_sites in (True, 3.0):
        with pytest.raises(ValueError, match="^n_sites must be an integer"):
            ChainParams(n_sites)
    # a scalar bond strength must be a finite number, and the check runs on construction
    with pytest.raises(ValueError, match="^hopping must be a finite number"):
        ChainParams(n_sites=3, hopping=np.inf)
    with pytest.raises(ValueError, match="^interaction must be a finite number"):
        ChainParams(n_sites=3, interaction=np.nan)
    with pytest.raises(ValueError, match="symmetric"):
        ChainParams(n_sites=2, hopping=[[0.0, 1.0], [0.5, 0.0]]).hopping_matrix()
    with pytest.raises(ValueError, match="potential length"):
        ChainParams(n_sites=2, potential=[1.0, 2.0, 3.0]).potential_vector()
    with pytest.raises(ValueError, match="shape"):
        ChainParams(n_sites=2, hopping=np.ones((3, 3))).hopping_matrix()


_SCALAR_FIELDS = [(DimerParams, {}, name) for name in ("t", "delta1", "delta2", "v")] + [
    (ChainParams, {"n_sites": 3}, name) for name in ("hopping", "potential", "interaction")]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, "x"], ids=repr)
@pytest.mark.parametrize("cls, given, field", _SCALAR_FIELDS,
                         ids=[f"{cls.__name__}.{field}" for cls, _, field in _SCALAR_FIELDS])
def test_parameter_classes_reject_a_bad_scalar_under_its_name(cls, given, field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        cls(**given, **{field: bad})


def test_chain_rejects_a_non_finite_potential_vector():
    with pytest.raises(ValueError, match="^potential must be finite"):
        ChainParams(3, potential=[0.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="^potential must hold real numbers"):
        ChainParams(3, potential=[0.0, "x", 0.0])
    with pytest.raises(ValueError, match="^hopping matrix must hold real numbers"):
        ChainParams(2, hopping=[[0.0, 1.0], [1.0, None, 0.0]])


def test_dimer_params_store_floats():
    params = DimerParams(t=2, delta1=np.float32(0.5), delta2=np.int64(-1), v=3)
    assert [type(x) for x in (params.t, params.delta1, params.delta2, params.v)] == [float] * 4
    assert params == DimerParams(2.0, 0.5, -1.0, 3.0)
