import tracemalloc

import numpy as np
import pytest

from intdist.fock import (ManyBodyOperator, OccupationBasis, build_basis, build_density_density,
                          build_quadratic, popcount)

SQRT2 = np.sqrt(2.0)


# ----------------------------------------------------------- symbolic oracle
# Kronecker-product construction of c_j with the parity string on the modes
# below j (mode 0 = least significant bit => last kron factor).

_A = np.array([[0.0, 1.0], [0.0, 0.0]])   # annihilation on one mode
_F = np.diag([1.0, -1.0])
_I = np.eye(2)


def _kron_chain(factors):
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def annihilator_matrix(j, n_modes):
    factors = [_I] * (n_modes - 1 - j) + [_A] + [_F] * j
    return _kron_chain(factors)


def number_matrix(j, n_modes):
    c = annihilator_matrix(j, n_modes)
    return c.T @ c


# ------------------------------------------------------------ scalar reference
# One state at a time; test_properties checks build_quadratic against it.


def hopping_element(state: int, i: int, j: int, n_modes: int):
    """Apply c_i^dag c_j to a bitstring.

    Returns (target_state, sign) with sign in {+1, -1}, or None when the
    operator annihilates the state.  The sign counts occupied modes strictly
    below the acted-on mode, once per leg.  i == j is the number operator.
    """
    for m in (i, j):
        if not 0 <= m < n_modes:
            raise ValueError(f"mode index {m} out of range for {n_modes} modes")
    if not (state >> j) & 1:
        return None
    sign = -1 if (state & ((1 << j) - 1)).bit_count() & 1 else 1
    inter = state ^ (1 << j)
    if (inter >> i) & 1:
        return None
    if (inter & ((1 << i) - 1)).bit_count() & 1:
        sign = -sign
    return inter | (1 << i), sign


def test_build_basis_single_mode():
    basis = build_basis(1)
    assert basis.state_array.tolist() == [0, 1]
    assert basis.dim == 2


def test_build_basis_one_particle_sector():
    basis = build_basis(2, n_particles=1)
    assert basis.state_array.tolist() == [1, 2]


def test_build_basis_unconstrained_count():
    for n in (1, 3, 5):
        assert build_basis(n).dim == 2**n


@pytest.mark.parametrize("n_modes", [0, -1, 21, True, 2.5])
def test_build_basis_rejects_bad_mode_count(n_modes):
    with pytest.raises(ValueError, match="^n_modes must be"):
        build_basis(n_modes)


def test_build_basis_rejects_non_integer_particle_number():
    # True would otherwise select the one-particle sector
    with pytest.raises(ValueError, match="^n_particles must be an integer"):
        build_basis(3, True)


def test_build_basis_rejects_empty_sector():
    with pytest.raises(ValueError, match="admits no states"):
        build_basis(2, n_particles=3)


def test_hopping_no_intervening_modes():
    # state with only mode 0 occupied; move it to mode 1
    assert hopping_element(0b01, 1, 0, 2) == (0b10, 1)


def test_hopping_crosses_one_occupied_mode():
    # modes 0 and 1 occupied; moving 0 -> 2 crosses mode 1
    assert hopping_element(0b011, 2, 0, 3) == (0b110, -1)


def test_hopping_annihilates_empty_mode():
    assert hopping_element(0b00, 0, 1, 2) is None


def test_hopping_pauli_blocked():
    assert hopping_element(0b11, 1, 0, 2) is None


def test_hopping_number_operator_case():
    assert hopping_element(0b101, 2, 2, 3) == (0b101, 1)
    assert hopping_element(0b001, 2, 2, 3) is None


def test_hopping_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        hopping_element(0b01, 0, 5, 3)


def test_hopping_adjoint_consistency():
    # (c_i^dag c_j)^dag = c_j^dag c_i: same pair of states, same sign
    rng = np.random.default_rng(2024)
    n = 6
    for _ in range(300):
        s = int(rng.integers(0, 1 << n))
        i, j = rng.integers(0, n, 2)
        fwd = hopping_element(s, int(i), int(j), n)
        if fwd is None:
            continue
        t, sign = fwd
        assert hopping_element(t, int(j), int(i), n) == (s, sign)


def test_build_quadratic_number_operator():
    basis = build_basis(1)
    op = build_quadratic(basis, [[0.7]])
    np.testing.assert_allclose(op.matrix, np.diag([0.0, 0.7]))


def test_build_quadratic_two_mode_hopping_block():
    basis = build_basis(2)
    op = build_quadratic(basis, [[0.0, -1.0], [-1.0, 0.0]])
    # one-particle block over states {01, 10}
    block = op.matrix[1:3, 1:3]
    np.testing.assert_allclose(np.linalg.eigvalsh(block), [-1.0, 1.0], atol=1e-12)


def test_build_quadratic_matches_symbolic_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        h = rng.standard_normal((n, n))
        h = (h + h.T) / 2
        basis = build_basis(n)
        op = build_quadratic(basis, h)
        oracle = np.zeros((2**n, 2**n))
        for i in range(n):
            ci = annihilator_matrix(i, n)
            for j in range(n):
                cj = annihilator_matrix(j, n)
                oracle += h[i, j] * ci.T @ cj
        np.testing.assert_allclose(op.matrix, oracle, atol=1e-12)


def test_build_quadratic_commutes_with_particle_number():
    rng = np.random.default_rng(12)
    n = 4
    h = rng.standard_normal((n, n))
    h = (h + h.T) / 2
    basis = build_basis(n)
    op = build_quadratic(basis, h)
    n_tot = build_quadratic(basis, np.eye(n))
    comm = op.matrix @ n_tot.matrix - n_tot.matrix @ op.matrix
    assert np.abs(comm).max() == 0.0


def test_build_quadratic_rejects_bad_kernel():
    basis = build_basis(2)
    with pytest.raises(ValueError, match="does not match"):
        build_quadratic(basis, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="not Hermitian"):
        build_quadratic(basis, [[0.0, 1.0], [0.5, 0.0]])


def test_build_quadratic_rejects_sector_escape():
    # spin-flipping kernel element leaves the S_z = 0 sector of two spinful sites
    basis = OccupationBasis(4, (0b0011, 0b0110, 0b1001, 0b1100))
    h = np.zeros((4, 4))
    h[0, 1] = h[1, 0] = 1.0
    with pytest.raises(ValueError, match="outside the basis sector"):
        build_quadratic(basis, h)


def test_density_density_pair_interaction():
    basis = build_basis(2)
    u = 0.9
    v = np.array([[0.0, u / 2], [u / 2, 0.0]])
    op = build_density_density(basis, v)
    np.testing.assert_allclose(op.matrix, np.diag([0.0, 0.0, 0.0, u]))


def test_density_density_dimer_sector():
    basis = OccupationBasis(4, (0b1100, 0b1001, 0b0110, 0b0011))
    vmat = np.zeros((4, 4))
    vmat[0, 1] = vmat[1, 0] = 0.5
    vmat[2, 3] = vmat[3, 2] = 0.5
    op = build_density_density(basis, vmat)
    np.testing.assert_allclose(op.matrix, np.diag([1.0, 0.0, 0.0, 1.0]))


def test_density_density_zero_coupling():
    basis = build_basis(3)
    op = build_density_density(basis, np.zeros((3, 3)))
    assert np.abs(op.matrix).max() == 0.0


def test_density_density_diagonal_coupling_is_linear_occupation():
    # V_ii n_i^2 = V_ii n_i for fermions; accepted literally
    basis = build_basis(2)
    op = build_density_density(basis, np.diag([0.3, 0.8]))
    np.testing.assert_allclose(op.matrix, np.diag([0.0, 0.3, 0.8, 1.1]))


def test_density_density_matches_symbolic_oracle():
    rng = np.random.default_rng(13)
    n = 4
    v = rng.standard_normal((n, n))
    v = (v + v.T) / 2
    basis = build_basis(n)
    op = build_density_density(basis, v)
    oracle = np.zeros((2**n, 2**n))
    for i in range(n):
        for j in range(n):
            oracle += v[i, j] * number_matrix(i, n) @ number_matrix(j, n)
    np.testing.assert_allclose(op.matrix, oracle, atol=1e-12)


def test_operators_are_hermitian_and_frozen():
    rng = np.random.default_rng(14)
    h = rng.standard_normal((3, 3))
    h = (h + h.T) / 2
    op = build_quadratic(build_basis(3), h)
    assert np.abs(op.matrix - op.matrix.T).max() <= 1e-12
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0


def test_many_body_operator_validation():
    basis = build_basis(2)
    with pytest.raises(ValueError, match="not Hermitian"):
        ManyBodyOperator(basis, np.triu(np.ones((4, 4))))
    with pytest.raises(ValueError, match="does not match"):
        ManyBodyOperator(basis, np.zeros((3, 3)))


def test_one_block_operator_holds_its_matrix_as_the_block():
    # a one-particle-number basis is one block, kept without a copy
    op = build_quadratic(build_basis(6, n_particles=3), np.ones((6, 6)))
    ((idx, block),) = op.blocks
    np.testing.assert_array_equal(idx, np.arange(op.dim))
    assert np.shares_memory(block, op.matrix)
    assert not block.flags.writeable and not idx.flags.writeable


def test_operator_validation_holds_one_matrix_sized_temporary():
    # a one-sector operator's block is its matrix; the Hermiticity test adds one d x d array
    m = np.random.default_rng(15).standard_normal((252, 252))
    m = m + m.T
    basis = build_basis(10, 5)
    tracemalloc.start()
    try:
        ManyBodyOperator(basis, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m.nbytes


def test_basis_rejects_duplicates_and_out_of_range():
    with pytest.raises(ValueError, match="unique"):
        OccupationBasis(2, (1, 1))
    with pytest.raises(ValueError, match="out of range"):
        OccupationBasis(2, (0, 4))
    with pytest.raises(ValueError, match="n_modes"):
        OccupationBasis(21, (0,))
    with pytest.raises(ValueError, match="^n_modes must be an integer"):
        OccupationBasis(2.0, [0, 1])


def test_popcount_counts_set_bits_as_int64():
    rng = np.random.default_rng(0)
    states = np.concatenate([np.arange(1 << 14), rng.integers(0, 1 << 20, 4096)])
    counts = popcount(states)
    assert counts.dtype == np.int64
    assert counts.tolist() == [bin(k).count("1") for k in states.tolist()]
    assert set((1 - 2 * (counts & 1)).tolist()) == {-1, 1}  # build_quadratic's sign
