"""Property tests of the array Fock layer and of blocked exact diagonalization.

Each vectorized builder is checked against a scalar reference that walks the
basis state by state (``hopping_element`` for the hopping signs), and
``exact_diagonalize`` against one dense ``eigvalsh`` of the whole matrix.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from intdist.fock import (ManyBodyOperator, OccupationBasis, build_basis, build_quadratic,
                          density_density_diagonal, popcount, symmetric_matrix)
from intdist.free_fermion import diagonalize_kernel
from intdist.models import ChainParams, spinless_chain
from intdist.spectra import _bipartition_tables, exact_diagonalize
from test_fock import hopping_element

PROPERTY = settings(max_examples=60, deadline=None)


def _scalar_quadratic(basis, h):
    n = basis.n_modes
    mat = np.zeros((basis.dim, basis.dim))
    for col, s in enumerate(basis.state_array.tolist()):
        for i in range(n):
            for j in range(n):
                if h[i, j] == 0.0:
                    continue
                hop = hopping_element(s, i, j, n)
                if hop is not None:
                    target, sign = hop
                    mat[basis.index_of[target], col] += sign * h[i, j]
    return mat


def _scalar_bipartition(basis, a_modes):
    # the state-by-state scan: walk modes from the top, counting occupied A
    # modes passed before each occupied B mode
    b_modes = [m for m in range(basis.n_modes) if m not in a_modes]
    rows, cols, signs = [], [], []
    for s in basis.state_array.tolist():
        a = b = inversions = seen_a = 0
        for m in range(basis.n_modes - 1, -1, -1):
            if not (s >> m) & 1:
                continue
            if m in a_modes:
                a |= 1 << a_modes.index(m)
                seen_a += 1
            else:
                b |= 1 << b_modes.index(m)
                inversions += seen_a
        rows.append(a)
        cols.append(b)
        signs.append(-1.0 if inversions & 1 else 1.0)
    return np.array(rows), np.array(cols), np.array(signs)


@st.composite
def kernels(draw, max_modes=8):
    n = draw(st.integers(1, max_modes))
    entries = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_subnormal=False))
    a = draw(arrays(np.float64, (n, n), elements=entries))
    return (a + a.T) / 2


@st.composite
def non_finite_matrices(draw, max_modes=6):
    """A symmetric matrix with one entry, mirrored or not, set to NaN, inf or -inf; or, off
    the diagonal, a finite pair h_ij = -h_ji so large that h_ij - h_ji overflows."""
    h = draw(kernels(max_modes))
    i, j = draw(st.integers(0, h.shape[0] - 1)), draw(st.integers(0, h.shape[0] - 1))
    if i != j and draw(st.booleans()):
        huge = st.floats(1e308, sys.float_info.max)
        h[i, j], h[j, i] = draw(huge), -draw(huge)
        return h
    h[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if draw(st.booleans()):
        h[j, i] = h[i, j]
    return h


@st.composite
def bases(draw, n_modes, fixed_number):
    """Full or fixed-particle-number basis over n_modes, optionally shuffled."""
    n_particles = draw(st.integers(0, n_modes)) if fixed_number else None
    states = draw(st.permutations(build_basis(n_modes, n_particles).state_array.tolist()))
    return OccupationBasis(n_modes, states)


@PROPERTY
@given(st.data(), kernels(), st.booleans())
def test_build_quadratic_matches_scalar_reference(data, h, fixed_number):
    basis = data.draw(bases(h.shape[0], fixed_number))
    op = build_quadratic(basis, h)
    np.testing.assert_array_equal(op.matrix, _scalar_quadratic(basis, h))


@PROPERTY
@given(non_finite_matrices())
@pytest.mark.filterwarnings("error::RuntimeWarning")  # one bad matrix, one error, no warning
def test_non_finite_matrix_is_rejected_by_name(h):
    n = h.shape[0]
    basis = build_basis(n)
    for name, call in (
        ("kernel", lambda: symmetric_matrix(h, n, "kernel")),
        ("kernel", lambda: diagonalize_kernel(h)),
        ("kernel", lambda: build_quadratic(basis, h)),
        ("coupling matrix", lambda: density_density_diagonal(basis, h)),
        ("hopping matrix", lambda: spinless_chain(ChainParams(n, hopping=h))),
        ("interaction matrix", lambda: spinless_chain(ChainParams(n, interaction=h))),
    ):
        with pytest.raises(ValueError, match=f"^{name} is not Hermitian"):
            call()


@PROPERTY
@given(st.integers(1, 10), st.data())
def test_sector_basis_matches_scalar_filter(n, data):
    n_particles = data.draw(st.none() | st.integers(0, n + 1))
    expected = [s for s in range(1 << n) if n_particles in (None, s.bit_count())]
    if expected:
        assert build_basis(n, n_particles).state_array.tolist() == expected
    else:
        with pytest.raises(ValueError, match="admits no states"):
            build_basis(n, n_particles)


@PROPERTY
@given(st.integers(2, 8), st.data())
def test_bipartition_tables_match_scalar_scan(n, data):
    basis = data.draw(bases(n, data.draw(st.booleans())))
    size_a = data.draw(st.integers(1, n - 1))
    a_modes = sorted(data.draw(st.permutations(range(n)))[:size_a])
    for got, want in zip(_bipartition_tables(basis, a_modes), _scalar_bipartition(basis, a_modes)):
        np.testing.assert_array_equal(got, want)


def _number_conserving(rng, basis):
    m = rng.standard_normal((basis.dim, basis.dim))
    m = (m + m.T) / 2
    counts = popcount(basis.state_array)
    return np.where(counts[:, None] == counts[None, :], m, 0.0)


def _check_eigensystem(op, eig):
    m = op.matrix
    np.testing.assert_allclose(eig.energies, np.linalg.eigvalsh(m), atol=1e-10)
    assert np.all(np.diff(eig.energies) >= 0.0)
    scale = max(1.0, np.linalg.norm(m))
    residual = m @ eig.vectors - eig.vectors * eig.energies
    assert np.linalg.norm(residual, axis=0).max() <= 1e-10 * scale
    gram = eig.vectors.T @ eig.vectors
    assert np.abs(gram - np.eye(op.dim)).max() <= 1e-10
    np.testing.assert_allclose(exact_diagonalize(op, keep_vectors=False).energies,
                               eig.energies, atol=1e-12 * scale)


@PROPERTY
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_blocked_diagonalization_matches_dense(n, seed, mixing, data):
    rng = np.random.default_rng(seed)
    basis = data.draw(bases(n, fixed_number=False))
    m = _number_conserving(rng, basis)
    if mixing:
        # one cross-number element (and its mirror) makes the operator one block
        counts = popcount(basis.state_array)
        i, j = np.flatnonzero(counts == 0)[0], np.flatnonzero(counts == 1)[0]
        m[i, j] = m[j, i] = 0.5
    op = ManyBodyOperator(basis, m)
    counts = popcount(basis.state_array)
    if mixing:
        assert len(op.blocks) == 1
        np.testing.assert_array_equal(op.blocks[0][0], np.arange(basis.dim))
    else:
        assert len(op.blocks) == n + 1
        for idx, block in op.blocks:
            assert np.unique(counts[idx]).size == 1
            np.testing.assert_array_equal(block, m[np.ix_(idx, idx)])
    eig = exact_diagonalize(op)
    _check_eigensystem(op, eig)
    if not mixing:
        for k in range(op.dim):
            support = np.flatnonzero(eig.vectors[:, k])
            assert np.unique(counts[support]).size == 1


def test_blocked_diagonalization_orders_degenerate_levels_by_particle_number():
    # E = 0 in every block: ties come back in ascending particle number, each a number eigenstate
    basis = build_basis(3)
    eig = exact_diagonalize(ManyBodyOperator(basis, np.zeros((8, 8))))
    order = popcount(basis.state_array[np.abs(eig.vectors).argmax(axis=0)])
    np.testing.assert_array_equal(order, [0, 1, 1, 1, 2, 2, 2, 3])


def test_cross_number_check_is_exact():
    basis = build_basis(2)
    m = np.diag([0.0, 1.0, 2.0, 3.0])
    assert len(ManyBodyOperator(basis, m.copy()).blocks) == 3
    m[0, 1] = m[1, 0] = 1e-300
    assert len(ManyBodyOperator(basis, m).blocks) == 1


def test_block_hermiticity_is_checked():
    basis = build_basis(2)
    m = np.zeros((4, 4))
    m[1, 2] = 1.0   # inside the one-particle block, no mirror
    with pytest.raises(ValueError, match="not Hermitian"):
        ManyBodyOperator(basis, m)
    m[1, 2], m[0, 3] = 0.0, 1.0   # cross-number, no mirror
    with pytest.raises(ValueError, match="not Hermitian"):
        ManyBodyOperator(basis, m)


@pytest.mark.parametrize("n", range(4, 11))
@pytest.mark.parametrize("v", [0.0, 1.0])
def test_chain_ground_state_lies_in_one_number_sector(n, v):
    op = spinless_chain(ChainParams(n_sites=n, interaction=v))
    eig = exact_diagonalize(op)
    ground = eig.vectors[:, 0]
    counts = popcount(op.basis.state_array[ground != 0.0])
    assert np.unique(counts).size == 1
    assert abs(eig.energies[0] - np.linalg.eigvalsh(op.matrix)[0]) <= 1e-10
