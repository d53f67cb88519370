"""Fermionic Fock bases and dense many-body operator matrices.

Basis states are occupation bitstrings stored as integers with mode 0 on the
least significant bit, held in one ``int64`` array; every builder works on
that array with numpy bit operations (``popcount``).  ``build_basis`` lists
the whole Fock space or the states of one particle number; any other set of
states is given explicitly.  Operators are lifted to the many-body space with
the usual anticommutation sign, counting occupied modes strictly below the
mode acted on.

Every ``ManyBodyOperator`` records its particle-number blocks: the basis
states grouped by occupation count when no matrix element connects two
different counts, else a single block holding the whole basis.  Exact
diagonalization works block by block.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MAX_MODES = 20
HERMITICITY_TOL = 1e-12


def popcount(states) -> np.ndarray:
    """Set bits of each entry of a non-negative integer array as int64 (bitwise_count gives uint8)."""
    return np.bitwise_count(np.asarray(states, dtype=np.int64)).astype(np.int64)


def readonly(value, dtype) -> np.ndarray:
    """value as a read-only array of dtype; an array already of dtype is frozen in place."""
    arr = np.asarray(value, dtype=dtype)
    arr.flags.writeable = False
    return arr


def integer(name: str, value, lowest: int, highest: float = np.inf) -> int:
    """value as an int: a Python or numpy integer (not bool) in [lowest, highest]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lowest <= value <= highest:
        bound = f"in [{lowest}, {highest}]" if highest < np.inf else f">= {lowest}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


class OccupationBasis:
    """Ordered collection of occupation bitstrings for ``n_modes`` fermionic modes.

    States are unique and kept in the order given (build_basis produces
    ascending integer order) as the ``int64`` array ``state_array``.
    ``index_of`` maps every bitstring over ``n_modes`` to its basis index,
    -1 for bitstrings outside the basis.  Immutable after construction.
    """

    def __init__(self, n_modes: int, states):
        n_modes = integer("n_modes", n_modes, 0, MAX_MODES)
        arr = np.array(states, dtype=np.int64).reshape(-1)
        bad = (arr < 0) | (arr >= 1 << n_modes)
        if bad.any():
            raise ValueError(f"state {arr[bad.argmax()]} out of range for {n_modes} modes")
        table = np.full(1 << n_modes, -1, dtype=np.int64)
        table[arr] = np.arange(arr.size)
        if (table[arr] != np.arange(arr.size)).any():
            raise ValueError("basis states must be unique")
        self.n_modes = n_modes
        self.state_array = readonly(arr, np.int64)
        self.index_of = readonly(table, np.int64)

    @property
    def dim(self) -> int:
        return self.state_array.size

    def occupation_matrix(self) -> np.ndarray:
        """0/1 matrix of shape (dim, n_modes): row k holds the occupations of state k."""
        return ((self.state_array[:, None] >> np.arange(self.n_modes)) & 1).astype(float)

    def __repr__(self):
        return f"OccupationBasis(n_modes={self.n_modes}, dim={self.dim})"


@dataclass(frozen=True)
class ManyBodyOperator:
    """Dense Hermitian matrix over an OccupationBasis (real entries).

    ``blocks`` holds the particle-number blocks the matrix is block diagonal
    in, as read-only (basis indices, sub-matrix) pairs: one block per
    occupation count when every matrix element between different counts is
    exactly zero, else one block holding the whole basis in basis order.  A
    one-block operator's sub-matrix is ``matrix`` itself.  Validation is one
    pass: the cross-number check plus ``symmetric_matrix`` on each block,
    which together give a finite, Hermitian whole matrix.
    """

    basis: OccupationBasis
    matrix: np.ndarray
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(f"matrix shape {m.shape} does not match basis dim {self.basis.dim}")
        counts = popcount(self.basis.state_array)
        groups = [np.flatnonzero(counts == n) for n in np.flatnonzero(np.bincount(counts))]
        blocks = [(idx, m[np.ix_(idx, idx)]) for idx in groups] if len(groups) > 1 else []
        if not blocks or sum(np.count_nonzero(s) for _, s in blocks) != np.count_nonzero(m):
            blocks = [(np.arange(self.basis.dim), m)]
        for _, s in blocks:
            symmetric_matrix(s, len(s), "operator matrix")
        object.__setattr__(self, "matrix", readonly(m, float))
        object.__setattr__(self, "blocks", tuple((readonly(idx, np.intp), readonly(s, float))
                                                 for idx, s in blocks))

    @property
    def dim(self) -> int:
        return self.basis.dim


def build_basis(n_modes: int, n_particles: Optional[int] = None) -> OccupationBasis:
    """Enumerate the occupation basis, ascending in bitstring value.

    Parameters
    ----------
    n_modes     : number of fermionic modes, 1 <= n_modes <= 20.
    n_particles : optional particle number the states must hold; a number
                  no state holds raises rather than returning an empty basis.
    """
    n_modes = integer("n_modes", n_modes, 1, MAX_MODES)
    states = np.arange(1 << n_modes, dtype=np.int64)
    if n_particles is not None:
        n_particles = integer("n_particles", n_particles, 0)
        states = states[popcount(states) == n_particles]
        if not states.size:
            raise ValueError(f"n_particles={n_particles} admits no states for {n_modes} modes")
    return OccupationBasis(n_modes, states)


def symmetric_matrix(value, n: int, what: str, size_name: str = "n_modes") -> np.ndarray:
    """``value`` as a real ``n x n`` array, finite and symmetric within HERMITICITY_TOL; raises
    otherwise.  The package's one Hermiticity test, with one ``n x n`` temporary."""
    m = np.asarray(value, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"{what} shape {m.shape} does not match {size_name}={n}")
    asymmetry = np.subtract(m, m.T)
    if not np.abs(asymmetry, out=asymmetry).max(initial=0.0) <= HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian: not finite and symmetric within "
                         f"{HERMITICITY_TOL:g}")
    return m


def build_quadratic(basis: OccupationBasis, kernel, diagonal=None) -> ManyBodyOperator:
    """Lift a one-body kernel sum_ij h_ij c_i^dag c_j to the many-body basis.

    The kernel must pass ``symmetric_matrix`` (finite, real symmetric within
    HERMITICITY_TOL) and match basis.n_modes.  The result commutes with total
    particle number; if the kernel couples states outside a restricted basis
    sector, that is an error.  ``diagonal`` (length basis.dim, e.g. from
    density_density_diagonal) is added to the lifted matrix, so a Hamiltonian
    with a diagonal interaction is assembled and validated as one matrix.

    Each i != j term maps an occupied-j, empty-i state to one target with
    the sign given by the parity of the occupied modes strictly between i
    and j; all such terms are lifted in one array pass over (state, term).
    """
    n = basis.n_modes
    h = symmetric_matrix(kernel, n, "kernel")
    s = basis.state_array
    occ = basis.occupation_matrix()
    diag = np.zeros(basis.dim)
    for m in np.flatnonzero(np.diag(h)):
        diag += h[m, m] * occ[:, m]
    if diagonal is not None:
        diag += np.asarray(diagonal, dtype=float)
    mat = np.diag(diag)
    i, j = np.nonzero(h - np.diag(np.diag(h)))
    cols, term = np.nonzero((occ[:, j] == 1) & (occ[:, i] == 0))
    i, j, src = i[term], j[term], s[cols]
    rows = basis.index_of[src ^ (1 << i) ^ (1 << j)]
    if (rows < 0).any():
        k = rows.argmin()
        raise ValueError(f"kernel element ({i[k]},{j[k]}) maps state {int(src[k]):b} "
                         "outside the basis sector")
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    between = ((1 << hi) - 1) & ~((2 << lo) - 1)
    mat[rows, cols] = (1 - 2 * (popcount(src & between) & 1)) * h[i, j]
    return ManyBodyOperator(basis, mat)


def density_density_diagonal(basis: OccupationBasis, coupling) -> np.ndarray:
    """Diagonal of sum_ij V_ij n_i n_j in the occupation basis, one entry per state.

    A nonzero diagonal V_ii contributes V_ii * n_i since n_i^2 = n_i for
    fermions; such input is accepted as-is.
    """
    v = symmetric_matrix(coupling, basis.n_modes, "coupling matrix")
    occ = basis.occupation_matrix()
    return ((occ @ v) * occ).sum(axis=1)


def build_density_density(basis: OccupationBasis, coupling) -> ManyBodyOperator:
    """Lift sum_ij V_ij n_i n_j (diagonal in the occupation basis)."""
    return ManyBodyOperator(basis, np.diag(density_density_diagonal(basis, coupling)))
