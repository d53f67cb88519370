"""Fermionic Fock bases and dense many-body operator matrices.

Basis states are occupation bitstrings stored as integers with mode 0 on the
least significant bit; a basis keeps them both as a tuple of Python ints and
as an ``int64`` array, and every builder works on the array with numpy bit
operations (``popcount``).  Operators are lifted to the many-body space with
the usual anticommutation sign, counting occupied modes strictly below the
mode acted on.  Spinful layouts place the up/down modes of site ``j`` at
``2j`` / ``2j + 1`` so that spatial bipartitions stay contiguous in mode
index.

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
#: How far 2 * spin_z may sit from an integer.
HALF_INTEGER_TOL = 1e-12

_POPCOUNT8 = np.array([bin(k).count("1") for k in range(256)], dtype=np.int64)


def popcount(states) -> np.ndarray:
    """Number of set bits of each entry of an integer array (entries < 2**MAX_MODES)."""
    s = np.asarray(states, dtype=np.int64)
    out = np.zeros(s.shape, dtype=np.int64)
    for shift in range(0, MAX_MODES, 8):
        out += _POPCOUNT8[(s >> shift) & 0xFF]
    return out


@dataclass(frozen=True)
class Sector:
    """Symmetry-sector constraint for basis construction.

    n_particles restricts the total occupation.  spin_z restricts the total
    spin projection (in units of hbar) and requires the spinful mode layout,
    i.e. an even number of modes with even = up, odd = down.
    """

    n_particles: Optional[int] = None
    spin_z: Optional[float] = None

    def __post_init__(self):
        if self.spin_z is not None and (abs(2 * self.spin_z - round(2 * self.spin_z))
                                        > HALF_INTEGER_TOL):
            raise ValueError(f"spin_z must be a half-integer, got {self.spin_z}")

    def admits(self, states, n_modes: int):
        """Whether a bitstring lies in the sector; elementwise for an array of them."""
        s = np.asarray(states, dtype=np.int64)
        n = popcount(s)
        ok = np.ones(s.shape, dtype=bool)
        if self.n_particles is not None:
            ok &= n == self.n_particles
        if self.spin_z is not None:
            n_up = popcount(s & sum(1 << m for m in range(0, n_modes, 2)))
            ok &= 2 * n_up - n == round(2 * self.spin_z)
        return ok[()]


class OccupationBasis:
    """Ordered collection of occupation bitstrings for ``n_modes`` fermionic modes.

    States are unique and kept in the order given (build_basis produces
    ascending integer order), as the tuple ``states`` and the ``int64``
    array ``state_array``.  ``index_of`` maps every bitstring over
    ``n_modes`` to its basis index, -1 for bitstrings outside the basis.
    Immutable after construction.
    """

    def __init__(self, n_modes: int, states, sector: Optional[Sector] = None):
        if not 0 <= n_modes <= MAX_MODES:
            raise ValueError(f"n_modes must be in [0, {MAX_MODES}], got {n_modes}")
        arr = np.array(states, dtype=np.int64).reshape(-1)
        bad = (arr < 0) | (arr >= 1 << n_modes)
        if bad.any():
            raise ValueError(f"state {arr[bad.argmax()]} out of range for {n_modes} modes")
        table = np.full(1 << n_modes, -1, dtype=np.int64)
        table[arr] = np.arange(arr.size)
        if (table[arr] != np.arange(arr.size)).any():
            raise ValueError("basis states must be unique")
        if sector is not None:
            bad = ~sector.admits(arr, n_modes)
            if bad.any():
                raise ValueError(f"state {int(arr[bad.argmax()]):b} violates the sector "
                                 f"constraint {sector}")
        arr.flags.writeable = False
        table.flags.writeable = False
        self.n_modes = int(n_modes)
        self.state_array = arr
        self.index_of = table
        self.states = tuple(arr.tolist())
        self.sector = sector

    @property
    def dim(self) -> int:
        return len(self.states)

    def occupation_matrix(self) -> np.ndarray:
        """0/1 matrix of shape (dim, n_modes): row k holds the occupations of state k."""
        return ((self.state_array[:, None] >> np.arange(self.n_modes)) & 1).astype(float)

    def number_blocks(self) -> tuple:
        """Basis indices grouped by particle number, ascending in number and in index."""
        counts = popcount(self.state_array)
        blocks = (np.flatnonzero(counts == n) for n in range(self.n_modes + 1))
        return tuple(idx for idx in blocks if idx.size)

    def __repr__(self):
        return f"OccupationBasis(n_modes={self.n_modes}, dim={self.dim}, sector={self.sector})"


@dataclass(frozen=True)
class ManyBodyOperator:
    """Dense Hermitian matrix over an OccupationBasis (real entries).

    ``blocks`` partitions the basis indices into the particle-number blocks
    the matrix is block diagonal in: one block per occupation count when
    every matrix element between different counts is exactly zero, else one
    block holding the whole basis in basis order.  Validation is one pass:
    the cross-number check plus Hermiticity of each block (within
    HERMITICITY_TOL), which together give Hermiticity of the whole matrix.
    """

    basis: OccupationBasis
    matrix: np.ndarray
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(f"matrix shape {m.shape} does not match basis dim {self.basis.dim}")
        blocks = self.basis.number_blocks()
        subs = [m[np.ix_(idx, idx)] for idx in blocks]
        if sum(np.count_nonzero(s) for s in subs) != np.count_nonzero(m):
            blocks, subs = (np.arange(self.basis.dim),), [m]
        if not all(np.abs(s - s.T).max(initial=0.0) <= HERMITICITY_TOL for s in subs):
            raise ValueError("operator matrix is not Hermitian")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return self.basis.dim


def build_basis(n_modes: int, sector: Optional[Sector] = None) -> OccupationBasis:
    """Enumerate the occupation basis, ascending in bitstring value.

    Parameters
    ----------
    n_modes : number of fermionic modes, 1 <= n_modes <= 20.
    sector  : optional Sector restriction; an unsatisfiable sector raises
              rather than returning an empty basis.
    """
    if not 1 <= n_modes <= MAX_MODES:
        raise ValueError(f"n_modes must be in [1, {MAX_MODES}], got {n_modes}")
    if sector is not None and sector.spin_z is not None and n_modes % 2:
        raise ValueError("spin_z sector requires an even number of modes (spinful layout)")
    states = np.arange(1 << n_modes, dtype=np.int64)
    if sector is not None:
        states = states[sector.admits(states, n_modes)]
        if not states.size:
            raise ValueError(f"sector {sector} admits no states for {n_modes} modes")
    return OccupationBasis(n_modes, states, sector)


def hopping_element(state: int, i: int, j: int, n_modes: int):
    """Apply c_i^dag c_j to a bitstring.

    Returns (target_state, sign) with sign in {+1, -1}, or None when the
    operator annihilates the state.  The sign counts occupied modes strictly
    below the acted-on mode, once per leg.  i == j is the number operator.
    This scalar form is the reference the array builders are tested against.
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


def symmetric_matrix(value, n: int, what: str, size_name: str = "n_modes") -> np.ndarray:
    """``value`` as a real ``n x n`` array, symmetric within HERMITICITY_TOL; raises otherwise."""
    m = np.asarray(value, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"{what} shape {m.shape} does not match {size_name}={n}")
    if np.abs(m - m.T).max(initial=0.0) > HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian: not symmetric within {HERMITICITY_TOL:g}")
    return m


def build_quadratic(basis: OccupationBasis, kernel, diagonal=None) -> ManyBodyOperator:
    """Lift a one-body kernel sum_ij h_ij c_i^dag c_j to the many-body basis.

    The kernel must be real symmetric within HERMITICITY_TOL and match
    basis.n_modes.  The result commutes with total particle number; if the
    kernel couples states outside a restricted basis sector, that is an
    error.  ``diagonal`` (length basis.dim, e.g. from density_density_diagonal)
    is added to the lifted matrix, so a Hamiltonian with a diagonal
    interaction is assembled and validated as one matrix.

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
