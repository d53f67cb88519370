"""Exact diagonalization and probability spectra of density matrices.

Two kinds of spectra are produced: thermal (Boltzmann weights of an energy
spectrum) and entanglement (eigenvalues of a reduced density matrix obtained
by tracing out part of a pure state).  Both are normalized, descending
probability vectors.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fock import ManyBodyOperator, OccupationBasis, popcount, readonly

MAX_DIM = 1 << 14
#: Probabilities below this are clamped to 0; anything below its negative is an error.
CLAMP_TOL = 1e-14
#: How far a probability sum or a state norm may deviate from 1.
NORM_TOL = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and (optionally) orthonormal eigenvectors."""

    energies: np.ndarray
    vectors: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "energies", readonly(self.energies, float))
        if self.vectors is not None:
            object.__setattr__(self, "vectors", readonly(self.vectors, float))


@dataclass(frozen=True)
class ProbabilitySpectrum:
    """Normalized, descending eigenvalue list of a density matrix.

    This is the package's one probability-vector rule: no entry may lie
    below -CLAMP_TOL, entries below CLAMP_TOL are clamped to zero but
    retained (the length records the dimension of the density matrix), and
    the clamped entries must sum to 1 within NORM_TOL.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).copy()
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probability spectrum must be a nonempty vector")
        if p.min() < -CLAMP_TOL:
            raise ValueError(f"negative probability {p.min()} below clamp tolerance")
        p[p < CLAMP_TOL] = 0.0
        total = p.sum()
        if not abs(total - 1.0) <= NORM_TOL:  # written so that a NaN sum fails too
            raise ValueError(f"not a normalized probability vector: sum={total}")
        p[::-1].sort()
        object.__setattr__(self, "probs", readonly(p, float))

    def __len__(self):
        return self.probs.size


def exact_diagonalize(op: ManyBodyOperator, keep_vectors: bool = True) -> EigenSystem:
    """Dense symmetric eigendecomposition, one particle-number block at a time.

    Each block of ``op.blocks`` goes through LAPACK ``eigh`` (``eigvalsh``
    without vectors).  The energies are the union of the block spectra,
    ascending; a stable sort keeps ties in block order (ascending particle
    number), so within an exactly degenerate level the eigenvectors are
    particle-number eigenstates, not LAPACK's arbitrary mixture of them.
    Vectors are a full-basis matrix, column k over ``op.basis``, each column
    nonzero only inside its block.  An operator that mixes particle numbers
    is a single block: one eigendecomposition of the whole matrix.
    """
    if op.dim > MAX_DIM:
        raise ValueError(f"operator dimension {op.dim} exceeds cap {MAX_DIM}")
    if not keep_vectors:
        return EigenSystem(np.sort(np.concatenate([np.linalg.eigvalsh(m) for _, m in op.blocks])))
    pairs = [np.linalg.eigh(m) for _, m in op.blocks]
    energies = np.concatenate([e for e, _ in pairs])
    order = np.argsort(energies, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    vectors = np.zeros((op.dim, op.dim))
    start = 0
    for (idx, _), (e, v) in zip(op.blocks, pairs):
        vectors[np.ix_(idx, column[start:start + e.size])] = v
        start += e.size
    return EigenSystem(energies[order], vectors)


def inverse_temperature(beta) -> float:
    """beta as a float; raises unless it is finite and positive (a NaN is neither)."""
    if not 0 < beta < np.inf:
        raise ValueError(f"beta must be finite and positive, got {beta}")
    return float(beta)


def energy_list(energies) -> np.ndarray:
    """energies as a float array; raises unless it is nonempty and every entry finite."""
    e = np.asarray(energies, dtype=float)
    if e.size == 0:
        raise ValueError("energies must not be empty")
    if not np.isfinite(e).all():
        raise ValueError("energies must be finite")
    return e


def boltzmann_weights(energies, beta: float) -> np.ndarray:
    """exp(-beta E_k) / Z, stabilized by subtracting the minimum energy."""
    e = energy_list(energies)
    w = np.exp(-inverse_temperature(beta) * (e - e.min()))
    return w / w.sum()


def thermal_probabilities(energies, beta: float) -> ProbabilitySpectrum:
    """Gibbs spectrum of an energy list at inverse temperature beta."""
    return ProbabilitySpectrum(boltzmann_weights(energies, beta))


def _bipartition_tables(basis: OccupationBasis, region_a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row/column indices and reordering signs for an A|B mode split.

    Each basis state maps to (a, b, sign) where a packs the A-mode bits in
    ascending mode order, b the complement, and sign is the parity of moving
    all occupied A modes in front of the occupied B modes.
    """
    n = basis.n_modes
    a_modes = sorted(set(int(m) for m in region_a))
    if any(m < 0 or m >= n for m in a_modes):
        raise ValueError(f"region_a contains modes outside [0, {n})")
    if not a_modes or len(a_modes) == n:
        raise ValueError("region_a must be a proper nonempty subset of the modes")
    b_modes = [m for m in range(n) if m not in a_modes]
    s = basis.state_array
    a_mask = sum(1 << m for m in a_modes)
    rows = sum(((s >> m) & 1) << k for k, m in enumerate(a_modes))
    cols = sum(((s >> m) & 1) << k for k, m in enumerate(b_modes))
    # occupied A modes above each occupied B mode
    inversions = sum(((s >> m) & 1) * popcount(s & (a_mask & ~((2 << m) - 1))) for m in b_modes)
    signs = 1.0 - 2.0 * (inversions & 1)
    return rows, cols, signs


def amplitude_matrix(state, basis: OccupationBasis, region_a) -> np.ndarray:
    """Amplitudes of a (not necessarily normalized) state as an A-by-B matrix.

    Rows are indexed by A-mode occupations and columns by B-mode occupations,
    with fermionic reordering signs applied when A is not a mode-index prefix.
    """
    psi = np.asarray(state, dtype=float)
    if psi.shape != (basis.dim,):
        raise ValueError(f"state length {psi.shape} does not match basis dim {basis.dim}")
    rows, cols, signs = _bipartition_tables(basis, region_a)
    n_a = len(set(int(m) for m in region_a))
    m = np.zeros((1 << n_a, 1 << (basis.n_modes - n_a)))
    m[rows, cols] = signs * psi
    return m


def reduced_density_spectrum(state, basis: OccupationBasis, region_a) -> ProbabilitySpectrum:
    """Spectrum of the reduced density matrix of a pure state over region A.

    The spectrum is the squared singular values of ``amplitude_matrix``,
    zero-padded to dimension 2^|A|.

    Parameters
    ----------
    state    : amplitude vector over basis.state_array, normalized within NORM_TOL.
    basis    : OccupationBasis the amplitudes refer to.
    region_a : iterable of mode indices kept after the partial trace.
    """
    m = amplitude_matrix(state, basis, region_a)
    norm = np.linalg.norm(state)
    if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails too
        raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
    sv = np.linalg.svd(m, compute_uv=False)
    p = np.pad(sv**2, (0, m.shape[0] - sv.size))
    p /= p.sum()
    return ProbabilitySpectrum(p)
