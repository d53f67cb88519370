"""First-order perturbation theory for the thermal interaction distance.

Starting from a free Hamiltonian with a known occupation labeling of its
eigenstates, the first-order energies split into a part absorbed by shifted
single-particle energies (measured from the perturbed vacuum) and residual
interaction energies on the multiply-occupied states.  The interaction
distance then has a closed form, with no optimization.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .fock import ManyBodyOperator
from .free_fermion import _greedy_match
from .spectra import EigenSystem

DEGENERACY_TOL = 1e-8
OFFDIAG_TOL = 1e-10
LABELING_TOL = 1e-8


@dataclass(frozen=True)
class PerturbativeDecomposition:
    """Shifted single-particle energies and residual interaction energies.

    epsilons_tilde[j] is the energy of mode j measured from the perturbed
    vacuum; delta_e[k] is the residual of eigenstate k after the subset sum
    of epsilons_tilde over pattern[k] is removed; pattern[k] is the
    occupation bitstring labeling eigenstate k.  delta_e vanishes exactly on
    the vacuum and on every single-occupancy state.  e_vacuum is the
    first-order vacuum energy, so

        e_vacuum + sum_j epsilons_tilde[j] * n_j(k) + delta_e[k]

    reconstructs the first-order energy of state k exactly.
    """

    epsilons_tilde: np.ndarray
    delta_e: np.ndarray
    pattern: np.ndarray
    e_vacuum: float

    def __post_init__(self):
        for name in ("epsilons_tilde", "delta_e"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        pat = np.asarray(self.pattern, dtype=np.int64)
        pat.flags.writeable = False
        object.__setattr__(self, "pattern", pat)

    @property
    def n_modes(self) -> int:
        return self.epsilons_tilde.size

    def occupations(self) -> np.ndarray:
        """0/1 matrix of shape (n_states, n_modes) decoded from pattern."""
        bits = (self.pattern[:, None] >> np.arange(self.n_modes)[None, :]) & 1
        return bits.astype(float)

    def free_part(self) -> np.ndarray:
        """Subset sums of epsilons_tilde over the stored patterns."""
        return self.occupations() @ self.epsilons_tilde


def _degenerate_groups(energies: np.ndarray, tol: float):
    groups = []
    start = 0
    for k in range(1, energies.size + 1):
        if k == energies.size or energies[k] - energies[k - 1] > tol:
            groups.append(slice(start, k))
            start = k
    return groups


def resolve_degeneracies(h0_eigen: EigenSystem, v_op: ManyBodyOperator,
                         degeneracy_tol: float = DEGENERACY_TOL,
                         auto_rotate: bool = True):
    """Per-state first-order coefficients of a perturbation, degeneracy-safe.

    Within each degenerate subspace of the unperturbed spectrum, the
    eigenvectors are rotated so the perturbation is diagonal there (the
    rotation is the identity when the perturbation does not couple the
    subspace).  Returns (coefficients, vectors) with coefficients ascending
    inside each degenerate group.  With auto_rotate disabled, off-diagonal
    elements above 1e-10 in a degenerate block raise instead.
    """
    if h0_eigen.vectors is None:
        raise ValueError("eigenvectors are required for perturbation theory")
    energies = h0_eigen.energies
    vectors = np.array(h0_eigen.vectors)
    v = v_op.matrix
    coeffs = np.empty(energies.size)
    for grp in _degenerate_groups(energies, degeneracy_tol):
        x = vectors[:, grp]
        block = x.T @ v @ x
        if grp.stop - grp.start == 1:
            coeffs[grp] = block[0, 0]
            continue
        off = np.abs(block - np.diag(np.diag(block))).max()
        if not auto_rotate:
            if off > OFFDIAG_TOL:
                raise ValueError(
                    f"perturbation couples a degenerate subspace (off-diagonal {off:.2e}) "
                    "and auto-rotation is disabled"
                )
            coeffs[grp] = np.diag(block)
            continue
        vals, w = np.linalg.eigh(block)
        coeffs[grp] = vals
        vectors[:, grp] = x @ w
    return coeffs, vectors


def first_order_energies(h0_eigen: EigenSystem, v_op: ManyBodyOperator, lam: float,
                         auto_rotate: bool = True) -> np.ndarray:
    """Eigenvalues corrected to first order in the coupling.

    Ordering follows the unperturbed labeling; inside a degenerate group the
    states are ordered by ascending perturbation coefficient.
    """
    coeffs, _ = resolve_degeneracies(h0_eigen, v_op, auto_rotate=auto_rotate)
    return h0_eigen.energies + lam * coeffs


def first_order_eigenstate(h0_eigen: EigenSystem, v_op: ManyBodyOperator, lam: float,
                           k: int, degeneracy_tol: float = DEGENERACY_TOL) -> np.ndarray:
    """Eigenstate k corrected to first order (not renormalized).

    Mixes in every state outside the degenerate group of k with amplitude
    proportional to the coupling matrix element over the energy gap; the
    degenerate group itself must already be uncoupled or pre-rotated.
    """
    coeffs, vectors = resolve_degeneracies(h0_eigen, v_op, degeneracy_tol)
    energies = h0_eigen.energies
    psi = np.array(vectors[:, k])
    for m in range(energies.size):
        if abs(energies[m] - energies[k]) <= degeneracy_tol:
            continue
        amp = vectors[:, m] @ v_op.matrix @ vectors[:, k]
        psi += lam * amp / (energies[k] - energies[m]) * vectors[:, m]
    return psi


def infer_free_labeling(energies, tol: float = LABELING_TOL):
    """Occupation labeling of a spectrum with free subset-sum structure.

    Returns (epsilons, pattern): the single-particle gaps above the lowest
    level and, for each spectrum entry in ascending order, the occupation
    bitstring reproducing it.  Raises if the spectrum is not consistent with
    any free labeling within tol.  Ties are resolved deterministically:
    equal-energy states take patterns in ascending bitstring order.
    """
    lv = np.asarray(energies, dtype=float).ravel()
    if np.any(np.diff(lv) < -tol):
        raise ValueError("energies must be ascending")
    n_states = lv.size
    n_modes = n_states.bit_length() - 1
    if 1 << n_modes != n_states:
        raise ValueError(f"spectrum size {n_states} is not a power of two")
    shifted = lv - lv[0]
    scale = max(1.0, abs(shifted[-1]))
    eps, labeled, unmatched = _greedy_match(shifted, n_modes, tol * scale)
    if unmatched or len(eps) < n_modes:
        raise ValueError("spectrum admits no free labeling within tolerance")
    labeled.sort()
    pattern = np.empty(n_states, dtype=np.int64)
    for idx, (value, pat) in enumerate(labeled):
        if abs(value - shifted[idx]) > tol * scale:
            raise ValueError(
                f"level {idx} deviates from the free reconstruction by {abs(value - shifted[idx]):.2e}"
            )
        pattern[idx] = pat
    return np.array(eps), pattern


def perturbative_free_decomposition(h0_eigen: EigenSystem, pattern, v_op: ManyBodyOperator,
                                    lam: float, auto_rotate: bool = True) -> PerturbativeDecomposition:
    """Split first-order energies into shifted mode energies and residuals.

    The vacuum (pattern 0) and the single-occupancy states pin the shifted
    single-particle energies, measured from the perturbed vacuum; every
    remaining state's deviation from the subset sum is its residual
    interaction energy.
    """
    pattern = np.asarray(pattern, dtype=np.int64)
    energies = first_order_energies(h0_eigen, v_op, lam, auto_rotate=auto_rotate)
    if pattern.shape != energies.shape:
        raise ValueError("pattern and spectrum sizes differ")
    n_modes = int(pattern.max()).bit_length()
    if 1 << n_modes != pattern.size:
        raise ValueError(f"pattern does not enumerate a full set of {pattern.size} states")
    vac = np.flatnonzero(pattern == 0)
    if vac.size != 1:
        raise ValueError("pattern must contain exactly one vacuum state")
    e_vacuum = energies[vac[0]]
    eps_tilde = np.empty(n_modes)
    for j in range(n_modes):
        single = np.flatnonzero(pattern == (1 << j))
        if single.size != 1:
            raise ValueError(f"pattern must contain exactly one single-occupancy state for mode {j}")
        eps_tilde[j] = energies[single[0]] - e_vacuum
    bits = ((pattern[:, None] >> np.arange(n_modes)[None, :]) & 1).astype(float)
    delta = (energies - e_vacuum) - bits @ eps_tilde
    delta[vac[0]] = 0.0
    for j in range(n_modes):
        delta[np.flatnonzero(pattern == (1 << j))[0]] = 0.0
    return PerturbativeDecomposition(eps_tilde, delta, pattern, float(e_vacuum))


def perturbative_dth(decomp: PerturbativeDecomposition, beta: float) -> float:
    """Closed-form first-order thermal interaction distance.

    Weights the residual interaction energies with the Gibbs distribution of
    the shifted free spectrum and measures their weighted absolute deviation
    from the mean.  Exactly homogeneous in the residuals; accurate while
    beta * delta_e stays small (a warning is emitted above 0.5).
    """
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    scaled = beta * decomp.delta_e
    worst = np.abs(scaled).max(initial=0.0)
    if worst > 0.5:
        warnings.warn(
            f"first-order treatment is unreliable: max |beta * delta_e| = {worst:.3g} > 0.5",
            stacklevel=2,
        )
    free = decomp.free_part()
    w = np.exp(-beta * (free - free.min()))
    w /= w.sum()
    mean = w @ scaled
    return 0.5 * float(w @ np.abs(scaled - mean))


_SQRT2 = np.sqrt(2.0)

# First-order data for the two-site interacting dimer at default couplings:
# unperturbed reduced-density eigenvalues of the half-system cut and their
# linear responses to the on-site coupling.  The degenerate middle pair
# splits evenly, which keeps the total weight normalized.
_DIMER_RDM_0 = np.array([(3 + 2 * _SQRT2) / 8, 1 / 8, 1 / 8, (3 - 2 * _SQRT2) / 8])
_DIMER_RDM_SLOPE = np.array([(-8 - 5 * _SQRT2) / 128, 5 * _SQRT2 / 128,
                             5 * _SQRT2 / 128, (8 - 5 * _SQRT2) / 128])


def dimer_perturbative_rdm(v: float) -> np.ndarray:
    """First-order eigenvalues of the dimer's half-system density matrix."""
    return _DIMER_RDM_0 + v * _DIMER_RDM_SLOPE


def dimer_perturbative_dent(v: float) -> float:
    """First-order entanglement interaction distance of the dimer.

    Valid while the coupling is weak enough that the level ordering of the
    perturbed reduced density matrix is preserved; raises otherwise.  The
    two effective entanglement mode energies stay degenerate at first order,
    log(rho_1 / rho_2) after vacuum renormalization.
    """
    r = dimer_perturbative_rdm(v)
    if not (r[0] > r[1] and r[1] > r[3]):
        raise ValueError(f"level ordering violated at coupling {v}; first order is invalid")
    eps = np.log(r[0] / r[1])
    free = np.array([0.0, eps, eps, 2 * eps])
    q = np.exp(-free)
    q /= q.sum()
    return 0.5 * float(np.abs(r - q).sum())
