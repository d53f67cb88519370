"""First-order perturbation theory for the thermal and entanglement distances.

Starting from a free Hamiltonian with a known occupation labeling of its
eigenstates, the first-order energies split into a part absorbed by shifted
single-particle energies (measured from the perturbed vacuum) and residual
interaction energies on the multiply-occupied states.  The same degenerate
first-order step applied to the ground state's reduced density matrix gives
its eigenvalues to first order.  Both interaction distances then have a
closed form, with no optimization.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .fock import readonly
from .free_fermion import _greedy_match, match_tolerance, subset_sums
from .spectra import EigenSystem, amplitude_matrix, boltzmann_weights, energy_list

#: Levels closer than this are one degenerate group.
DEGENERACY_TOL = 1e-8
#: Relative tolerance (times max(1, top level)) of a free labeling's reconstruction.
LABELING_TOL = 1e-8
#: perturbative_dth warns once max |beta * delta_e| exceeds this.
DTH_VALIDITY_LIMIT = 0.5


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
        for name, dtype in (("epsilons_tilde", float), ("delta_e", float), ("pattern", np.int64)):
            object.__setattr__(self, name, readonly(getattr(self, name), dtype))

    def free_part(self) -> np.ndarray:
        """Subset sums of epsilons_tilde over the stored patterns."""
        return subset_sums(self.epsilons_tilde)[self.pattern]


def degenerate_groups(values) -> list:
    """Slices of the ascending ``values``: runs whose neighbours lie within DEGENERACY_TOL."""
    cuts = (np.flatnonzero(np.diff(values) > DEGENERACY_TOL) + 1).tolist()
    return list(map(slice, [0] + cuts, cuts + [len(values)]))


def _first_order_split(values, vectors, project):
    """One degenerate first-order step for the ascending eigenvalues ``values``.

    Within each degenerate group the columns x of ``vectors`` are rotated so
    ``project(x)``, the perturbation's matrix x^T P x there, is diagonal (the
    identity when P does not couple the group).  Returns (coefficients,
    rotated vectors) with coefficients ascending inside each group.
    """
    vectors = np.array(vectors)
    coeffs = np.empty(values.size)
    for grp in degenerate_groups(values):
        x = vectors[:, grp]
        coeffs[grp], w = np.linalg.eigh(project(x))
        vectors[:, grp] = x @ w
    return coeffs, vectors


def resolve_degeneracies(h0_eigen: EigenSystem, v_diag):
    """Per-state first-order coefficients of a perturbation, degeneracy-safe.

    ``v_diag`` is the perturbation's diagonal in the eigenvectors' occupation
    basis, as for any density-density term.  Within each degenerate subspace
    of the unperturbed spectrum, the eigenvectors are rotated so the
    perturbation is diagonal there.  Returns (coefficients, vectors) in the
    unperturbed ordering, with states ordered by ascending coefficient inside
    each degenerate group, so ``h0_eigen.energies + lam * coefficients`` are
    the first-order energies.
    """
    if h0_eigen.vectors is None:
        raise ValueError("eigenvectors are required for perturbation theory")
    v = np.asarray(v_diag, dtype=float)
    if v.shape != h0_eigen.vectors.shape[:1]:
        raise ValueError(f"v_diag shape {v.shape} is not the basis's {h0_eigen.vectors.shape[:1]}")
    # C order makes this bitwise equal to x.T @ np.diag(v) @ x; (x.T * v) @ x is not
    return _first_order_split(h0_eigen.energies, h0_eigen.vectors,
                              lambda x: np.multiply(x.T, v, order="C") @ x)


def _state_and_correction(h0_eigen: EigenSystem, v_diag, k: int):
    """Rotated eigenstate k and its first-order correction per unit coupling.

    The correction mixes in every state outside the degenerate group of k with
    amplitude proportional to the coupling matrix element over the energy gap.
    """
    _, vectors = resolve_degeneracies(h0_eigen, v_diag)
    gaps = h0_eigen.energies[k] - h0_eigen.energies
    outside = np.abs(gaps) > DEGENERACY_TOL
    amps = np.multiply(vectors.T, v_diag, order="C") @ vectors[:, k]
    return vectors[:, k], vectors[:, outside] @ (amps[outside] / gaps[outside])


def infer_free_labeling(energies):
    """Occupation labeling of a spectrum with free subset-sum structure.

    Returns (epsilons, pattern): the single-particle gaps above the lowest
    level and, for each spectrum entry in ascending order, the occupation
    bitstring reproducing it.  Raises if the spectrum is not consistent with
    any free labeling within LABELING_TOL.  Ties are resolved deterministically:
    equal-energy states take patterns in ascending bitstring order.
    """
    lv = energy_list(energies).ravel()
    if np.any(np.diff(lv) < -LABELING_TOL):
        raise ValueError("energies must be ascending")
    n_states = lv.size
    n_modes = n_states.bit_length() - 1
    if 1 << n_modes != n_states:
        raise ValueError(f"spectrum size {n_states} is not a power of two")
    shifted = lv - lv[0]
    eps, sums, unmatched = _greedy_match(shifted, n_modes, LABELING_TOL)
    if unmatched or len(eps) < n_modes:
        raise ValueError("spectrum admits no free labeling within tolerance")
    pattern = np.argsort(sums, kind="stable")
    dev = np.abs(sums[pattern] - shifted)
    bad = np.flatnonzero(dev > match_tolerance(shifted, LABELING_TOL))
    if bad.size:
        raise ValueError(f"level {bad[0]} deviates from the free reconstruction by {dev[bad[0]]:.2e}")
    return np.array(eps), pattern


def perturbative_free_decomposition(levels, pattern) -> PerturbativeDecomposition:
    """Split first-order energies into shifted mode energies and residuals.

    ``levels[k]`` is the first-order energy of the state labeled by the
    occupation bitstring ``pattern[k]``.  The vacuum (pattern 0) and the
    single-occupancy states pin the shifted single-particle energies,
    measured from the perturbed vacuum; every remaining state's deviation
    from the subset sum is its residual interaction energy.
    """
    levels = energy_list(levels)
    pattern = np.asarray(pattern, dtype=np.int64)
    if pattern.shape != levels.shape:
        raise ValueError("pattern and spectrum sizes differ")
    n_modes = int(pattern.max()).bit_length()
    if 1 << n_modes != pattern.size:
        raise ValueError(f"pattern does not enumerate a full set of {pattern.size} states")
    pins = [np.flatnonzero(pattern == bits) for bits in [0] + [1 << j for j in range(n_modes)]]
    if any(hits.size != 1 for hits in pins):
        raise ValueError("pattern must contain exactly one vacuum state and one "
                         "single-occupancy state per mode")
    pins = np.concatenate(pins)
    e_vacuum = levels[pins[0]]
    eps = levels[pins[1:]] - e_vacuum
    residual = (levels - e_vacuum) - subset_sums(eps)[pattern]
    residual[pins] = 0.0
    return PerturbativeDecomposition(eps, residual, pattern, float(e_vacuum))


def perturbative_dth(decomp: PerturbativeDecomposition, beta: float) -> float:
    """Closed-form first-order thermal interaction distance.

    Weights the residual interaction energies with the Gibbs distribution of
    the shifted free spectrum and measures their weighted absolute deviation
    from the mean.  Exactly homogeneous in the residuals; accurate while
    beta * delta_e stays small (a warning is emitted above DTH_VALIDITY_LIMIT).
    """
    w = boltzmann_weights(decomp.free_part(), beta)
    scaled = beta * decomp.delta_e
    worst = np.abs(scaled).max(initial=0.0)
    if worst > DTH_VALIDITY_LIMIT:
        warnings.warn(
            "first-order treatment is unreliable: "
            f"max |beta * delta_e| = {worst:.3g} > {DTH_VALIDITY_LIMIT}",
            stacklevel=2,
        )
    mean = w @ scaled
    return 0.5 * float(w @ np.abs(scaled - mean))


def first_order_reduced_density(h0_eigen: EigenSystem, v_diag, basis, region_a):
    """First-order eigenvalues r0 + lam * slope of the ground state's density matrix over A.

    ``v_diag`` is the perturbation's diagonal over ``basis``, the eigenvectors'
    occupation basis.  With M0 and M1 the amplitude matrices of the ground state
    and of its first-order correction, this is one degenerate first-order step on
    M0 M0^T with the perturbation M0 M1^T + M1 M0^T.  Returns (r0, slope), both descending.
    """
    psi0, psi1 = _state_and_correction(h0_eigen, v_diag, 0)
    m0 = amplitude_matrix(psi0, basis, region_a)
    m1 = amplitude_matrix(psi1, basis, region_a)
    r0, vectors = np.linalg.eigh(m0 @ m0.T)
    pert = m0 @ m1.T + m1 @ m0.T
    slope, _ = _first_order_split(r0, vectors, lambda x: x.T @ pert @ x)
    return r0[::-1], slope[::-1]


def perturbative_dent(r0, slope, lam: float) -> float:
    """First-order entanglement interaction distance.

    The free labeling of the entanglement energies -log(r0) pairs every
    entry of r = r0 + lam * slope with an occupation pattern; the vacuum and
    single-occupancy entries of r pin the free spectrum it is compared with.
    Valid while the coupling is weak enough that every entry stays positive
    and distinct levels of r0 keep their order; raises otherwise.
    """
    r0 = np.asarray(r0, dtype=float)
    r = r0 + lam * np.asarray(slope, dtype=float)
    if min(r0.min(), r.min()) <= 0.0:
        raise ValueError(f"an eigenvalue reaches 0 at coupling {lam}; first order is invalid")
    if np.any((r0[:, None] - r0[None, :] > DEGENERACY_TOL) & (r[:, None] <= r[None, :])):
        raise ValueError(f"level ordering violated at coupling {lam}; first order is invalid")
    _, pattern = infer_free_labeling(-np.log(r0))
    free = perturbative_free_decomposition(-np.log(r), pattern).free_part()
    q = boltzmann_weights(free, 1.0)
    return 0.5 * float(np.abs(r - q).sum())
