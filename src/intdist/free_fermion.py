"""Free-fermion spectra: kernel diagonalization, combinatorial generation and
greedy decomposition.

A free system is fully described by a reference energy and the single
particle energies of its quadratic kernel; the many-body spectrum is the set
of all subset sums on top of the reference.  The greedy subset-sum matcher
recovers single-particle gaps from a level list: it seeds the fit and labels
free spectra for perturbation theory.
"""

from dataclasses import dataclass

import numpy as np

from .fock import MAX_MODES, readonly, symmetric_matrix
from .spectra import ProbabilitySpectrum, thermal_probabilities

#: Relative tolerance (times max(1, top level)) for matching subset sums to levels.
GREEDY_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class FreeSpectrumParams:
    """Reference energy plus single-particle energies, stored ascending."""

    e0: float
    epsilons: np.ndarray

    def __post_init__(self):
        eps = np.sort(np.asarray(self.epsilons, dtype=float).ravel())
        if not np.all(np.isfinite(eps)) or not np.isfinite(self.e0):
            raise ValueError("free-spectrum parameters must be finite")
        object.__setattr__(self, "epsilons", readonly(eps, float))

    @property
    def n_modes(self) -> int:
        return self.epsilons.size


def diagonalize_kernel(kernel) -> np.ndarray:
    """Single-particle energies of a real symmetric kernel, ascending."""
    h = np.asarray(kernel, dtype=float)
    return np.linalg.eigvalsh(symmetric_matrix(h, h.shape[0] if h.ndim else 0, "kernel", "rows"))


def subset_sums(epsilons) -> np.ndarray:
    """All 2^N sums of subsets of epsilons, indexed by occupation bitstring.

    The last axis, which epsilons must have, holds the N mode energies; leading
    axes are a batch, so shape (..., N) gives (..., 2^N), each row equal to its
    own 1-D call.
    """
    eps = np.asarray(epsilons, dtype=float)
    n = eps.shape[-1]
    if n > MAX_MODES:
        raise ValueError(f"too many free modes ({n} > {MAX_MODES})")
    levels = np.zeros(eps.shape[:-1] + (1 << n,))
    for j in range(n):  # doubling: the sums with mode j occupied follow those without
        k = 1 << j
        np.add(levels[..., :k], eps[..., j, None], out=levels[..., k:2 * k])
    return levels


def free_many_body_spectrum(params: FreeSpectrumParams) -> np.ndarray:
    """Energies E_0 + sum_j eps_j n_j(k) for every occupation pattern k."""
    return params.e0 + subset_sums(params.epsilons)


def free_probabilities(params: FreeSpectrumParams, beta: float) -> ProbabilitySpectrum:
    """Gibbs spectrum of a free many-body spectrum; the reference drops out."""
    return thermal_probabilities(free_many_body_spectrum(params), beta)


def match_tolerance(levels, rtol: float) -> float:
    """Absolute tolerance rtol * max(1, |top level|) for ascending levels above 0."""
    return rtol * max(1.0, abs(levels[-1]))


def _greedy_match(levels, n_modes: int, rtol: float):
    """Greedy subset-sum matching of ascending levels measured from their lowest entry.

    Each round merges the ascending sums of the gaps so far into the levels with
    one pointer: a sum claims the lowest unclaimed level within match_tolerance,
    and the lowest level left unclaimed becomes the next gap.  Returns (gaps,
    subset_sums(gaps), unmatched): up to n_modes gaps, fewer once every level is
    claimed, and how many sums matched no level.
    """
    atol = match_tolerance(levels, rtol)
    lv, n = levels.tolist(), levels.size
    gaps, unmatched = [], 0
    for _ in range(n_modes):
        p, first = 0, n
        for s in np.sort(subset_sums(gaps)).tolist():
            # a level below this sum's window is below every later sum's too
            while p < n and lv[p] - s < -atol:
                first = min(first, p)
                p += 1
            matched = p < n and lv[p] - s <= atol
            p += matched
            unmatched += not matched
        first = min(first, p)
        if first == n:
            break
        gaps.append(lv[first])
    return gaps, subset_sums(gaps), unmatched


def greedy_single_particle_gaps(levels, n_modes: int, filler: float) -> np.ndarray:
    """Greedy decomposition of a level list into n_modes single-particle gaps.

    The lowest level is taken as the reference; repeatedly, each ascending sum
    of the gaps found so far claims the lowest unclaimed level within
    GREEDY_MATCH_TOL, and the lowest level left unclaimed becomes the next gap.
    Exact for a spectrum with the free subset-sum structure; a heuristic
    otherwise.  Modes the level list cannot resolve are assigned ``filler``,
    which the caller picks high enough that they carry negligible weight.
    """
    lv = np.sort(np.asarray(levels, dtype=float).ravel())
    lv = lv[np.isfinite(lv)]
    if lv.size == 0:
        raise ValueError("no finite levels to decompose")
    lv = lv - lv[0]
    gaps, _, _ = _greedy_match(lv, n_modes, GREEDY_MATCH_TOL)
    return np.array(gaps + [filler] * (n_modes - len(gaps)))
