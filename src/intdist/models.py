"""Pre-built interacting models: the two-site Hubbard dimer and spinless chains.

The dimer carries two sites with spinful fermions, hopping t, staggered
on-site potentials, and an on-site interaction V; it conserves total spin
projection, so the largest block (S_z = 0, four states) is built directly.
The spinless chain is a generic open lattice with hopping, on-site
potentials, and density-density interactions.

Each parameter class is its model: it names the field a sweep sets
(``coupling``) and gives its sectors' ``particle_numbers()``, one ``sector(n)``,
the ``kernel()`` and ``interaction_matrix()`` at its own coupling, and the
modes on one side of the entanglement ``cut()`` (site 1, or a chain's left half).
"""

from dataclasses import dataclass

import numpy as np

from .fock import (ManyBodyOperator, OccupationBasis, build_basis, build_quadratic,
                   density_density_diagonal, integer, real, real_array, symmetric_matrix)
from .spectra import MAX_DIM

#: Longest chain the CLI and ChainParams accept: the largest whose Fock space
#: fits the exact-diagonalization cap.
MAX_CHAIN_SITES = MAX_DIM.bit_length() - 1

#: Modes of site 1 (up, down); the complement is site 2.  Mode layout:
#: 0 = site-1 up, 1 = site-1 down, 2 = site-2 up, 3 = site-2 down.
DIMER_SITE1_MODES = (0, 1)


@dataclass(frozen=True)
class DimerParams:
    """Finite couplings of the two-site Hubbard model (defaults: t=1, staggered +-1)."""

    coupling = "v"  # not annotated: a class attribute, not a field

    t: float = 1.0
    delta1: float = 1.0
    delta2: float = -1.0
    v: float = 0.0

    def __post_init__(self):
        for name in ("t", "delta1", "delta2", "v"):
            object.__setattr__(self, name, real(name, getattr(self, name)))

    def particle_numbers(self) -> tuple:
        return (2,)

    def sector(self, n: int) -> ManyBodyOperator:
        """The S_z = 0 block of the n = 2 sector, the one block the dimer builds."""
        return hubbard_dimer(self)[0]

    def kernel(self) -> np.ndarray:
        """One-body kernel over (site1 up, site1 down, site2 up, site2 down)."""
        t, d1, d2 = self.t, self.delta1, self.delta2
        return np.array([
            [d1, 0.0, -t, 0.0],
            [0.0, d1, 0.0, -t],
            [-t, 0.0, d2, 0.0],
            [0.0, -t, 0.0, d2],
        ])

    def interaction_matrix(self) -> np.ndarray:
        """Density-density couplings putting weight v on each doubly occupied site."""
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = self.v / 2.0
        m[2, 3] = m[3, 2] = self.v / 2.0
        return m

    def cut(self) -> tuple:
        return DIMER_SITE1_MODES


_DIMER_SECTOR_BASIS = OccupationBasis(4, (0b1100, 0b1001, 0b0110, 0b0011))


def dimer_sector_basis() -> OccupationBasis:
    """The S_z = 0 half-filled sector in the reference ordering.

    States: site 2 doubly occupied; up on site 1 / down on site 2; down on
    site 1 / up on site 2; site 1 doubly occupied.  The ordering is fixed so
    eigenvector coefficients are stable for comparison against tabulated
    values.  The basis is immutable, so every call returns the same object.
    """
    return _DIMER_SECTOR_BASIS


def hubbard_dimer(params: DimerParams = DimerParams()):
    """Dimer Hamiltonian in the S_z = 0 sector, plus its interaction part.

    Returns (H, v_diag) over dimer_sector_basis(); H is built from v_diag, the
    interaction's diagonal (v, 0, 0, v), which perturbation theory takes.
    """
    basis = dimer_sector_basis()
    v_diag = density_density_diagonal(basis, params.interaction_matrix())
    return build_quadratic(basis, params.kernel(), diagonal=v_diag), v_diag


@dataclass(frozen=True)
class ChainParams:
    """Open spinless chain: hopping, on-site potentials, density interactions.

    hopping and interaction accept either a scalar (uniform nearest-neighbor
    strength) or a full symmetric matrix; potential accepts a scalar or a
    per-site vector.  The one-body kernel is diag(potential) minus the
    hopping matrix, so a positive scalar hopping is the usual -t bond term.
    Every field is checked on construction: a bad one raises under its own name.
    """

    coupling = "interaction"

    n_sites: int
    hopping: object = 1.0
    potential: object = 0.0
    interaction: object = 0.0

    def __post_init__(self):
        integer("n_sites", self.n_sites, 1, MAX_CHAIN_SITES)
        for build in (self.hopping_matrix, self.potential_vector, self.interaction_matrix):
            build()

    def _bond_matrix(self, value, name: str) -> np.ndarray:
        n = self.n_sites
        if np.isscalar(value):
            m = np.zeros((n, n))
            i = np.arange(n - 1)
            m[i, i + 1] = m[i + 1, i] = real(name, value)
            value = m
        return symmetric_matrix(value, n, f"{name} matrix", "n_sites")

    def hopping_matrix(self) -> np.ndarray:
        return self._bond_matrix(self.hopping, "hopping")

    def interaction_matrix(self) -> np.ndarray:
        return self._bond_matrix(self.interaction, "interaction")

    def potential_vector(self) -> np.ndarray:
        if np.isscalar(self.potential):
            return np.full(self.n_sites, real("potential", self.potential))
        mu = real_array("potential", self.potential)
        if mu.shape != (self.n_sites,):
            raise ValueError(f"potential length {mu.shape} does not match n_sites={self.n_sites}")
        if not np.isfinite(mu).all():
            raise ValueError(f"potential must be finite, got {mu}")
        return mu

    def kernel(self) -> np.ndarray:
        return np.diag(self.potential_vector()) - self.hopping_matrix()

    def particle_numbers(self) -> range:
        return range(self.n_sites + 1)

    def sector(self, n: int) -> ManyBodyOperator:
        return spinless_chain(self, n)

    def cut(self) -> tuple:
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2 for an entanglement cut, got {self.n_sites}")
        return tuple(range(self.n_sites // 2))


def spinless_chain(params: ChainParams, n_particles: int | None = None) -> ManyBodyOperator:
    """Hamiltonian of an open spinless chain over its full Fock space, or over
    the sector of ``n_particles`` particles when that is given."""
    basis = build_basis(params.n_sites, n_particles)
    v_diag = density_density_diagonal(basis, params.interaction_matrix())
    return build_quadratic(basis, params.kernel(), diagonal=v_diag)
