"""Sector-vector helpers shared by the engine suites.

The package's only state is a vector over one electron-number sector,
``fock.sector_basis(n_rails, k)``.  These helpers build the pump-loaded
vector, move between a sector and the 2^n masks that the dense oracles
index, and evolve a 2^n vector by splitting it into its sectors, evolving
each with ``apply_element_batch`` and scattering the pieces back.
"""

import numpy as np

from flyqsim import fock
from flyqsim.gates import apply_element_batch


def loaded(n_rails: int, occupied):
    """``(k, vector)``: one electron on each rail of ``occupied``, as a
    unit vector over the ``k``-electron sector."""
    mask = fock.occupation_mask(n_rails, occupied)
    k = mask.bit_count()
    basis = fock.sector_basis(n_rails, k)
    vector = np.zeros(basis.size, dtype=complex)
    vector[np.searchsorted(basis, mask)] = 1.0
    return k, vector


def basis_vector(n_rails: int, mask: int):
    """``(k, vector)`` of the basis state ``mask``."""
    return loaded(n_rails, [r for r in range(n_rails) if (mask >> r) & 1])


def scatter(vector, n_rails: int, k: int) -> np.ndarray:
    """The 2^n vector that holds ``vector`` on the ``k`` sector, 0 elsewhere."""
    full = np.zeros(1 << n_rails, dtype=complex)
    full[fock.sector_basis(n_rails, k)] = vector
    return full


def restrict(matrix, n_rails: int, k: int) -> np.ndarray:
    """Rows and columns of a 2^n x 2^n ``matrix`` on the ``k`` sector."""
    basis = fock.sector_basis(n_rails, k)
    return matrix[np.ix_(basis, basis)]


def by_sector(vector, n_rails: int, update) -> np.ndarray:
    """Apply ``update(piece, k)``, in place on ``piece``, to each sector's
    piece of a 2^n ``vector``; returns the pieces scattered back."""
    out = np.zeros(1 << n_rails, dtype=complex)
    for k in range(n_rails + 1):
        basis = fock.sector_basis(n_rails, k)
        piece = np.asarray(vector, dtype=complex)[basis]
        update(piece, k)
        out[basis] = piece
    return out


def evolve(vector, n_rails: int, elements) -> np.ndarray:
    """A 2^n ``vector`` through ``elements``, sector by sector."""
    def update(piece, k):
        for element in elements:
            apply_element_batch(piece, n_rails, element, k)
    return by_sector(vector, n_rails, update)


def evolve_mode_unitary(vector, n_rails: int, rails, u) -> np.ndarray:
    """A 2^n ``vector`` through one mode unitary, sector by sector."""
    return by_sector(
        vector, n_rails,
        lambda piece, k: fock.mode_unitary_batch(piece, n_rails, rails, u, k))
