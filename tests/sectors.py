"""Sector-vector helpers shared by the engine suites.

The package's only state is a vector over one electron-number sector,
``fock.sector_basis(n_rails, k)``.  These helpers build the pump-loaded
vector, move between a sector and the 2^n masks that the dense oracles
index, and evolve a 2^n vector by splitting it into its sectors, evolving
each with ``apply_element_batch`` and scattering the pieces back, and
keep the element-by-element update the stretch kernel replaced as its
reference (``reference_element``, ``reference_stretch``).
"""

import numpy as np

from flyqsim import fock
from flyqsim.gates import (
    CoulombCoupler,
    PhaseShifter,
    apply_element_batch,
    coupler_matrix,
)


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


def reference_element(batch, n_rails: int, element, k: int) -> None:
    """One element on ``batch``, in place, by index gathers over the basis.

    The element-by-element update that the stretch kernel replaced, kept as
    its reference: phases multiply the positions that occupy their rails,
    and a coupler mixes each lo-only mask with its hi-only partner by
    ``coupler_matrix``, its hopping amplitudes signed by the occupied rails
    between the pair, and scales doubly occupied masks by det(u).
    """
    basis = fock.sector_basis(n_rails, k)
    if isinstance(element, PhaseShifter):
        idx = np.flatnonzero((basis >> element.rail) & 1)
        batch[idx] = batch[idx] * np.exp(1j * element.phi)
    elif isinstance(element, CoulombCoupler):
        a, b = element.rails
        idx = np.flatnonzero((basis >> a) & (basis >> b) & 1)
        batch[idx] = batch[idx] * np.exp(-2j * element.chi_t)
    else:
        u = coupler_matrix(element.coupling_length, element.transfer_length)
        lo, hi = element.rails
        if lo > hi:
            lo, hi, u = hi, lo, u[::-1, ::-1]
        lo_set, hi_set = (basis >> lo) & 1, (basis >> hi) & 1
        m10 = np.flatnonzero(lo_set > hi_set)
        m01 = np.searchsorted(basis, basis[m10] ^ ((1 << lo) | (1 << hi)))
        m11 = np.flatnonzero(lo_set & hi_set)
        between = sum(1 << r for r in range(lo + 1, hi))
        signs = 1.0 - 2.0 * (np.bitwise_count(basis[m10] & between) & 1)
        if batch.ndim == 2:
            signs = signs[:, np.newaxis]
        x10, x01 = batch[m10], batch[m01]
        batch[m10] = u[0, 0] * x10 + u[0, 1] * (signs * x01)
        batch[m01] = u[1, 0] * (signs * x10) + u[1, 1] * x01
        batch[m11] = batch[m11] * (u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0])


def reference_stretch(batch, n_rails: int, elements, k: int) -> None:
    """``reference_element`` for each of ``elements`` in turn."""
    for element in elements:
        reference_element(batch, n_rails, element, k)
