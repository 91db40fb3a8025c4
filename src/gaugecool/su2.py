"""SU(2) representation primitives.

Conventions, fixed once for the whole package:

- Spins are passed as ``twice_j`` integers (2j), so j = 1/2 is the integer 1
  and half-integers never hit floating point in bookkeeping.
- Within a spin-j space the basis is ordered by magnetic quantum number
  m = -j, ..., +j ascending.
- The defining (j = 1/2) representation of a group element is the 2x2 matrix
  itself; equivalently, the first basis vector of C^2 carries m = -1/2.  The
  Pauli matrices consistent with this labeling are X = [[0,1],[1,0]],
  Y = [[0,i],[-i,0]], Z = diag(-1,+1), so Z has eigenvalue +1 on m = +1/2.
- Clebsch-Gordan coefficients follow the Condon-Shortley convention: real,
  with the highest-weight coefficient of largest m1 positive.

All functions are pure; cached arrays are returned read-only.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from types import MappingProxyType

import numpy as np

__all__ = [
    "m_values",
    "spin_matrices",
    "coupled_spins",
    "cg_isometry",
    "clebsch_gordan",
    "wigner_d",
    "pauli_matrices",
    "spherical_pauli",
]


def m_values(twice_j: int) -> np.ndarray:
    """Magnetic quantum numbers -j..+j in ascending order."""
    return (np.arange(twice_j + 1) * 2.0 - twice_j) / 2.0


@lru_cache(maxsize=32)
def _spin_matrices(twice_j: int):
    d = twice_j + 1
    j = twice_j / 2.0
    m = m_values(twice_j)
    # J+ |j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>
    c = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1.0))
    jp = np.zeros((d, d), dtype=complex)
    jp[np.arange(1, d), np.arange(d - 1)] = c
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    jz = np.diag(m).astype(complex)
    for a in (jx, jy, jz, jp):
        a.setflags(write=False)
    return jx, jy, jz, jp


def spin_matrices(twice_j: int):
    """Spin matrices (Jx, Jy, Jz) in the ascending-m basis.

    Built from ladder operators with Condon-Shortley phases; Hermitian,
    satisfying [Jx, Jy] = i Jz and Jx^2+Jy^2+Jz^2 = j(j+1).
    """
    if twice_j < 0:
        raise ValueError("twice_j must be a non-negative integer")
    jx, jy, jz, _ = _spin_matrices(twice_j)
    return jx, jy, jz


def coupled_spins(twice_j1: int, twice_j2: int):
    """Total spins 2J appearing in j1 (x) j2, ascending."""
    return tuple(range(abs(twice_j1 - twice_j2), twice_j1 + twice_j2 + 1, 2))


@lru_cache(maxsize=32)
def _cg_blocks(twice_j1: int, twice_j2: int):
    """Clebsch-Gordan isometries for j1 (x) j2, keyed by 2J.

    Each value is a real (d1*d2, 2J+1) array whose columns are the coupled
    states |J,M> (M ascending) in the product basis kron(|m1>, |m2>).
    Constructed by highest-weight descent: the top-J highest weight is the
    unique product state; each lower highest weight is the (1-dimensional)
    orthogonal complement of the higher chains within its M subspace, signed
    by the Condon-Shortley rule; the rest of each chain follows by lowering.
    """
    d1, d2 = twice_j1 + 1, twice_j2 + 1
    m1 = m_values(twice_j1)
    m2 = m_values(twice_j2)
    mprod = (m1[:, None] + m2[None, :]).reshape(-1)
    m1prod = np.broadcast_to(m1[:, None], (d1, d2)).reshape(-1)
    jm1 = _spin_matrices(twice_j1)[3].conj().T.real
    jm2 = _spin_matrices(twice_j2)[3].conj().T.real
    jminus = np.kron(jm1, np.eye(d2)) + np.kron(np.eye(d1), jm2)

    blocks: dict[int, np.ndarray] = {}
    for tJ in range(twice_j1 + twice_j2, abs(twice_j1 - twice_j2) - 2, -2):
        J = tJ / 2.0
        dJ = tJ + 1
        sel = np.nonzero(np.abs(mprod - J) < 0.25)[0]
        if tJ == twice_j1 + twice_j2:
            v = np.zeros(d1 * d2)
            v[sel[0]] = 1.0
        else:
            higher = [
                blocks[tJp][sel, (tJ + tJp) // 2]
                for tJp in range(twice_j1 + twice_j2, tJ, -2)
            ]
            a = np.stack(higher, axis=0)
            _, _, vh = np.linalg.svd(a, full_matrices=True)
            v = np.zeros(d1 * d2)
            v[sel] = vh[-1]
        nz = sel[np.abs(v[sel]) > 1e-10]
        if v[nz[np.argmax(m1prod[nz])]] < 0:
            v = -v
        cols = np.zeros((d1 * d2, dJ))
        cols[:, dJ - 1] = v
        for k in range(dJ - 1, 0, -1):
            M = -J + k
            cols[:, k - 1] = jminus @ cols[:, k] / np.sqrt(J * (J + 1) - M * (M - 1.0))
        cols.setflags(write=False)
        blocks[tJ] = cols
    return MappingProxyType(blocks)


def cg_isometry(twice_j1: int, twice_j2: int, twice_J: int) -> np.ndarray:
    """The (d1*d2, 2J+1) matrix of CG coefficients onto total spin J.

    Columns are |J,M> for M ascending; rows follow kron(|m1>, |m2>) order.
    """
    if twice_J not in coupled_spins(twice_j1, twice_j2):
        raise ValueError(f"J={twice_J/2} not in j1 x j2 = {twice_j1/2} x {twice_j2/2}")
    return _cg_blocks(twice_j1, twice_j2)[twice_J]


def _twice(x, name: str) -> int:
    tx = 2.0 * x
    if not math.isfinite(tx) or abs(tx - round(tx)) > 1e-9:
        raise ValueError(f"{name} = {x} is not a half-integer")
    return int(round(tx))


def _check_count(x, name: str) -> None:
    """Reject an x that is not an integer of at least 1."""
    if not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    if x < 1:
        raise ValueError(f"{name} must be at least 1")


def _check_positive(x, name: str) -> None:
    """Reject an x that is not a finite positive number."""
    if not math.isfinite(x) or x <= 0:
        raise ValueError(f"{name} must be a finite positive number")


def _check_integer_in(x, allowed, message: str) -> None:
    """Reject, with message, an x that is not an integer in allowed."""
    if not (isinstance(x, numbers.Integral) and x in allowed):
        raise ValueError(message)


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M> (Condon-Shortley).

    Returns 0 when M != m1+m2 or J lies outside |j1-j2|..j1+j2; raises
    ValueError for malformed quantum numbers (non-half-integer, parity
    mismatch, or |m| > j).
    """
    tj1, tm1 = _twice(j1, "j1"), _twice(m1, "m1")
    tj2, tm2 = _twice(j2, "j2"), _twice(m2, "m2")
    tJ, tM = _twice(J, "J"), _twice(M, "M")
    for tj, tm, nm in ((tj1, tm1, "m1"), (tj2, tm2, "m2"), (tJ, tM, "M")):
        if tj < 0:
            raise ValueError("spins must be non-negative")
        if (tj - tm) % 2 != 0:
            raise ValueError(f"{nm} has wrong parity for its spin")
        if abs(tm) > tj:
            raise ValueError(f"|{nm}| exceeds its spin")
    if tM != tm1 + tm2 or tJ not in coupled_spins(tj1, tj2):
        return 0.0
    row = ((tm1 + tj1) // 2) * (tj2 + 1) + (tm2 + tj2) // 2
    return float(_cg_blocks(tj1, tj2)[tJ][row, (tM + tJ) // 2])


def _checked_su2(g, where: str) -> np.ndarray:
    """g as a read-only complex 2x2 array, or a ValueError naming ``where``
    unless g is 2x2, finite, unitary and of determinant 1, each to 1e-9."""
    arr = np.array(g, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"{where} must be a 2x2 matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{where} has non-finite entries")
    if np.max(np.abs(arr @ arr.conj().T - np.eye(2))) > 1e-9:
        raise ValueError(f"{where} is not unitary")
    det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise ValueError(f"{where} must have determinant 1")
    arr.setflags(write=False)
    return arr


def wigner_d(twice_j: int, g: np.ndarray) -> np.ndarray:
    """Wigner D-matrix of g in spin j: the (2j+1)-dim representation matrix.

    Computed by repeated Clebsch-Gordan reduction of D^(j-1/2) (x) D^(1/2),
    i.e. exact polynomial evaluation in the entries of g (no Euler angles,
    no branch cuts).  D^(0) = [[1]] and D^(1/2) = g.  A g that is not an
    SU(2) element (``_checked_su2``) is a ValueError.
    """
    g = _checked_su2(g, "group element")
    if not isinstance(twice_j, numbers.Integral) or twice_j < 0:
        raise ValueError("twice_j must be a non-negative integer")
    d = g.copy() if twice_j else np.ones((1, 1), dtype=complex)
    for tj in range(2, twice_j + 1):
        c = _cg_blocks(tj - 1, 1)[tj]
        d = c.T @ np.kron(d, g) @ c
    return d


@lru_cache(maxsize=None)
def _paulis():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
    z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
    for a in (x, y, z):
        a.setflags(write=False)
    return x, y, z


def pauli_matrices():
    """(X, Y, Z) in the ascending-m basis; Z = +1 on m = +1/2.

    These equal twice the spin-1/2 matrices, so they generate the same
    rotations as the defining representation.
    """
    return _paulis()


def spherical_pauli(q: int) -> np.ndarray:
    """Rank-1 spherical tensor components of the Pauli triple.

    O_0 = Z and O_{+-1} = -+ (X +- iY)/sqrt(2); these satisfy
    [Jz, O_q] = q O_q and sum_q O_q^dagger O_q = 3 * identity.
    """
    _check_integer_in(q, (-1, 0, 1), "spherical component q must be -1, 0, or +1")
    x, y, z = _paulis()
    if q == 0:
        return z.copy()
    if q == 1:
        return -(x + 1j * y) / np.sqrt(2.0)
    return (x - 1j * y) / np.sqrt(2.0)
