"""Electric and magnetic Kogut-Susskind Hamiltonians on the plaquette.

The electric part is diagonal in the Wigner basis: each edge contributes
(g^2/2) * j(j+1) on its spin-j states, i.e. diag(0, 3/4, 3/4, 3/4, 3/4) per
edge at the j <= 1/2 truncation.

The magnetic part comes from the trace of the oriented product of link
operators around the plaquette.  Each edge carries the tensor

    T[a, b, I', I] = sqrt(d_j' d_j) * <1/2 a; j m | j' m'> <1/2 b; j n | j' n'> / d_j'

(nonzero only for m' = a+m, n' = b+n, |j - 1/2| <= j' <= j + 1/2), and the
625x625 plaquette matrix is the cyclic contraction of the four edge tensors
over the fundamental indices a, b0, b1, b2.  The Hamiltonian is
H_B = -(P + P^dagger) / (2 g^2).  P has 256 nonzeros, on 161 states, which
``_plaquette_entries`` contracts directly; the dense P is scattered from them.

``reference.haar_mc_oracle`` estimates the same plaquette matrix by Monte
Carlo over Haar-random group elements on the four edges, with no
Clebsch-Gordan input, providing an independent cross-check of the
contraction.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .lattice import EDGE_DIM, N_EDGES, TOTAL_DIM, edge_basis
from .su2 import _check_positive, clebsch_gordan

__all__ = [
    "electric_edge_term",
    "electric_hamiltonian",
    "magnetic_plaquette_matrix",
    "magnetic_hamiltonian",
]


def electric_edge_term(g2: float = 1.0) -> np.ndarray:
    """Single-edge electric energy (g^2/2) j(j+1), diagonal 5x5."""
    _check_positive(g2, "g2")
    jj = np.array([tj / 2 * (tj / 2 + 1) for tj, _, _ in edge_basis(1)])
    return np.diag(g2 / 2 * jj).astype(complex)


def _electric_diagonal(g2: float) -> np.ndarray:
    """H_E's diagonal: the four edges' electric energies summed, e0 slowest."""
    return reduce(np.add.outer, [np.diag(electric_edge_term(g2)).real] * N_EDGES).ravel()


def electric_hamiltonian(g2: float = 1.0) -> np.ndarray:
    """Sum of the per-edge electric terms over all four edges, diagonal."""
    return np.diag(_electric_diagonal(g2)).astype(complex)


@lru_cache(maxsize=None)
def _edge_tensor() -> np.ndarray:
    """Link-operator tensor T[a, b, I', I], the same on every edge.

    Indices a, b run over the fundamental components (-1/2, +1/2); I', I over
    the 5-dimensional edge basis.  Entries violating the selection rules are
    structurally zero.
    """
    labels = edge_basis(1)
    t = np.zeros((2, 2, EDGE_DIM, EDGE_DIM))
    for i, (tj, tm, tn) in enumerate(labels):
        for ip, (tjp, tmp, tnp) in enumerate(labels):
            if abs(tjp - tj) != 1:  # j' must lie in j (x) 1/2, truncated
                continue
            for ai, ta in enumerate((-1, 1)):
                if tmp != ta + tm:
                    continue
                for bi, tb in enumerate((-1, 1)):
                    if tnp != tb + tn:
                        continue
                    cm = clebsch_gordan(0.5, ta / 2, tj / 2, tm / 2, tjp / 2, tmp / 2)
                    cn = clebsch_gordan(0.5, tb / 2, tj / 2, tn / 2, tjp / 2, tnp / 2)
                    dj, djp = tj + 1.0, tjp + 1.0
                    t[ai, bi, ip, i] = np.sqrt(djp * dj) * cm * cn / djp
    t.setflags(write=False)
    return t


@lru_cache(maxsize=1)
def _plaquette_entries() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values): the plaquette matrix's nonzero entries, read-only.

    Contraction order: e0*e1 -> e2 as krons, then e3 and the trace index entry
    by entry: each entry sums its four (a, b2) terms in kron order from 0, as
    the dense kron contraction does, so it has the same bits.
    """
    t = _edge_tensor()
    m01 = {
        (a, b1): sum(np.kron(t[a, b0], t[b0, b1]) for b0 in range(2))
        for a in range(2)
        for b1 in range(2)
    }
    m012 = {
        (a, b2): sum(np.kron(m01[a, b1], t[b1, b2]) for b1 in range(2))
        for a in range(2)
        for b2 in range(2)
    }
    terms = [(m012[a, b2], t[b2, a]) for a in range(2) for b2 in range(2)]
    i, j = np.nonzero(np.logical_or.reduce([m != 0 for m, _ in terms]))
    k, n = np.nonzero(np.logical_or.reduce([e != 0 for _, e in terms]))
    values = sum(np.multiply.outer(m[i, j], e[k, n]) for m, e in terms)
    keep = values != 0
    entries = (np.add.outer(i * EDGE_DIM, k)[keep], np.add.outer(j * EDGE_DIM, n)[keep],
               values[keep])
    for a in entries:
        a.setflags(write=False)
    return entries


def magnetic_plaquette_matrix() -> np.ndarray:
    """The 625x625 matrix of the plaquette trace (before the Hermitian part
    and -1/g^2 scaling), scattered from ``_plaquette_entries``."""
    rows, cols, values = _plaquette_entries()
    p = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)
    p[rows, cols] = values
    return p


def magnetic_hamiltonian(g2: float = 1.0) -> np.ndarray:
    """H_B = -(P + P^dagger) / (2 g^2), Hermitian and real in this basis."""
    _check_positive(g2, "g2")
    p = magnetic_plaquette_matrix()
    return -(p + p.conj().T) / (2.0 * g2)

