"""Plaquette geometry and the 5^4-dimensional Wigner-basis Hilbert space.

A single square plaquette with four oriented edges,

    e0: v0 -> v1,  e1: v1 -> v2,  e2: v2 -> v3,  e3: v3 -> v0,

so every vertex has exactly one outgoing and one incoming edge.  Each edge
carries the spin-truncated group Hilbert space spanned by |j, m, n> with
j <= 1/2: five states per edge, enumerated

    0 <-> |0,0,0>,   1..4 <-> |1/2, m, n>,  (m,n) = (-,-), (-,+), (+,-), (+,+).

The full space is the Kronecker product over edges in the order
e0 (x) e1 (x) e2 (x) e3 (dimension 625).

At a vertex, left translations act on the m index of the outgoing edge (in
the conjugate representation) and right translations act on the n index of
the incoming edge, giving gauge generators

    G_a = L_a + R_a,   L_a = -J_a^T on m(e_out),   R_a = J_a on n(e_in),

and the unitary gauge action U(g) = conj(pi_j(g)) on m(e_out) times
pi_j(g) on n(e_in).  Vertex operators are written once on a vertex's two
edges (25 dimensions); ``lift_pair`` scatters them into dense 625-dim
operators through ``_state_layout``, the one (pair, spectator) -> state map.
The vertex Clebsch-Gordan basis on those two edges is a closed-form table
of exact irreducible chains, one entry per pair of edge spins.
``local_view`` owns the density-matrix layout (kets e0..e3, then bras), and
``charge_classes`` its block layout by gauge charge: the basis states grouped
by their four G_z^v values (281 classes, 2,273 entries), which ``pack`` and
``unpack`` map to and from a flat vector for the charge-conserving channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import groupby
from operator import attrgetter
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .su2 import _check_integer_in, spin_matrices, wigner_d

__all__ = [
    "N_EDGES",
    "N_VERTICES",
    "EDGE_DIM",
    "TOTAL_DIM",
    "EDGE_ENDPOINTS",
    "vertex_edges",
    "edge_basis",
    "edge_state_index",
    "product_index",
    "vacuum_state",
    "local_view",
    "ChargeClasses",
    "charge_classes",
    "pack",
    "unpack",
    "embed_edge_operator",
    "lift_pair",
    "gauge_generator",
    "gauge_casimir",
    "gauge_action",
    "CGEntry",
    "VertexCGBasis",
    "build_cg_basis",
    "pair_edges",
    "pair_cg_basis",
    "singlet_projector",
    "physical_subspace_basis",
]

N_EDGES = 4
N_VERTICES = 4
EDGE_DIM = 5
TOTAL_DIM = EDGE_DIM**N_EDGES

# edge e runs from EDGE_ENDPOINTS[e][0] to EDGE_ENDPOINTS[e][1]
EDGE_ENDPOINTS = ((0, 1), (1, 2), (2, 3), (3, 0))

_AXES = {"x": 0, "y": 1, "z": 2}


def vertex_edges(v: int) -> tuple[int, int]:
    """(outgoing edge, incoming edge) at vertex v."""
    _check_integer_in(v, range(N_VERTICES), "vertex index out of range")
    out = next(e for e, (a, _) in enumerate(EDGE_ENDPOINTS) if a == v)
    inc = next(e for e, (_, b) in enumerate(EDGE_ENDPOINTS) if b == v)
    return out, inc


def _check_edge(e: int) -> None:
    _check_integer_in(e, range(N_EDGES), "edge index out of range")


def edge_basis(twice_j_max: int = 1):
    """Edge basis labels (2j, 2m, 2n): j ascending, then m, then n ascending."""
    labels = []
    for tj in range(twice_j_max + 1):
        for tm in range(-tj, tj + 1, 2):
            for tn in range(-tj, tj + 1, 2):
                labels.append((tj, tm, tn))
    return labels


_EDGE_BASIS = edge_basis(1)
_EDGE_INDEX = {lab: i for i, lab in enumerate(_EDGE_BASIS)}


def edge_state_index(twice_j: int, twice_m: int, twice_n: int) -> int:
    """Position of |j,m,n> in the 5-dimensional edge basis."""
    try:
        return _EDGE_INDEX[(twice_j, twice_m, twice_n)]
    except KeyError:
        raise ValueError(f"no edge state (2j,2m,2n)=({twice_j},{twice_m},{twice_n})")


def product_index(i0: int, i1: int, i2: int, i3: int) -> int:
    """Flat index of |i0>|i1>|i2>|i3> in the e0 (x) e1 (x) e2 (x) e3 order."""
    return ((i0 * EDGE_DIM + i1) * EDGE_DIM + i2) * EDGE_DIM + i3


def vacuum_state() -> np.ndarray:
    """All four edges in |0,0,0>."""
    psi = np.zeros(TOTAL_DIM, dtype=complex)
    psi[0] = 1.0
    return psi


def local_view(rho: np.ndarray, edges: tuple[int, ...]) -> np.ndarray:
    """rho as (local kets, local bras, other kets, other bras), the others ascending.

    For a C-contiguous rho this is a view, so writing into it writes rho."""
    for e in edges:
        _check_edge(e)
    rest = tuple(e for e in range(N_EDGES) if e not in edges)
    axes = (*edges, *(N_EDGES + e for e in edges), *rest, *(N_EDGES + e for e in rest))
    return rho.reshape((EDGE_DIM,) * (2 * N_EDGES)).transpose(axes)


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected-component label of each of n nodes: the smallest node index
    in the node's component.  (rows, cols) lists the edges in both directions,
    sorted by row, as ``np.nonzero`` gives them for a symmetric mask.

    Label propagation (each node takes its neighbours' smallest label) with
    pointer jumping between rounds; a label is always a node of the same
    component, so the fixed point is the component minimum."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    linked = rows[starts]
    labels = np.arange(n)
    while True:
        new = labels.copy()
        new[linked] = np.minimum(labels[linked], np.minimum.reduceat(labels[cols], starts))
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, labels):
            return labels
        labels = new


def _blocks_by_size(labels: np.ndarray) -> list[np.ndarray]:
    """Indices of each group of equal labels (a component, a charge class),
    ascending within a group, as one (count, size) array per group size."""
    order = np.argsort(labels, kind="stable")
    # grouped by hand: the first np.unique call imports numpy.ma (~15 ms)
    ordered = labels[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[0] - 1))
    sizes = np.diff(starts, append=len(labels))
    return [order[starts[sizes == s, None] + np.arange(s)]
            for s in np.flatnonzero(np.bincount(sizes))]


class ChargeClasses(NamedTuple):
    """The basis states grouped by their four vertex G_z charges.

    ``stacks`` holds one (count, size) array of state indices per class
    size, ascending; ``positions`` holds the flat entries row * 625 + col
    of every class block, stack by stack and each block row-major.  A rho
    that is zero off these entries is "class-diagonal"; ``pack`` stores it
    as the vector of its values at ``positions``."""

    stacks: tuple[np.ndarray, ...]
    positions: np.ndarray

    def blocks(self, packed: np.ndarray) -> list[np.ndarray]:
        """Views of a packed vector as (count, size, size) stacks of class blocks."""
        out, start = [], 0
        for idx in self.stacks:
            count, size = idx.shape
            out.append(packed[start:start + count * size * size].reshape(count, size, size))
            start += count * size * size
        return out


@lru_cache(maxsize=1)
def charge_classes() -> ChargeClasses:
    """Classes of equal (G_z^0, G_z^1, G_z^2, G_z^3) eigenvalues.

    Each G_z^v is diagonal in the product basis: -J_z^T on m of the
    outgoing edge plus J_z on n of the incoming one, so its doubled value on
    a state is 2n(e_in) - 2m(e_out), read off the edge labels.  The four
    doubled values in -2..2 make one integer key."""
    digits = np.indices((EDGE_DIM,) * N_EDGES).reshape(N_EDGES, -1)
    _, twice_m, twice_n = np.array(_EDGE_BASIS).T
    key = np.zeros(TOTAL_DIM, dtype=int)
    for v in range(N_VERTICES):
        e_out, e_in = vertex_edges(v)
        key = 5 * key + 2 + twice_n[digits[e_in]] - twice_m[digits[e_out]]
    stacks = tuple(_blocks_by_size(key))
    positions = np.concatenate(
        [(idx[:, :, None] * TOTAL_DIM + idx[:, None, :]).ravel() for idx in stacks]
    )
    for a in (*stacks, positions):
        a.setflags(write=False)
    return ChargeClasses(stacks, positions)


def pack(rho: np.ndarray) -> np.ndarray | None:
    """rho's values on the ``charge_classes`` entries, or None unless every
    other entry of rho is exactly zero (NaN counts as nonzero)."""
    if rho.shape != (TOTAL_DIM, TOTAL_DIM):
        return None
    rho = np.ascontiguousarray(rho)
    packed = rho.take(charge_classes().positions)
    # Counted part by part: a complex entry is nonzero iff its real or
    # imaginary part is.  Bits first, the faster count: equal counts of set
    # bits leave only +0.0 off the classes; else the float count decides,
    # since -0.0 is zero too.
    parts = rho.real.dtype
    for dtype in (f"u{parts.itemsize}", parts):
        if np.count_nonzero(rho.view(dtype)) == np.count_nonzero(packed.view(dtype)):
            return packed
    return None


def unpack(packed: np.ndarray) -> np.ndarray:
    """The 625x625 rho that ``pack`` maps to ``packed``."""
    rho = np.zeros(TOTAL_DIM * TOTAL_DIM, dtype=packed.dtype)
    rho[charge_classes().positions] = packed
    return rho.reshape(TOTAL_DIM, TOTAL_DIM)


def embed_edge_operator(op: np.ndarray, edge: int) -> np.ndarray:
    """Kronecker-embed a 5x5 edge operator, identity on the other edges."""
    op = np.asarray(op)
    if op.shape != (EDGE_DIM, EDGE_DIM):
        raise ValueError(f"edge operator must be {EDGE_DIM}x{EDGE_DIM}")
    _check_edge(edge)
    eye = np.eye(EDGE_DIM)
    mats = [op if e == edge else eye for e in range(N_EDGES)]
    return reduce(np.kron, mats)


def _edge_operator(j0_value: float, m_op=np.eye(2), n_op=np.eye(2)) -> np.ndarray:
    """5x5 edge operator: j0_value on j=0, m_op (x) n_op on the (m, n) indices of j=1/2."""
    out = np.zeros((EDGE_DIM, EDGE_DIM), dtype=complex)
    out[0, 0] = j0_value
    out[1:, 1:] = np.kron(m_op, n_op)
    return out


def pair_edges(v: int) -> tuple[int, int, int, int]:
    """(outgoing, incoming, spectator, spectator) edges at v, spectators ascending."""
    e_out, e_in = vertex_edges(v)
    rest = sorted(set(range(N_EDGES)) - {e_out, e_in})
    return (e_out, e_in, *rest)


@lru_cache(maxsize=1)
def _state_layout() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(at, pair, spectator): at[v, p, s] is the state with pair index p and
    spectator index s at v (``pair_edges`` order); pair[v, state] and
    spectator[v, state] are that state's p and s."""
    grid = np.arange(TOTAL_DIM).reshape((EDGE_DIM,) * N_EDGES)
    at = np.stack([grid.transpose(pair_edges(v)).reshape(EDGE_DIM**2, -1)
                   for v in range(N_VERTICES)])
    pair, spectator = np.divmod(np.argsort(at.reshape(N_VERTICES, -1), axis=1), EDGE_DIM**2)
    for a in (at, pair, spectator):
        a.setflags(write=False)
    return at, pair, spectator


def lift_pair(op: np.ndarray, v: int) -> np.ndarray:
    """The 625x625 operator that is the 25x25 ``op`` on the pair index
    5 * i_out + i_in of v's (outgoing, incoming) edges, identity on the rest:
    each nonzero of op scattered onto its 25 spectator copies."""
    op = np.asarray(op)
    if op.shape != (EDGE_DIM**2, EDGE_DIM**2):
        raise ValueError(f"pair operator must be {EDGE_DIM**2}x{EDGE_DIM**2}")
    _check_integer_in(v, range(N_VERTICES), "vertex index out of range")  # at[-1] would wrap
    at = _state_layout()[0][v]
    rows, cols = np.nonzero(op)
    out = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=np.result_type(op, float))
    out[at[rows], at[cols]] = op[rows, cols, None]
    return out


@lru_cache(maxsize=1)
def _pair_generators() -> np.ndarray:
    """G_x, G_y, G_z on a vertex's edge pair: -J_a^T on m(e_out) plus J_a on n(e_in)."""
    eye = np.eye(EDGE_DIM)
    gens = np.stack([
        np.kron(_edge_operator(0.0, m_op=-a.T), eye) + np.kron(eye, _edge_operator(0.0, n_op=a))
        for a in spin_matrices(1)
    ])
    gens.setflags(write=False)
    return gens


def gauge_generator(v: int, axis: str) -> np.ndarray:
    """Hermitian gauge generator G_a at vertex v, axis in {'x','y','z'}."""
    if axis not in _AXES:
        raise ValueError("axis must be 'x', 'y' or 'z'")
    return lift_pair(_pair_generators()[_AXES[axis]], v)


def gauge_casimir(v: int) -> np.ndarray:
    """Quadratic Casimir sum_a G_a^2 of the gauge action at vertex v."""
    return lift_pair(sum(g @ g for g in _pair_generators()), v)


def gauge_action(v: int, g: np.ndarray) -> np.ndarray:
    """Unitary U(g) of the gauge transformation g applied at vertex v."""
    return lift_pair(_pair_action(g), v)


def _pair_action(g: np.ndarray) -> np.ndarray:
    """The 25x25 pair operator that ``gauge_action`` lifts to a vertex:
    conj(D(g)) on m of the outgoing edge, D(g) on n of the incoming edge."""
    d = wigner_d(1, np.asarray(g, dtype=complex))
    return np.kron(_edge_operator(1.0, m_op=np.conj(d)), _edge_operator(1.0, n_op=d))


# ---------------------------------------------------------------------------
# Vertex Clebsch-Gordan basis
# ---------------------------------------------------------------------------
#
# The gauge action at a vertex touches only the m index of the outgoing edge
# and the n index of the incoming edge, so on the vertex's two edges (25 pair
# states) it leaves four labels alone: both edge spins (the sector), n of the
# outgoing edge and m of the incoming edge.  Grouping the pair states by them
# gives nine invariant blocks:
#
#   (j_out, j_in) = (0,0):    1 block of 1 state,   J=0
#   (1/2, 0):                 2 blocks of 2 (m_out), J=1/2
#   (0, 1/2):                 2 blocks of 2 (n_in),  J=1/2
#   (1/2, 1/2):               4 blocks of 4,         J=0+1
#
# and, times the 25 spectator states, multiplicities mu_0 = 125,
# mu_{1/2} = 100, mu_1 = 100 (125+200+300=625).  All blocks of one sector
# carry the same action, so each sector's irreducible chains are written down
# once below: 00 is the singlet, h0 is the conjugate spin 1/2 on m_out (its
# lowest weight is m_out = +), 0h is spin 1/2 on n_in, and hh is 2bar (x) 2 =
# 0 + 1.  Every resulting vector has definite spectator quantum numbers by
# construction: it is a vector on the vertex's two edges (``pair_cg_basis``)
# times a product state of the other two.

_R = 1 / np.sqrt(2)

# sector -> ((2J, chain), ...).  A chain's rows are the block's pair indices
# ascending (for hh: (m_out, n_in) = --, -+, +-, ++) and its columns are M
# ascending.  Phases: the lowest weight's first largest-magnitude component
# is real positive, and each higher M is G_+ / sqrt(J(J+1) - M(M+1)) applied
# to the one below.
_CHAINS = {
    "00": ((0, ((1,),)),),
    "h0": ((1, ((0, -1), (1, 0))),),
    "0h": ((1, ((1, 0), (0, 1))),),
    "hh": (
        (0, ((_R,), (0,), (0,), (_R,))),
        (2, ((0, -_R, 0), (0, 0, -1), (1, 0, 0), (0, _R, 0))),
    ),
}
_SECTORS = tuple(_CHAINS)  # (j_out, j_in) names, in column order within a J


@dataclass(frozen=True)
class CGEntry:
    """One vertex basis vector |J, M, alpha>.

    ``alpha`` is (sector, n_out, m_in, rest1, rest2): the acted-edge spins
    and the spectator quantum numbers (indices the gauge action at this
    vertex never touches); -1 marks an index that does not exist because the
    corresponding edge sits at j=0.  ``column`` indexes into the basis matrix.
    """

    twice_J: int
    twice_M: int
    alpha: tuple
    column: int


class VertexCGBasis:
    """Orthonormal basis {|J, M, alpha>} of the 625-dim space at one vertex,
    or of the 25-dim edge pair of a vertex.  ``columns`` maps each (2J, 2M),
    J then M ascending, to the (column indices, alphas) of its entries in
    entry order; ``mu`` maps 2J to its multiplicity.  ``entries``, ``columns``
    and ``mu`` are read-only.  The pair basis is cached and shared between
    callers, so its ``basis`` array is read-only too; ``build_cg_basis``
    builds a fresh 625-dim basis on each call."""

    def __init__(self, entries: list[CGEntry], basis: np.ndarray):
        self.entries = tuple(entries)
        self.basis = basis  # column k is entries[k]'s vector
        label = attrgetter("twice_J", "twice_M")
        self.columns = MappingProxyType({
            key: tuple(zip(*((e.column, e.alpha) for e in group)))
            for key, group in groupby(sorted(self.entries, key=label), key=label)
        })
        self.mu = MappingProxyType({tj: len(c) for (tj, _), (c, _) in self.columns.items()})


@lru_cache(maxsize=1)
def pair_cg_basis() -> VertexCGBasis:
    """The vertex basis on the two edges the gauge action touches.

    Columns are the 25 vectors |J, M, (sector, n_out, m_in)> over the pair
    index 5 * i_out + i_in, ordered as in ``build_cg_basis``: each of the
    nine blocks of pair states that share (sector, n_out, m_in) holds its
    sector's chains from the closed-form table ``_CHAINS``.  Every vertex
    has the same pair basis; its 625-dim basis is this one times each product
    state of the two spectator edges.
    """
    blocks: dict[tuple, list[int]] = {}  # alpha -> pair indices, ascending
    for p in range(EDGE_DIM**2):
        (tj_out, _, tn_out), (tj_in, tm_in, _) = (_EDGE_BASIS[i] for i in divmod(p, EDGE_DIM))
        sector = "0h"[tj_out] + "0h"[tj_in]
        n_out = (tn_out + 1) // 2 if tj_out else -1
        m_in = (tm_in + 1) // 2 if tj_in else -1
        blocks.setdefault((sector, n_out, m_in), []).append(p)
    records = [  # (twice_J, alpha, pair indices, chain)
        (tj, alpha, idx, chain)
        for alpha, idx in blocks.items()
        for tj, chain in _CHAINS[alpha[0]]
    ]
    records.sort(key=lambda r: (r[0], _SECTORS.index(r[1][0]), r[1][1:]))
    entries: list[CGEntry] = []
    basis = np.zeros((EDGE_DIM**2, EDGE_DIM**2), dtype=complex)
    for tj, alpha, idx, chain in records:
        col = len(entries)
        basis[idx, col:col + tj + 1] = chain
        entries += [CGEntry(tj, -tj + 2 * k, alpha, col + k) for k in range(tj + 1)]
    assert len(entries) == EDGE_DIM**2
    basis.setflags(write=False)
    return VertexCGBasis(entries, basis)


def build_cg_basis(v: int) -> VertexCGBasis:
    """Simultaneous (Casimir, G_z) eigenbasis at vertex v with raising-chain
    phases and spectator-definite multiplicity labels.

    Columns are grouped J ascending (so the first mu_0 columns span the
    singlet sector), then by alpha in a fixed lexicographic order, then by
    M ascending within each chain.  Each column is a ``pair_cg_basis``
    column on the vertex's two edges times a spectator product state.
    """
    pair = pair_cg_basis()
    lifted = lift_pair(pair.basis, v)  # checks v first: at[-1] below would wrap
    # at[c, r]: the column of lifted that is pair column c times spectator product state r
    at = _state_layout()[0][v]
    chains = [list(c) for _, c in groupby(pair.entries, key=lambda e: (e.twice_J, e.alpha))]
    order = [(e, r) for chain in chains for r in range(EDGE_DIM**2) for e in chain]
    entries = [
        CGEntry(e.twice_J, e.twice_M, (*e.alpha, *divmod(r, EDGE_DIM)), col)
        for col, (e, r) in enumerate(order)
    ]
    basis = lifted[:, [at[e.column, r] for e, r in order]]
    return VertexCGBasis(entries, basis)


def singlet_projector(v: int) -> np.ndarray:
    """Orthogonal projector onto the J=0 (gauge-invariant) sector at v."""
    pair = pair_cg_basis()
    s = pair.basis[:, pair.columns[0, 0][0]]
    return lift_pair(s @ s.conj().T, v)


@lru_cache(maxsize=None)
def physical_subspace_basis() -> np.ndarray:
    """Orthonormal basis of the subspace annihilated by all four Casimirs."""
    total = sum(gauge_casimir(v) for v in range(4))
    evals, evecs = np.linalg.eigh(total)
    basis = evecs[:, evals < 1e-8]
    basis.setflags(write=False)
    return basis
