"""Gauge cooling: syndrome extraction and recovery at plaquette vertices.

At each vertex the 625-dim space splits into isotypic components J = 0, 1/2, 1
with multiplicities 125, 100, 100.  The syndrome operators

    T^(J)_{MN} = (1/sqrt(2J+1)) sum_alpha |J,M,alpha><J,N,alpha|

detect which component the state occupies; the recovery Kraus operators

    K_{J,N} = sum_alpha |0,0,sigma(alpha)><J,N,alpha|

pump everything back into the local singlet sector.  The pairing sigma
(``_paired_singlet_alpha``) keeps the spectator indices (r1, r2) always, and
every other index it can:

- J=1 triplets (both vertex edges at j=1/2, sector "hh") map onto the
  singlet built from the same two edges with the same passive labels;
- J=1/2 states with only the outgoing edge excited ("h0") keep n_out and
  enter the two-edge singlet ("hh", n_out, 0);
- J=1/2 states with only the incoming edge excited ("0h") and m_in = 1
  enter ("hh", 0, 1); those with m_in = 0 enter the all-j=0 singlet.

The four J=1/2 source blocks land on four distinct singlet blocks, so sigma
is injective across the full multiplicity and the channel is trace
preserving.

Every operator here acts only on the vertex's two edges: K_{J,N} is a
25x25 pair operator k_{J,N} times the identity on the two spectator edges,
and the same k serve every vertex.  ``cool_vertex`` reads rho through
``lattice.local_view`` as (pair ket, pair bra) x (spectator ket, spectator
bra) and applies the pair superoperator sum_{J,N} k (x) conj(k) to the rows;
``gi_overlap`` and ``syndrome_probabilities`` read the same per-vertex sector
weights, traces of 25x25 pair projectors against the reduced pair state.
The dense 625-dim references (``recovery_kraus`` and ``syndrome_operator``)
are these pair operators lifted by ``lattice.lift_pair``; the kernels are
tested against them.

One sweep leaves any rho on a fixed set of 31 basis states, and every later
vertex stage stays inside a union of 45 (``_support_maps`` derives both by
pushing the k's nonzero pattern through a sweep).  ``iterative_cooling``
therefore refuses a rho with a non-finite entry, runs sweep 0 with the
dense kernel, cuts the 31-state block out of rho, and runs every later sweep
and every overlap read after sweep 0 on the 45x45 block with the same pair
superoperator, through flat index maps; the block goes back into rho once,
at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import (
    EDGE_DIM,
    N_EDGES,
    N_VERTICES,
    TOTAL_DIM,
    lift_pair,
    local_view,
    pair_cg_basis,
    pair_edges,
    vertex_edges,
)
from .su2 import _check_count, _check_positive, _twice

__all__ = [
    "Syndrome",
    "CoolingReport",
    "KrausChannel",
    "syndrome_operator",
    "syndrome_probabilities",
    "recovery_kraus",
    "cool_vertex",
    "cooling_sweep",
    "gi_overlap",
    "iterative_cooling",
]


@dataclass(frozen=True, order=True)
class Syndrome:
    """Measurement outcome (J, M, N) at a vertex, stored as exact half-integer Fractions."""

    j: Fraction
    m: Fraction
    n: Fraction

    def __post_init__(self):
        tj, tm, tn = (_twice(getattr(self, s), s) for s in ("j", "m", "n"))
        for s, t in (("j", tj), ("m", tm), ("n", tn)):
            object.__setattr__(self, s, Fraction(t, 2))  # exact, so labels compare and hash
        if tj < 0:
            raise ValueError("J must be nonnegative")
        for t, name in ((tm, "M"), (tn, "N")):
            if abs(t) > tj or (t - tj) % 2:
                raise ValueError(f"{name} must lie in {{-J, ..., J}}")


@dataclass
class CoolingReport:
    """Gauge-invariance overlap trajectory of an iterative cooling run."""

    overlaps: list[float] = field(default_factory=list)
    sweeps_used: int = 0
    converged: bool = False

    @property
    def final_deficit(self) -> float:
        return 1.0 - self.overlaps[-1]

    @property
    def deficits(self) -> list[float]:
        return [1.0 - x for x in self.overlaps]


def syndrome_operator(v: int, j, m, n) -> np.ndarray:
    """T^(J)_{MN}: maps the (J,N) component to (J,M) with weight 1/sqrt(2J+1)."""
    syn = Syndrome(j, m, n)
    return lift_pair(_pair_syndrome_operator(int(2 * syn.j), int(2 * syn.m), int(2 * syn.n)), v)


def _pair_syndrome_operator(tj: int, tm: int, tn: int) -> np.ndarray:
    """The 25x25 pair operator that ``syndrome_operator`` lifts to a vertex,
    at the labels (2J, 2M, 2N)."""
    basis = pair_cg_basis()
    if tj not in basis.mu:
        raise ValueError(f"no J={Fraction(tj, 2)} component at this vertex")
    (cols_m, alphas_m), (cols_n, alphas_n) = basis.columns[tj, tm], basis.columns[tj, tn]
    assert alphas_m == alphas_n
    return (basis.basis[:, cols_m] @ basis.basis[:, cols_n].T) / np.sqrt(tj + 1.0)


@lru_cache(maxsize=1)
def _outcomes() -> tuple[tuple[Syndrome, int, int], ...]:
    """(Syndrome(J, M, N), 2J, 2N) for every outcome at a vertex, in Syndrome
    order: the (2J, 2M) column keys, J then M ascending, times N ascending."""
    keys = pair_cg_basis().columns
    return tuple(
        (Syndrome(tj / 2, tm / 2, tn / 2), tj, tn)
        for tj, tm in keys for tj_n, tn in keys if tj_n == tj
    )


def syndrome_probabilities(rho: np.ndarray, v: int) -> dict[Syndrome, float]:
    """p(J,M,N) = tr(P_N^J rho)/(2J+1) for every outcome at vertex v."""
    weights = _sector_weights(rho, v)
    return {syn: weights[tj, tn] / (tj + 1) for syn, tj, tn in _outcomes()}


def _paired_singlet_alpha(alpha: tuple) -> tuple:
    """Singlet alpha that the recovery writes a (J, N, alpha) state into.

    Every index the gauge action never touches survives: the untouched
    edges' (r1, r2) always, and the passive label of an acted edge whenever
    the target block carries it.  A label absent from the source (an acted
    edge sitting at j=0) is filled with the lowest-weight index, and the
    in-edge block whose passive label is lowest weight drops to the all-j=0
    singlet block instead — each Kraus operator must stay injective, and
    only four of the five singlet blocks can host the four J=1/2 source
    blocks.  This assignment fixes the channel's contraction spectrum; the
    convergence tests pin its per-sweep factor.
    """
    sector, n_out, m_in, *rest = alpha
    if sector == "hh" or sector == "00":
        return alpha
    if sector == "h0":
        return ("hh", n_out, 0, *rest)
    if sector == "0h":
        if m_in == 0:
            return ("00", -1, -1, *rest)
        return ("hh", 0, 1, *rest)
    raise ValueError(f"unknown sector {sector!r}")


@lru_cache(maxsize=1)
def _pair_kraus() -> tuple[tuple[tuple[Fraction, Fraction], np.ndarray], ...]:
    """((J, N), k_{J,N}) for every (J,N), J then N ascending: the 25x25 pair
    Kraus operators k_{J,N} = sum_alpha |0,0,sigma(alpha)><J,N,alpha|."""
    basis = pair_cg_basis()
    singlet_cols, singlet_alphas = basis.columns[0, 0]
    singlet_index = dict(zip(singlet_alphas, singlet_cols))
    kraus = []
    for (tj, tn), (cols, alphas) in basis.columns.items():
        target_cols = [singlet_index[_paired_singlet_alpha(a)] for a in alphas]
        if len(set(target_cols)) != len(target_cols):
            raise AssertionError("spectator pairing is not injective")
        k = basis.basis[:, target_cols] @ basis.basis[:, cols].T
        k.setflags(write=False)
        kraus.append(((Fraction(tj, 2), Fraction(tn, 2)), k))
    return tuple(kraus)


@lru_cache(maxsize=1)
def _pair_superoperator() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, block) of sum_{J,N} k_{J,N} (x) conj(k_{J,N}).

    It acts on the 625 (pair ket, pair bra) index pairs; only the 81 rows
    and 113 columns holding its 387 nonzeros are kept, as one dense block.
    Every k writes only onto the pair rows of the singlets, so the sum is
    formed on the (ket, bra) pairs of those rows alone: the 625x625 sum
    left up to three 6.25 MB temporaries for the heap to keep.
    """
    kraus = [k for _, k in _pair_kraus()]
    written = np.flatnonzero(np.any([k != 0 for k in kraus], axis=(0, 2)))
    sup = sum(np.kron(k[written], k[written].conj()) for k in kraus)
    nonzero = sup != 0
    keep = np.flatnonzero(nonzero.any(axis=1))
    rows = (written[:, None] * EDGE_DIM**2 + written).ravel()[keep]
    cols = np.flatnonzero(nonzero.any(axis=0))
    block = sup[np.ix_(keep, cols)]
    for a in (rows, cols, block):
        a.setflags(write=False)
    return rows, cols, block


@lru_cache(maxsize=1)
def _pair_projectors() -> dict[tuple[int, int], np.ndarray]:
    """25x25 pair projector onto each (2J, 2N) component, J then N ascending."""
    basis = pair_cg_basis()
    projectors = {}
    for key, (cols, _) in basis.columns.items():
        b = basis.basis[:, cols]
        projectors[key] = b @ b.conj().T
        projectors[key].setflags(write=False)
    return projectors


def _sector_weights(rho: np.ndarray, v: int) -> dict[tuple[int, int], float]:
    """tr(P_N^J rho) at vertex v for every (2J, 2N), from the reduced pair state."""
    pair = np.einsum("abcdefef->abcd", local_view(rho, vertex_edges(v)))
    pair = pair.reshape(EDGE_DIM**2, EDGE_DIM**2)
    return {
        key: float(np.real(np.einsum("ij,ji->", p, pair)))
        for key, p in _pair_projectors().items()
    }


@dataclass(frozen=True)
class KrausChannel:
    """The recovery channel at one vertex: labels (J,N) and dense operators."""

    vertex: int
    labels: tuple[tuple[Fraction, Fraction], ...]
    operators: tuple[np.ndarray, ...]


def recovery_kraus(v: int) -> KrausChannel:
    """Dense Kraus operators K_{J,N} = sum_alpha |0,0,sigma(alpha)><J,N,alpha|."""
    kraus = _pair_kraus()
    ops = tuple(lift_pair(k, v) for _, k in kraus)
    for op in ops:
        op.setflags(write=False)
    return KrausChannel(vertex=v, labels=tuple(label for label, _ in kraus), operators=ops)


def _cool_into(rho: np.ndarray, out: np.ndarray, v: int) -> np.ndarray:
    """Write the recovery channel at vertex v applied to rho into out.

    out must be a C-contiguous complex 625x625 array; it may be rho itself,
    because the entries the channel reads are gathered before out is cleared."""
    rows, cols, block = _pair_superoperator()
    edges = vertex_edges(v)
    pair_shape = (EDGE_DIM,) * 4  # (out ket, in ket, out bra, in bra)
    source = local_view(rho, edges)[np.unravel_index(cols, pair_shape)]
    cooled = np.tensordot(block, source, axes=1)
    out[...] = 0
    local_view(out, edges)[np.unravel_index(rows, pair_shape)] = cooled
    return out


def cool_vertex(rho: np.ndarray, v: int) -> np.ndarray:
    """Apply the recovery channel at vertex v: rho -> sum_K K rho K^dagger."""
    return _cool_into(rho, np.empty(rho.shape, dtype=complex), v)


def cooling_sweep(rho: np.ndarray) -> np.ndarray:
    """Cool vertices v0, v1, v2, v3 in sequence."""
    for v in range(N_VERTICES):
        rho = cool_vertex(rho, v)
    return rho


def gi_overlap(rho: np.ndarray) -> float:
    """(1/4) sum_v tr(Pi_0^(v) rho): average vertex singlet-sector weight."""
    return sum(_sector_weights(rho, v)[0, 0] for v in range(N_VERTICES)) / N_VERTICES


class _SupportMaps(NamedTuple):
    """Where one sweep leaves rho, and the flat index maps that cool it there."""

    settled: np.ndarray  # the states rho can hold after any full sweep
    states: np.ndarray  # the states any later vertex stage can hold
    stages: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]  # per vertex
    overlap: tuple[tuple[np.ndarray, np.ndarray], ...]  # per vertex


@lru_cache(maxsize=1)
def _support_maps() -> _SupportMaps:
    """Derive the support of a swept rho from the pair Kraus operators.

    Each of the 625 states is a (pair index, spectator index) coordinate at
    every vertex (``lattice.pair_edges`` order).  The channel at v sends a
    ket onto the pair rows that some k_{J,N} reaches from it, spectators
    kept, so pushing the union of the k's nonzero patterns through one sweep
    from all 625 states gives every state a swept rho can hold, ``settled``;
    one more sweep maps it onto itself, and ``states`` is the union of that
    sweep's stages.

    rho restricted to ``states`` lives in a flat (n+1) x (n+1) buffer whose
    last row and column stay zero and stand for every state outside.  Per
    vertex, ``stages`` holds the buffer positions of the
    ``_pair_superoperator`` columns over the spectators the stage's input
    holds, then which of its output rows land inside, and where.
    ``overlap`` holds, per vertex, the buffer positions and pair-matrix
    slots that the reduced pair state sums, in the dense read's order.
    """
    pattern = np.zeros((EDGE_DIM**2, EDGE_DIM**2), dtype=bool)
    for _, k in _pair_kraus():
        pattern |= k != 0
    grid = np.arange(TOTAL_DIM).reshape((EDGE_DIM,) * N_EDGES)
    # at[v][p, s]: the state with pair index p and spectator index s at v
    at = [grid.transpose(pair_edges(v)).reshape(EDGE_DIM**2, -1) for v in range(N_VERTICES)]

    def cool(held: np.ndarray, v: int) -> np.ndarray:
        out = np.zeros(TOTAL_DIM, dtype=bool)
        out[at[v]] = pattern @ held[at[v]]
        return out

    held = np.ones(TOTAL_DIM, dtype=bool)
    for v in range(N_VERTICES):
        held = cool(held, v)
    settled, inputs = np.flatnonzero(held), []
    for v in range(N_VERTICES):
        inputs.append(held)
        held = cool(held, v)
    if not np.array_equal(np.flatnonzero(held), settled):
        raise AssertionError("a sweep does not map the swept support onto itself")
    states = np.flatnonzero(np.any(inputs, axis=0))
    n = len(states)
    where = np.full(TOTAL_DIM, n)  # buffer row of each state, n outside
    where[states] = np.arange(n)

    def locate(pairs: np.ndarray, v: int, spectators: np.ndarray):
        """Buffer positions of (pair ket, pair bra) x (spectator ket,
        spectator bra), and which of them lie inside."""
        (ket_pair, bra_pair), s = np.divmod(pairs, EDGE_DIM**2), spectators
        ket = where[at[v][ket_pair[:, None, None], s[:, None]]]
        bra = where[at[v][bra_pair[:, None, None], s]]
        shape = (len(pairs), -1)
        return (ket * (n + 1) + bra).reshape(shape), ((ket < n) & (bra < n)).reshape(shape)

    rows, cols, block = _pair_superoperator()
    to_row, from_col = np.nonzero(block)
    stages = []
    for v, held_in in enumerate(inputs):
        spectators = np.flatnonzero(held_in[at[v]].any(axis=0))
        gather, read = locate(cols, v, spectators)
        target, inside = locate(rows, v, spectators)
        if np.any(read[from_col] & ~inside[to_row]):
            raise AssertionError("the recovery writes outside the support")
        keep = np.flatnonzero(inside)
        stages.append((gather, keep, target.ravel()[keep]))

    overlap = []
    for v in range(N_VERTICES):
        # each state's (pair, spectator) at v; at[v] is a permutation
        pair, spectator = (c[states] for c in np.divmod(np.argsort(at[v], axis=None), EDGE_DIM**2))
        # states ascending: each slot adds its terms spectator by spectator,
        # in the order the dense read sums them
        i, j = np.nonzero(spectator[:, None] == spectator)
        overlap.append((i * (n + 1) + j, pair[i] * EDGE_DIM**2 + pair[j]))
    maps = _SupportMaps(settled, states, tuple(stages), tuple(overlap))
    for a in (settled, states, *(a for maps_v in (*maps.stages, *maps.overlap) for a in maps_v)):
        a.setflags(write=False)
    return maps


def _settled_block(rho: np.ndarray) -> np.ndarray:
    """Move a swept rho into the support buffer: its settled block is cut
    out of rho (left zero) into the flat (n+1)^2 buffer, which is returned.

    Raises ValueError if rho is not finite, and AssertionError if any weight
    lies off the settled states, which ``_support_maps`` proves a sweep
    cannot leave."""
    maps = _support_maps()
    at = np.ix_(maps.settled, maps.settled)
    block = rho[at]
    rho[at] = 0
    off = rho.any()
    if off and np.isfinite(rho).all():
        raise AssertionError("a sweep left weight off the settled states")
    if off or not np.isfinite(block).all():
        raise ValueError("rho has non-finite entries")
    n = len(maps.states)
    small = np.zeros((n + 1, n + 1), dtype=complex)
    inside = np.searchsorted(maps.states, maps.settled)
    small[np.ix_(inside, inside)] = block
    return small.ravel()


def _cool_block(small: np.ndarray, v: int) -> None:
    """``_cool_into`` at vertex v on rho held in the support buffer."""
    gather, keep, target = _support_maps().stages[v]
    cooled = _pair_superoperator()[2] @ small.take(gather)
    small[:] = 0
    small.put(target, cooled.take(keep))


def _block_overlap(small: np.ndarray) -> float:
    """``gi_overlap`` of rho held in the support buffer: each reduced pair
    state summed in the order the dense read sums it."""
    projector = _pair_projectors()[0, 0]
    total = 0
    for read, slot in _support_maps().overlap:
        pair = np.zeros(EDGE_DIM**4, dtype=complex)
        np.add.at(pair, slot, small.take(read))
        total += float(np.real(np.einsum("ij,ji->", projector, pair.reshape(EDGE_DIM**2, -1))))
    return total / N_VERTICES


def _check_cooling_parameters(tol: float, max_sweeps: int) -> None:
    """Reject a tol that is not finite and positive, or a max_sweeps that is
    not an integer of at least 1."""
    _check_positive(tol, "tol")
    _check_count(max_sweeps, "max_sweeps")


def iterative_cooling(
    rho: np.ndarray, tol: float = 1e-5, max_sweeps: int = 10
) -> tuple[np.ndarray, CoolingReport]:
    """Sweep until the GI overlap exceeds 1 - tol or max_sweeps is reached.

    A rho with a non-finite entry is a ValueError.  Sweep 0 is dense; the
    later sweeps and every overlap after it run on the block of the support
    one sweep proves."""
    _check_cooling_parameters(tol, max_sweeps)
    # the kernels read only some entries, so a NaN elsewhere would be dropped
    if not np.isfinite(rho).all():
        raise ValueError("rho has non-finite entries")
    overlaps = [gi_overlap(rho)]
    if overlaps[0] <= 1.0 - tol:
        # one working copy that sweep 0 cools in place: a fresh 6.25 MB
        # array per vertex costs a page fault per 4 kB page it touches
        rho = np.array(rho, dtype=complex, order="C")
        for v in range(N_VERTICES):
            _cool_into(rho, rho, v)
        small = _settled_block(rho)
        overlaps.append(_block_overlap(small))
        while overlaps[-1] <= 1.0 - tol and len(overlaps) <= max_sweeps:
            for v in range(N_VERTICES):
                _cool_block(small, v)
            overlaps.append(_block_overlap(small))
        states = _support_maps().states
        n = len(states)
        rho[np.ix_(states, states)] = small.reshape(n + 1, n + 1)[:n, :n]
    report = CoolingReport(
        overlaps=overlaps,
        sweeps_used=len(overlaps) - 1,
        converged=overlaps[-1] > 1.0 - tol,
    )
    return rho, report
