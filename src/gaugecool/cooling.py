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
bra) and applies the pair superoperator sum_{J,N} k (x) conj(k) to the rows,
one connected block of it at a time (``_pair_blocks``);
``syndrome_probabilities`` and ``gi_overlap`` (the singlet's only) read
per-vertex sector weights: 25x25 pair projectors traced against the pair state.
The dense 625-dim references (``recovery_kraus`` and ``syndrome_operator``)
are these pair operators lifted by ``lattice.lift_pair``; the kernels are
tested against them.

One sweep leaves any rho between 31 basis states, and a sweep writes the
961 entries between them onto themselves (``_settled``).  Every cooling run
sweeps rho held as an entry vector, its values on a pattern's entries,
through flat index maps (``_Pattern``): each vertex stage multiplies the
superoperator's 25 connected blocks (``_pair_blocks``) with entries gathered
from the vector, which gives ``cool_vertex``'s bits.  The first sweep runs
on the pattern rho starts on, each later one on the settled pattern, and
each pattern's maps are derived once (``_sweep_maps``).  ``_cooled`` runs
the cooled `evolve` and `converge` steps; ``iterative_cooling`` refuses a
rho with a non-finite entry, holds it on its nonzero entries, and returns
the settled entries as a dense rho.  ``cool_vertex`` and ``cooling_sweep``
stay the dense references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import (
    EDGE_DIM,
    N_VERTICES,
    TOTAL_DIM,
    _components,
    _state_layout,
    lift_pair,
    local_view,
    pair_cg_basis,
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


def _pair_state(rho: np.ndarray, v: int) -> np.ndarray:
    """The reduced state of vertex v's edge pair, 25x25."""
    return np.einsum("abcdefef->abcd", local_view(rho, vertex_edges(v))).reshape(EDGE_DIM**2, -1)


def _sector_weights(rho: np.ndarray, v: int) -> dict[tuple[int, int], float]:
    """tr(P_N^J rho) at vertex v for every (2J, 2N), from the reduced pair state."""
    pair = _pair_state(rho, v)
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


def cool_vertex(rho: np.ndarray, v: int) -> np.ndarray:
    """Apply the recovery channel at vertex v: rho -> sum_K K rho K^dagger."""
    blocks = _pair_blocks()
    edges = vertex_edges(v)
    pair_shape = (EDGE_DIM,) * 4  # (out ket, in ket, out bra, in bra)
    source = local_view(rho, edges)[np.unravel_index(blocks.columns, pair_shape)]
    written = blocks.block.any(axis=2)  # a padded row's place may be a real row's
    cooled = (blocks.block @ source.reshape(len(written), -1, EDGE_DIM**4))[written]
    out = np.zeros(rho.shape, dtype=complex)
    local_view(out, edges)[np.unravel_index(blocks.rows[written], pair_shape)] = \
        cooled.reshape(-1, *source.shape[2:])
    return out


def cooling_sweep(rho: np.ndarray) -> np.ndarray:
    """Cool vertices v0, v1, v2, v3 in sequence."""
    for v in range(N_VERTICES):
        rho = cool_vertex(rho, v)
    return rho


def gi_overlap(rho: np.ndarray) -> float:
    """(1/4) sum_v tr(Pi_0^(v) rho): average vertex singlet-sector weight."""
    singlet = _pair_projectors()[0, 0]
    return sum(float(np.real(np.einsum("ij,ji->", singlet, _pair_state(rho, v))))
               for v in range(N_VERTICES)) / N_VERTICES


class _Stage(NamedTuple):
    """The recovery at one vertex on rho held as an entry vector: rho's
    values on a pattern's entries, in its order, then one zero that stands
    for every entry outside.  ``gather[c, i, j]`` is the input position that
    column i of block c (``_pair_blocks``) reads at the block's j-th
    spectator pair (ket, bra); ``keep`` lists the products that can be
    nonzero, flat over (blocks, rows, spectator pairs), and ``target``
    their output positions."""

    vertex: int
    gather: np.ndarray
    keep: np.ndarray
    target: np.ndarray
    size: int  # entries of the output pattern


class _Pattern(NamedTuple):
    """Sorted flat entries row * 625 + col that rho is held on, and the maps
    that read its overlap and sweep it."""

    positions: np.ndarray
    overlap: tuple[np.ndarray, np.ndarray]  # (read, slot): vertex v's slots are v * 625 + pair
    sweep: tuple[_Stage, ...]


class _PairBlocks(NamedTuple):
    """The pair superoperator split into the connected blocks of its nonzero
    pattern, 25 of at most 4 rows and 6 columns, padded with zeros to one
    shape.  A row's nonzeros all lie in its block, in the same order, so a
    product on the blocks adds the terms of the product on the whole 81x113
    block less exact zeros, which BLAS adds exactly: the same bits."""

    rows: np.ndarray  # (count, height): the pair entry pk * 25 + pb a row writes
    columns: np.ndarray  # (count, width): the pair entry a column reads
    slot: np.ndarray  # per pair entry, its column's flat place c * width + i, or -1
    block: np.ndarray  # (count, height, width)


def _ranks(groups: np.ndarray) -> np.ndarray:
    """Each item's place among the items of its group, in item order."""
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups)
    ranks = np.empty_like(groups)
    ranks[order] = np.arange(len(groups)) - np.repeat(np.cumsum(counts) - counts, counts)
    return ranks


@lru_cache(maxsize=1)
def _pair_blocks() -> _PairBlocks:
    """``_pair_superoperator`` split by the components of its nonzero graph."""
    rows, cols, block = _pair_superoperator()
    nonzero = block != 0
    n = len(rows)
    graph = np.zeros((n + len(cols),) * 2, dtype=bool)
    graph[:n, n:], graph[n:, :n] = nonzero, nonzero.T
    labels = _components(len(graph), *np.nonzero(graph))
    # every block holds a row, and rows come first: its label is its first row
    of = np.searchsorted(np.flatnonzero(np.bincount(labels[:n], minlength=n)), labels)
    row_at, col_at = _ranks(of[:n]), _ranks(of[n:])
    stack = np.zeros((of.max() + 1, row_at.max() + 1, col_at.max() + 1), dtype=complex)
    r, k = np.nonzero(nonzero)
    stack[of[r], row_at[r], col_at[k]] = block[r, k]
    pair_rows, pair_cols = np.zeros(stack.shape[:2], int), np.zeros(stack.shape[::2], int)
    pair_rows[of[:n], row_at], pair_cols[of[n:], col_at] = rows, cols
    slot = np.full(EDGE_DIM**4, -1)
    slot[cols] = of[n:] * stack.shape[2] + col_at
    blocks = _PairBlocks(pair_rows, pair_cols, slot, stack)
    for a in blocks:
        a.setflags(write=False)
    return blocks


def _pair_coordinates(positions: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's pair entry pk * 25 + pb and spectator pair sk * 25 + sb at v."""
    _, pair, spectator = (a[v] for a in _state_layout())
    ket = positions // TOTAL_DIM  # floor division by a constant is fast; divmod is not
    bra = positions - ket * TOTAL_DIM
    return pair[ket] * EDGE_DIM**2 + pair[bra], spectator[ket] * EDGE_DIM**2 + spectator[bra]


def _reach(held: np.ndarray, pairs: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean propagation through the recovery at v, no cancellation
    assumed: ``held[c, i, j]`` says that column i of block c can be nonzero
    at spectator pair ``pairs[c, j]``.  Returns the products that a nonzero
    reaches from a held entry, flat over (blocks, rows, pairs), and the flat
    entries they write."""
    blocks = _pair_blocks()
    keep = np.flatnonzero((blocks.block != 0) @ held)
    c, i, j = np.unravel_index(keep, (len(held), blocks.rows.shape[1], held.shape[2]))
    (pk, pb), (sk, sb) = (np.divmod(a, EDGE_DIM**2) for a in (blocks.rows[c, i], pairs[c, j]))
    at = _state_layout()[0][v]
    return keep, at[pk, sk] * TOTAL_DIM + at[pb, sb]


def _stage(held: np.ndarray, v: int, into: np.ndarray | None = None, coordinates=None):
    """The recovery at v on rho held on the sorted entries ``held`` (their
    ``coordinates`` at v, if known): its ``_Stage`` and the sorted entries it
    can write, or ``into``, which must hold them.  Each block reads the
    spectator pairs that a held entry has under one of its columns."""
    blocks = _pair_blocks()
    count, _, width = blocks.block.shape
    pair, spectator = coordinates or _pair_coordinates(held, v)
    read = np.flatnonzero(blocks.slot[pair] >= 0)
    column = blocks.slot[pair[read]]
    key = column // width * EDGE_DIM**4 + spectator[read]
    keys = np.flatnonzero(np.bincount(key, minlength=count * EDGE_DIM**4) > 0)  # bool: fast
    owner, spectators = np.divmod(keys, EDGE_DIM**4)
    owned = np.bincount(owner, minlength=count)
    place = np.zeros(count * EDGE_DIM**4, dtype=int)
    place[keys] = np.arange(len(keys)) - np.repeat(np.cumsum(owned) - owned, owned)  # keys ascend
    # two spectator pairs a block at least: matmul then calls gemm, as the dense kernel does
    depth = max(2, owned.max())
    gather = np.full((count * width, depth), len(held))
    gather[column, place[key]] = read
    gather = gather.reshape(count, width, depth)
    pairs = np.zeros((count, depth), dtype=int)
    pairs[owner, place[keys]] = spectators
    keep, out = _reach(gather < len(held), pairs, v)
    if into is None:
        order = np.argsort(out)
        into, target = out[order], np.empty_like(order)
        target[order] = np.arange(len(order))
    else:
        target = np.searchsorted(into, out)
        if np.any(target == len(into)) or not np.array_equal(into[target], out):
            raise AssertionError("the recovery writes outside the pattern")
    stage = _Stage(v, gather, keep, target, len(into))
    for a in stage[1:-1]:
        a.setflags(write=False)
    return stage, into


def _pattern(positions: np.ndarray, into: np.ndarray) -> _Pattern:
    """The maps of rho held on ``positions``: per vertex, the entries whose
    spectator ket and bra agree, which the reduced pair state sums at each
    pair slot in position order, that is spectator by spectator as the dense
    read sums them; and one sweep, whose last stage writes onto ``into``."""
    overlap, stages, held = [], [], positions
    for v in range(N_VERTICES):
        pair, spectator = coordinates = _pair_coordinates(positions, v)
        # spectator ket = bra: sk * 26, found without the slow integer %
        read = np.flatnonzero(spectator // (EDGE_DIM**2 + 1) * (EDGE_DIM**2 + 1) == spectator)
        overlap.append((read, pair[read] + v * EDGE_DIM**4))
        stage, held = _stage(held, v, into if v == N_VERTICES - 1 else None,
                             coordinates if v == 0 else None)
        stages.append(stage)
    overlap = tuple(np.concatenate(a) for a in zip(*overlap))
    for a in (positions, *overlap):
        a.setflags(write=False)
    return _Pattern(positions, overlap, tuple(stages))


def _settled_states() -> np.ndarray:
    """The 31 sorted states one sweep leaves any rho between: the pair Kraus
    operators' nonzeros pushed from all 625 states, no cancellation assumed."""
    reach = np.any([k != 0 for _, k in _pair_kraus()], axis=0)
    at = _state_layout()[0]
    held = np.ones(TOTAL_DIM, dtype=bool)
    for v in range(N_VERTICES):
        held[at[v]] = reach @ held[at[v]]
    return np.flatnonzero(held)


@lru_cache(maxsize=1)
def _settled() -> _Pattern:
    """The settled pattern: all 961 entries between the settled states, the
    vacuum's first.  Its own sweep writes onto it, which ``_stage`` checks."""
    states = _settled_states()
    block = (states[:, None] * TOTAL_DIM + states).ravel()
    return _pattern(block, block)


def _cool_stage(x: np.ndarray, stage: _Stage) -> np.ndarray:
    """``cool_vertex`` at stage.vertex on rho held as an entry vector."""
    cooled = _pair_blocks().block @ x.take(stage.gather)
    out = np.zeros(stage.size + 1, dtype=complex)
    out.put(stage.target, cooled.take(stage.keep))
    return out


def _entry_overlap(x: np.ndarray, pattern: _Pattern) -> float:
    """``gi_overlap`` of rho held on pattern, with the bits of the dense read."""
    projector = _pair_projectors()[0, 0]
    read, slot = pattern.overlap
    values, size = x.take(read), N_VERTICES * EDGE_DIM**4
    pair = np.empty(size, dtype=complex)
    pair.real = np.bincount(slot, values.real, size)  # in position order, as np.add.at sums
    pair.imag = np.bincount(slot, values.imag, size)
    # one contraction for all four vertices sums each as its own "ij,ji->" does
    weights = np.einsum("ij,vji->v", projector, pair.reshape(N_VERTICES, EDGE_DIM**2, -1))
    return sum(weights.real.tolist()) / N_VERTICES


@lru_cache(maxsize=8)
def _sweep_maps(pattern: bytes) -> _Pattern:
    """The ``_Pattern`` of rho held on ``pattern``, its sorted flat entries as
    bytes, whose sweep writes onto the settled pattern."""
    return _pattern(np.frombuffer(pattern, dtype=int), _settled().positions)


def _cool_entries(x: np.ndarray, pattern: _Pattern, overlaps: list[float], tol: float,
                  max_sweeps: int) -> tuple[np.ndarray, CoolingReport]:
    """``iterative_cooling`` on rho held on pattern, whose overlaps so far
    (x's own last) are given: sweep onto the settled pattern until the
    overlap exceeds 1 - tol or max_sweeps sweeps have run."""
    while overlaps[-1] <= 1.0 - tol and len(overlaps) <= max_sweeps:
        for stage in pattern.sweep:
            x = _cool_stage(x, stage)
        pattern = _settled()
        overlaps.append(_entry_overlap(x, pattern))
    return x, CoolingReport(overlaps, len(overlaps) - 1, overlaps[-1] > 1.0 - tol)


def _cooled(pattern: bytes, x: np.ndarray, tol: float, max_sweeps: int):
    """``iterative_cooling`` of rho held as the entry vector x on ``pattern``:
    the pattern it is held on after (the settled one unless no sweep ran),
    its entry vector and the cooling report."""
    held = _sweep_maps(pattern)
    x, report = _cool_entries(x, held, [_entry_overlap(x, held)], tol, max_sweeps)
    return (_settled().positions.tobytes() if report.sweeps_used else pattern), x, report


def _check_cooling_parameters(tol: float, max_sweeps: int) -> None:
    """Reject a tol that is not finite and positive, or a max_sweeps that is
    not an integer of at least 1."""
    _check_positive(tol, "tol")
    _check_count(max_sweeps, "max_sweeps")


def iterative_cooling(
    rho: np.ndarray, tol: float = 1e-5, max_sweeps: int = 10
) -> tuple[np.ndarray, CoolingReport]:
    """Sweep until the GI overlap exceeds 1 - tol or max_sweeps is reached.

    A rho with a non-finite entry is a ValueError.  The first overlap is the
    dense ``gi_overlap``; then rho is held on its nonzero entries, and every
    sweep and later overlap runs on entry vectors (``_cool_entries``), the
    first sweep through the maps of rho's own pattern (``_sweep_maps``)."""
    _check_cooling_parameters(tol, max_sweeps)
    # the kernels read only some entries, so a NaN elsewhere would be dropped
    if not np.isfinite(rho).all():
        raise ValueError("rho has non-finite entries")
    overlaps = [gi_overlap(rho)]
    if overlaps[0] > 1.0 - tol:
        return rho, CoolingReport(overlaps, 0, True)
    positions = np.flatnonzero(rho)
    x = np.append(rho.take(positions), 0).astype(complex)
    x, report = _cool_entries(x, _sweep_maps(positions.tobytes()), overlaps, tol, max_sweeps)
    out = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)
    out.put(_settled().positions, x[:-1])
    return out, report
