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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import EDGE_DIM, N_VERTICES, lift_pair, local_view, pair_cg_basis, vertex_edges
from .su2 import _check_count, _twice

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

    @classmethod
    def of(cls, j, m, n) -> "Syndrome":
        return cls(j, m, n)


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
    """
    sup = sum(np.kron(k, k.conj()) for _, k in _pair_kraus())
    nonzero = sup != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    block = sup[np.ix_(rows, cols)]
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

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho, dtype=complex)
        for k in self.operators:
            out += k @ rho @ k.conj().T
        return out


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


def _check_cooling_parameters(tol: float, max_sweeps: int) -> None:
    """Reject a tol that is not finite and positive, or a max_sweeps that is
    not an integer of at least 1."""
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError("tol must be a finite positive number")
    _check_count(max_sweeps, "max_sweeps")


def iterative_cooling(
    rho: np.ndarray, tol: float = 1e-5, max_sweeps: int = 10
) -> tuple[np.ndarray, CoolingReport]:
    """Sweep until the GI overlap exceeds 1 - tol or max_sweeps is reached."""
    _check_cooling_parameters(tol, max_sweeps)
    overlaps = [gi_overlap(rho)]
    sweeps = 0
    if overlaps[-1] <= 1.0 - tol:
        # one working copy that every sweep cools in place: a fresh 6.25 MB
        # array per vertex costs a page fault per 4 kB page it touches
        rho = np.array(rho, dtype=complex, order="C")
    while overlaps[-1] <= 1.0 - tol and sweeps < max_sweeps:
        for v in range(N_VERTICES):
            _cool_into(rho, rho, v)
        sweeps += 1
        overlaps.append(gi_overlap(rho))
    report = CoolingReport(
        overlaps=overlaps,
        sweeps_used=sweeps,
        converged=overlaps[-1] > 1.0 - tol,
    )
    return rho, report
