"""Trotter time evolution and noise channels on the plaquette density matrix.

First-order Trotter step U = exp(-i H_E dt) exp(-i H_B dt), applied to kets
magnetic factor first.  H_B moves only 161 of the 625 basis states; its
block on them comes from the plaquette's 256 nonzeros, with no dense H_B.  Its
nonzero graph splits them into 41 connected blocks of at most 17 states, so
``herm_expm`` runs on each block and exp(-i H_B dt) is exactly 1 on the other
464 states; the electric factor is diagonal.  U is block diagonal with 1,345
nonzeros, exactly zero between the charge classes below, and it is kept only
as its class blocks (``_class_trotter``): psi and rho both step on them, and
``trotter_unitary`` unpacks them into the dense U, as a reference.  A g2 whose
H_B = -(P + P^dagger)/(2 g2) or H_E does not fit a float is a ValueError.

``hygiene`` takes the minimum eigenvalue block by block as well: the spectrum
of a matrix is the union of the spectra of its nonzero graph's connected
blocks, so this is exact for any input (a dense input is one block).

The Trotter step and every edge channel conserve each vertex's G_z charge as
a weak symmetry: U is exactly zero between the 281 joint charge classes
(``lattice.charge_classes``, at most 17 states each), so U rho U^dagger is
U_c rho_cc' U_c'^dagger on each class pair (c, c'), and a rho that is zero
between classes stays so.  One kernel, ``_pair_trotter``, steps every rho:
one batched product per block shape over the class pairs that rho's entries
touch (``_class_pairs``), and a block gives the same bits whichever pairs
hold it.  ``trotter_step``, ``apply_noise_all_edges`` and ``hygiene`` first
try ``lattice.pack``; on its 2,273 entries they run the c = c' blocks, the
four edges as fixed index arithmetic, and one ``eigvalsh`` per class stack.
Otherwise the Trotter step runs on the pairs rho's nonzeros touch, and the
noise and ``hygiene`` take the dense code, which is also the tests' oracle.
The choice rests on that exact property of the input alone.  `evolve` holds
rho as entries and calls the kernel and the edge arithmetic itself, on any
pattern that ``_noise_closure`` closes.

Noise is applied edge-locally at the channel (Kraus) level:

- depolarizing: rho -> (1-p) rho + (p/5) tr_e(rho) (x) 1_e
- amplitude damping: K_0 = |0><0| + sqrt(1-gamma) sum_{i>=1} |i><i|,
  K_i = sqrt(gamma) |0><i|, driving the edge toward its |0,0,0> ground state.

Both have one closed form, ``_edge_channel`` on ``lattice.local_view``: scale
the edge's (ket, bra) entries, then add a pooled edge population onto the
edge's diagonal; ``_packed_noise`` does the same arithmetic on the packed
entries, so both paths give the same bits.  ``apply_edge_kraus`` is
the Kraus-sum reference.

Density matrices are plain 625x625 complex arrays; every channel here is
trace preserving and completely positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .hamiltonian import _plaquette_entries, electric_edge_term
from .lattice import (
    EDGE_DIM,
    N_EDGES,
    TOTAL_DIM,
    _blocks_by_size,
    _check_edge,
    _components,
    charge_classes,
    local_view,
    pack,
    unpack,
)
from .su2 import _check_count, _check_positive

__all__ = [
    "TrotterConfig",
    "NoiseSpec",
    "herm_expm",
    "trotter_unitary",
    "trotter_step",
    "trotter_step_state",
    "apply_edge_kraus",
    "depolarizing_channel",
    "amplitude_damping_channel",
    "apply_noise_all_edges",
    "fidelity",
    "hygiene",
]

@dataclass(frozen=True)
class TrotterConfig:
    """Evolution parameters: coupling, total time, step count."""

    g2: float = 1.0
    total_time: float = 3.0
    n_steps: int = 30

    def __post_init__(self):
        _check_positive(self.g2, "g2")
        _check_count(self.n_steps, "n_steps")
        _check_positive(self.total_time, "total_time")

    @property
    def dt(self) -> float:
        return self.total_time / self.n_steps


@dataclass(frozen=True)
class NoiseSpec:
    """Edge noise model: kind and per-edge per-step rate."""

    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in _FORMS:
            raise ValueError(f"noise kind must be one of {tuple(_FORMS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("noise rate must lie in [0, 1]")


def herm_expm(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, or for each matrix of a stack h[..., :, :],
    via eigendecomposition."""
    h = np.asarray(h)
    # a NaN fails no comparison, so finiteness is tested first
    if not np.isfinite(h).all() or np.max(np.abs(h - h.conj().swapaxes(-1, -2))) > 1e-10:
        raise ValueError("herm_expm requires a finite Hermitian matrix")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * t * evals)[..., None, :]) @ evecs.conj().swapaxes(-1, -2)


@lru_cache(maxsize=4)
def _class_trotter(g2: float, dt: float) -> tuple[np.ndarray, ...]:
    """U at coupling g2 on each ``charge_classes`` block, one (count, size,
    size) stack per class size.  H_B's block is built on the states the
    plaquette's entries touch, in ``magnetic_hamiltonian``'s complex
    arithmetic: the same bits and zero signs.  exp(-i H_B dt) is exponentiated
    on each connected block of H_B's nonzero graph, one stack per block size;
    times the phase exp(-i H_E dt), which alone is U on every other state, it
    is gathered into the class blocks.  H_B commutes with every G_z^v, so U is
    exactly zero between classes."""
    _check_positive(g2, "g2")
    if not np.isfinite(dt):
        raise ValueError("dt must be a finite number")
    rows, cols, values = _plaquette_entries()
    touched = np.flatnonzero(np.bincount(np.concatenate([rows, cols]), minlength=TOTAL_DIM))
    p = np.zeros((len(touched),) * 2, dtype=complex)
    p[np.searchsorted(touched, rows), np.searchsorted(touched, cols)] = values
    with np.errstate(over="ignore", invalid="ignore"):
        hb = -(p + p.conj().T) / (2.0 * g2)
        # H_E's diagonal, read off the edge term: the four edges' energies summed, e0 slowest
        energies = reduce(np.add.outer, [np.diag(electric_edge_term(g2)).real] * N_EDGES).ravel()
    if not (np.isfinite(hb).all() and hb.any() and np.isfinite(energies).all()):
        raise ValueError(f"g2 = {g2!r} is out of range: H_B or H_E overflows, or H_B is zero")
    keep = hb.any(axis=1)
    moved, hb = touched[keep], hb[np.ix_(keep, keep)]
    block = np.zeros(hb.shape, dtype=complex)
    for idx in _blocks_by_size(_components(len(hb), *np.nonzero(hb))):
        ix = idx[:, :, None], idx[:, None, :]
        block[ix] = herm_expm(hb[ix], dt)
    phases = np.exp(-1j * dt * energies)
    block *= phases[moved, None]
    at = np.full(TOTAL_DIM, -1)
    at[moved] = np.arange(len(moved))
    classes = charge_classes()
    ket, bra = np.divmod(classes.positions, TOTAL_DIM)
    a, b = at[ket], at[bra]
    u = np.where((a >= 0) & (b >= 0), block[a, b], np.where(ket == bra, phases[ket], 0))
    u.setflags(write=False)
    return tuple(classes.blocks(u))


def trotter_unitary(g2: float, dt: float) -> np.ndarray:
    """U = exp(-i H_E dt) exp(-i H_B dt) at coupling g2 as a dense 625x625
    reference: the class blocks of ``_class_trotter``, zero between classes."""
    return unpack(np.concatenate([u.ravel() for u in _class_trotter(g2, dt)]))


class _ClassPairs(NamedTuple):
    """The class pairs (c, c') whose block rho_cc' holds a given set of
    entries, in block layout: grouped by the ``charge_classes`` stacks (s, t)
    of c and c', so by block shape, and row-major within a group and within
    a block.  ``positions`` lists the flat entries row * 625 + col of every
    block in that order; ``groups`` holds (s, rows of c in s, t, rows of c'
    in t) per group, the rows a slice where they are whole stacks."""

    positions: np.ndarray
    groups: tuple[tuple[int, object, int, object], ...]


def _class_pairs(positions: np.ndarray) -> _ClassPairs:
    """The ``_ClassPairs`` of every block that holds one of the flat entries
    ``positions``: U rho U^dagger writes exactly these blocks."""
    stacks = charge_classes().stacks
    bounds = np.cumsum([0, *map(len, stacks)])
    of = np.empty(TOTAL_DIM, dtype=int)  # each state's class, numbered stack by stack
    for idx, start in zip(stacks, bounds):
        of[idx] = start + np.arange(len(idx))[:, None]
    ket = positions // TOTAL_DIM  # floor division by a constant is fast; divmod is not
    touched = np.zeros((bounds[-1],) * 2, dtype=bool)
    touched[of[ket], of[positions - ket * TOTAL_DIM]] = True
    hit = np.logical_or.reduceat(np.logical_or.reduceat(touched, bounds[:-1]), bounds[:-1], axis=1)
    groups, blocks = [], [np.zeros(0, dtype=int)]
    for s, t in zip(*np.nonzero(hit)):  # the stack pairs holding a touched pair, ascending
        left, right = np.nonzero(touched[bounds[s]:bounds[s + 1], bounds[t]:bounds[t + 1]])
        ket, bra = stacks[s][left], stacks[t][right]
        blocks.append((ket[:, :, None] * TOTAL_DIM + bra[:, None, :]).ravel())
        if len(left) == len(stacks[s]) == len(stacks[t]) and np.array_equal(left, right):
            left = right = slice(None)  # every class of the stack with itself
        groups.append((s, left, t, right))
    positions = np.concatenate(blocks)
    positions.setflags(write=False)
    return _ClassPairs(positions, tuple(groups))


def _pair_trotter(blocks: np.ndarray, pairs: _ClassPairs, g2: float, dt: float) -> np.ndarray:
    """U_c rho_cc' U_c'^dagger on every block of ``pairs``, which ``blocks``
    holds in their layout (anything after them is not read): one batched
    product per block shape, none larger than 17 states.  A block gives the
    same bits whichever pairs hold it."""
    unitaries = _class_trotter(g2, dt)
    out = np.empty(len(pairs.positions), dtype=complex)
    start = 0
    for s, left, t, right in pairs.groups:
        u, v = unitaries[s][left], unitaries[t][right].conj()
        shape = (len(u), u.shape[1], v.shape[1])
        end = start + shape[0] * shape[1] * shape[2]
        np.matmul(u @ blocks[start:end].reshape(shape), v.swapaxes(1, 2),
                  out=out[start:end].reshape(shape))
        start = end
    return out


@lru_cache(maxsize=1)
def _diagonal_pairs() -> _ClassPairs:
    """The ``_ClassPairs`` of a class-diagonal rho: its blocks are the
    ``charge_classes`` blocks, in ``pack``'s layout."""
    return _class_pairs(charge_classes().positions)


def trotter_step(rho: np.ndarray, cfg: TrotterConfig) -> np.ndarray:
    """One noiseless Trotter step of the density matrix, U rho U^dagger.

    U is block diagonal on the charge classes, so rho steps block by block,
    U_c rho_cc' U_c'^dagger on each class pair that rho's nonzeros touch.  A
    class-diagonal rho (``lattice.pack``) steps on its packed entries."""
    packed = pack(rho)
    if packed is not None:
        return unpack(_pair_trotter(packed, _diagonal_pairs(), cfg.g2, cfg.dt))
    pairs = _class_pairs(np.flatnonzero(rho))
    out = np.zeros(TOTAL_DIM * TOTAL_DIM, dtype=complex)
    out[pairs.positions] = _pair_trotter(rho.take(pairs.positions), pairs, cfg.g2, cfg.dt)
    return out.reshape(TOTAL_DIM, TOTAL_DIM)


def trotter_step_state(psi: np.ndarray, cfg: TrotterConfig) -> np.ndarray:
    """One noiseless Trotter step of a pure state (the ideal reference): U @ psi,
    with U on the first axis, so a (625, k) stack steps column by column: as
    U_c psi_c on each charge class, one batched product per class size."""
    out = np.empty(psi.shape, dtype=np.result_type(psi, complex))
    for idx, u in zip(charge_classes().stacks, _class_trotter(cfg.g2, cfg.dt)):
        out[idx] = (u @ psi[idx].reshape(*idx.shape, -1)).reshape(idx.shape + psi.shape[1:])
    return out


def apply_edge_kraus(rho: np.ndarray, kraus: list[np.ndarray], edge: int) -> np.ndarray:
    """sum_K (K on edge) rho (K on edge)^dagger without forming 625x625 Kraus."""
    _check_edge(edge)
    ket_split = (EDGE_DIM**edge, EDGE_DIM, -1)  # (kets before edge, edge ket, rest)
    bra_split = (TOTAL_DIM * EDGE_DIM**edge, EDGE_DIM, -1)  # (..., edge bra, rest)
    out = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)
    for k in kraus:
        k_rho = np.matmul(k, rho.reshape(ket_split))
        out += np.matmul(k.conj(), k_rho.reshape(bra_split)).reshape(TOTAL_DIM, TOTAL_DIM)
    return out


def _edge_channel(rho: np.ndarray, edge: int, rate: float, form) -> np.ndarray:
    """scale * rho on the edge, plus weight * sum_{j in pool} <j|rho|j>_e on each |i><i|_e.

    ``form(rate)`` gives (scale, pool, targets, weight); i runs over targets."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("noise rate must lie in [0, 1]")
    r8 = local_view(rho, (edge,))
    scale, pool, targets, weight = form(rate)
    out = np.empty((TOTAL_DIM, TOTAL_DIM), dtype=np.result_type(rho, scale))
    o8 = local_view(out, (edge,))
    np.multiply(r8, scale.reshape(scale.shape + (1,) * (2 * N_EDGES - 2)), out=o8)
    fed = weight * sum(r8[j, j] for j in pool)
    for i in targets:
        o8[i, i] += fed
    return out


def _packed_edge_maps(positions: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per edge, ``_edge_channel``'s index arithmetic on rho held on the flat
    entries ``positions``: (pair, diag).  ``pair`` is each entry's edge (ket,
    bra) index 5 * ket + bra into the channel's scale; ``diag[i]`` lists the
    entries |i><i| on the edge, one per (other kets, other bras).  Wherever
    the positions hold one i they must hold all five, as the charge classes
    do (the edge shifts both sides' charges alike) and ``_noise_closure``'s."""
    row = positions // TOTAL_DIM  # floor division by a constant is fast; divmod is not
    maps = []
    for digit in np.indices((EDGE_DIM,) * N_EDGES).reshape(N_EDGES, -1):
        ket, bra = digit[row], digit[positions - row * TOTAL_DIM]
        # the entries |i><i|, i by i and each i in position order: adding i to the
        # edge's ket and bra keeps the order, so the k-th of each i has the same
        # other digits
        on = np.flatnonzero(ket == bra)
        diag = on[np.argsort(ket[on] * TOTAL_DIM**2 + positions[on])].reshape(EDGE_DIM, -1)
        for a in (pair := ket * EDGE_DIM + bra, diag):
            a.setflags(write=False)
        maps.append((pair, diag))
    return tuple(maps)


@lru_cache(maxsize=1)
def _class_edge_maps() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``_packed_edge_maps`` of a class-packed rho."""
    return _packed_edge_maps(charge_classes().positions)


def _noise_closure(positions: np.ndarray) -> np.ndarray:
    """The sorted entries that edge noise of either kind can write from rho
    on the flat entries ``positions``: on each edge, all five |i><i| beside
    any held |j><j|, the other edges' (ket, bra) kept.  Each edge's closure
    keeps the other edges' indices, so one pass over the edges closes all."""
    held = np.zeros((EDGE_DIM,) * (2 * N_EDGES), dtype=bool)  # the kets' digits, then the bras'
    held.reshape(-1)[positions] = True
    for e in range(N_EDGES):
        pair = np.moveaxis(held, (e, N_EDGES + e), (0, 1))  # a view: writing it writes held
        fed = reduce(np.logical_or, (pair[i, i] for i in range(EDGE_DIM)))
        for i in range(EDGE_DIM):
            pair[i, i] = fed
    return np.flatnonzero(held)


def _packed_noise(packed: np.ndarray, edge_maps, spec: NoiseSpec) -> np.ndarray:
    """``apply_noise_all_edges`` on a packed rho through its
    ``_packed_edge_maps``: ``_edge_channel``'s arithmetic entry by entry."""
    scale, pool, targets, weight = _FORMS[spec.kind](spec.rate)
    for pair, diag in edge_maps:
        out = packed * scale.ravel()[pair]
        fed = weight * sum(packed[diag[j]] for j in pool)
        for i in targets:
            out[diag[i]] += fed
        packed = out
    return packed


def _depolarizing_form(p: float):
    """Keep 1-p of every entry; feed p/5 of the edge's population to each state."""
    every = range(EDGE_DIM)
    return np.full((EDGE_DIM, EDGE_DIM), 1.0 - p), every, every, p / EDGE_DIM


def _damping_form(gamma: float):
    """Scale by keep (x) keep, keep = diag(K_0); feed gamma of the excited population to |0>."""
    keep = np.array([1.0] + [np.sqrt(1.0 - gamma)] * (EDGE_DIM - 1))
    return np.outer(keep, keep), range(1, EDGE_DIM), (0,), gamma


def depolarizing_channel(rho: np.ndarray, edge: int, p: float) -> np.ndarray:
    """(1-p) rho + (p/5) tr_e(rho) (x) 1_e on the given edge."""
    return _edge_channel(rho, edge, p, _depolarizing_form)


def _damping_kraus(gamma: float) -> tuple[np.ndarray, ...]:
    k0 = np.diag([1.0] + [np.sqrt(1.0 - gamma)] * (EDGE_DIM - 1)).astype(complex)
    ks = [k0]
    for i in range(1, EDGE_DIM):
        ki = np.zeros((EDGE_DIM, EDGE_DIM), dtype=complex)
        ki[0, i] = np.sqrt(gamma)
        ks.append(ki)
    return tuple(ks)


def amplitude_damping_channel(rho: np.ndarray, edge: int, gamma: float) -> np.ndarray:
    """Amplitude damping of one edge toward |0,0,0> with rate gamma."""
    return _edge_channel(rho, edge, gamma, _damping_form)


_FORMS = {"depolarizing": _depolarizing_form, "amplitude_damping": _damping_form}


def apply_noise_all_edges(rho: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Apply the noise channel to edges e0, e1, e2, e3 in order.

    A class-diagonal rho is packed once, and every edge runs on the packed
    entries: the channel keeps each G_z^v class block on its own."""
    packed = pack(rho)
    if packed is not None:
        return unpack(_packed_noise(packed, _class_edge_maps(), spec))
    for e in range(N_EDGES):
        rho = _edge_channel(rho, e, spec.rate, _FORMS[spec.kind])
    return rho


def fidelity(rho: np.ndarray, psi_ref: np.ndarray) -> float:
    """Overlap <psi|rho|psi> of a density matrix with a pure reference.  Only
    rho's block on supp psi x supp psi is read: an entry outside it never
    enters, finite or not."""
    support = np.flatnonzero(psi_ref)
    psi = psi_ref[support]
    return float(np.real(psi.conj() @ rho[np.ix_(support, support)] @ psi))


def hygiene(rho: np.ndarray) -> tuple[float, float, float]:
    """(trace deviation from 1, Hermiticity deviation, minimum eigenvalue).

    rho - rho^dagger and the Hermitian part vanish between the connected
    blocks of the nonzero graph of rho and rho^T, so both are read block by
    block, with one batched ``eigvalsh`` per block size; a class-diagonal
    rho is read on its packed class blocks.  A rho with a non-finite entry
    is a ValueError."""
    trace_dev = abs(np.trace(rho) - 1.0)
    packed = pack(rho)
    # off the packed entries a packed rho is exactly zero
    if not np.isfinite(rho if packed is None else packed).all():
        raise ValueError("rho has non-finite entries")
    if packed is not None:
        stacks = charge_classes().blocks(packed)
    else:
        mask = rho != 0
        mask |= mask.T
        stacks = [rho[idx[:, :, None], idx[:, None, :]]
                  for idx in _blocks_by_size(_components(len(rho), *np.nonzero(mask)))]
    herm_dev, min_eig = 0.0, np.inf
    for sub in stacks:
        adj = sub.conj().transpose(0, 2, 1)
        herm_dev = max(herm_dev, np.max(np.abs(sub - adj)))
        min_eig = min(min_eig, np.linalg.eigvalsh((sub + adj) / 2.0).min())
    return float(trace_dev), float(herm_dev), float(min_eig)
