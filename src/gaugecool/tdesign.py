"""Finite averaging sets on SU(2) and the truncated group Fourier transform.

Three tools live here.  ``verify_tdesign`` measures how well a finite set of
group elements reproduces Haar integrals, bidegree by bidegree, through Schur
orthogonality of the representation matrix entries, and
``binary_octahedral_design`` supplies a concrete 48-element set that averages
exactly up to degree three — enough for every syndrome operator on the
five-level edges.  ``truncated_qft`` builds the group Fourier matrix cut off
at an output spin, one row per (j, m, n) of ``lattice.edge_basis`` at that
cut, together with a kernel identity check and a deterministic unitary
embedding of its rows.  ``discrete_syndrome_check`` ties everything together:
the group-averaged syndrome operators computed from a sufficiently strong
element set must equal the exact projector-built ones.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .lattice import edge_basis, pair_cg_basis, vertex_edges
from .reference import _pair_action, _pair_syndrome_operator
from .su2 import _check_count, _checked_su2, _twice, wigner_d

__all__ = [
    "DesignSet",
    "TruncatedQFT",
    "required_design_strength",
    "binary_octahedral_design",
    "read_design",
    "tdesign_deviations",
    "verify_tdesign",
    "truncated_qft",
    "qft_kernel_check",
    "embed_unitary",
    "discrete_syndrome_check",
]


@dataclass(frozen=True)
class DesignSet:
    """A finite subset of SU(2) together with its claimed averaging strength."""

    elements: tuple
    claimed_t: int

    def __post_init__(self):
        _check_count(self.claimed_t, "claimed_t")
        if len(self.elements) == 0:
            raise ValueError("a design set needs at least one element")
        checked = tuple(
            _checked_su2(g, f"element {k}") for k, g in enumerate(self.elements)
        )
        object.__setattr__(self, "elements", checked)

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class TruncatedQFT:
    """Group Fourier transform restricted to output spins j <= j_cut.

    Rows of ``w`` are labelled (j, m, n) with j ascending, then m, then n —
    the same enumeration the edge Hilbert space uses — and columns follow the
    element order of the design set it was built from.
    """

    j_cut: Fraction
    labels: tuple
    w: np.ndarray

    @property
    def d_out(self) -> int:
        return self.w.shape[0]

    @property
    def n_t(self) -> int:
        return self.w.shape[1]


def required_design_strength(k: int, k_out: int, j_max) -> int:
    """Averaging strength that guarantees exact syndrome extraction.

    A vertex with k incident edges (k_out of them outgoing) and edge spins
    capped at j_max needs t >= 2*k*j_max + 2*k_out*j_max: the syndrome label
    J reaches k*j_max, contributing alongside the outgoing edges to the
    antiholomorphic degree, while incoming edges set the holomorphic one.
    """
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError("k must be at least 1")
    if not isinstance(k_out, numbers.Integral) or not 0 <= k_out <= k:
        raise ValueError("k_out must lie between 0 and k")
    _twice(j_max, "j_max")  # rejects a non-finite value before Fraction does
    jm = Fraction(j_max)
    if jm <= 0 or (2 * jm).denominator != 1:
        raise ValueError("j_max must be a positive half-integer")
    return math.ceil(2 * jm * (k + k_out))


def _su2_from_quaternion(a: float, b: float, c: float, d: float) -> np.ndarray:
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


@lru_cache(maxsize=1)
def binary_octahedral_design() -> DesignSet:
    """The 48-element binary octahedral subgroup of SU(2).

    As unit quaternions: the eight with a single +-1 coordinate, the sixteen
    with all coordinates +-1/2, and the twenty-four with two coordinates
    +-1/sqrt(2).  This is the lift of the single-qubit Clifford rotations and
    averages degree-3 polynomials exactly (but not degree 4).
    """
    quads: list[tuple[float, float, float, float]] = []
    for pos in range(4):
        for s in (1.0, -1.0):
            q = [0.0, 0.0, 0.0, 0.0]
            q[pos] = s
            quads.append(tuple(q))
    for signs in itertools.product((0.5, -0.5), repeat=4):
        quads.append(signs)
    r = 1.0 / math.sqrt(2.0)
    for i, k in itertools.combinations(range(4), 2):
        for si, sk in itertools.product((r, -r), repeat=2):
            q = [0.0, 0.0, 0.0, 0.0]
            q[i], q[k] = si, sk
            quads.append(tuple(q))
    return DesignSet(tuple(_su2_from_quaternion(*q) for q in quads), claimed_t=3)


def read_design(path) -> DesignSet:
    """Parse a design file: one element per line as four reals ``a b c d``.

    The quadruple encodes the matrix [[a+ib, c+id], [-c+id, a-ib]] and must
    have unit length within 1e-9.  Blank lines and lines starting with '#'
    are ignored.  The set claims t=3, what a plaquette vertex needs.
    """
    elements = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected four numbers, got {len(parts)}")
        try:
            a, b, c, d = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: expected four numbers") from None
        if abs(a * a + b * b + c * c + d * d - 1.0) > 1e-9:
            raise ValueError(f"line {lineno}: quadruple is not unit length")
        elements.append(_su2_from_quaternion(a, b, c, d))
    if not elements:
        raise ValueError("design file contains no elements")
    return DesignSet(tuple(elements), claimed_t=3)


def tdesign_deviations(d: DesignSet, t: int) -> dict:
    """Schur-orthogonality deviation at every representation bidegree.

    For each spin pair (j1, j2) with 2*j1 <= t and 2*j2 <= t, the uniform
    average of [pi_j1(g)]_ab * conj([pi_j2(g)]_cd) over the set is compared
    entrywise against its Haar value delta_(j1,j2) delta_ac delta_bd/(2j1+1);
    the returned map sends (j1, j2) to the largest deviation, so a failing
    strength is localized to the bidegree that breaks it.
    """
    _check_count(t, "t")
    n = d.size
    reps = {
        tj: np.stack([wigner_d(tj, g) for g in d.elements]) for tj in range(t + 1)
    }
    out = {}
    for tj1 in range(t + 1):
        for tj2 in range(t + 1):
            avg = np.einsum("iab,icd->abcd", reps[tj1], reps[tj2].conj()) / n
            if tj1 == tj2:
                eye = np.eye(tj1 + 1)
                avg = avg - np.einsum("ac,bd->abcd", eye, eye) / (tj1 + 1)
            out[(Fraction(tj1, 2), Fraction(tj2, 2))] = float(np.max(np.abs(avg)))
    return out


def verify_tdesign(d: DesignSet, t: int) -> float:
    """Largest Schur-orthogonality deviation over all bidegrees up to t."""
    return max(tdesign_deviations(d, t).values())


def truncated_qft(d: DesignSet, j_cut) -> TruncatedQFT:
    """The d_out x n_t Fourier matrix sqrt((2j+1)/n_t) * conj[pi_j(g_i)]_mn,
    its rows in the ``lattice.edge_basis`` order."""
    tcut = _twice(j_cut, "j_cut")
    if tcut < 0:
        raise ValueError(f"j_cut = {j_cut} is negative")
    labels = edge_basis(tcut)
    n = d.size
    if n < len(labels):
        raise ValueError(f"output space needs {len(labels)} elements, set has {n}")
    reps = [np.stack([wigner_d(tj, g) for g in d.elements]) for tj in range(tcut + 1)]
    w = np.array([
        math.sqrt((tj + 1.0) / n) * reps[tj][:, (tm + tj) // 2, (tn + tj) // 2].conj()
        for tj, tm, tn in labels
    ])
    w.setflags(write=False)
    fractions = tuple(tuple(Fraction(x, 2) for x in lab) for lab in labels)
    return TruncatedQFT(j_cut=Fraction(tcut, 2), labels=fractions, w=w)


def qft_kernel_check(d: DesignSet, j_cut) -> float:
    """Entrywise gap between W^dag W and the character-sum kernel.

    <g_i| W^dag W |g_k> = sum_j ((2j+1)/n_t) chi_j(g_i g_k^-1) holds for any
    element set whatsoever.  The right side is read from the 2x2 elements
    alone and shares no code with ``wigner_d`` or the Fourier rows: with
    x = tr(g_i g_k^dag), chi_0 = 1, chi_1/2 = x and the Clebsch-Gordan
    recurrence chi_(j+1/2) = x chi_j - chi_(j-1/2).
    """
    q = truncated_qft(d, j_cut)
    lhs = q.w.conj().T @ q.w
    g = np.stack(d.elements)
    x = np.einsum("iab,kab->ik", g, g.conj())
    rhs, prev, chi = 0.0, 0.0, 1.0
    for tj in range(int(2 * q.j_cut) + 1):
        rhs += (tj + 1.0) / q.n_t * chi
        prev, chi = chi, x * chi - prev
    return float(np.max(np.abs(lhs - rhs)))


def embed_unitary(q: TruncatedQFT) -> np.ndarray:
    """Extend the isometry rows of ``q`` to a full n_t x n_t unitary.

    The first d_out rows equal W exactly; the remaining rows are W's right
    singular vectors past its rank, an orthonormal basis of the complement
    of its rows, so repeated calls give a bit-identical completion.
    """
    w = q.w
    gap = np.max(np.abs(w @ w.conj().T - np.eye(q.d_out)))
    if gap > 1e-9:
        raise ValueError(f"rows are not orthonormal (largest gap {gap:.3e})")
    u = np.vstack((w, np.linalg.svd(w)[2][q.d_out:]))
    u.setflags(write=False)
    return u


def discrete_syndrome_check(d: DesignSet, v: int) -> float:
    """Gap between group-averaged syndrome operators and their exact forms.

    For every label (J, M, N) present at vertex v, the weighted average
    sqrt(2J+1)/n_t * sum_i conj[pi_J(g_i)]_MN * U_v(g_i) over the element set
    is compared entrywise with the projector-built syndrome operator.  A set
    that averages exactly at the strength from ``required_design_strength``
    makes every pair agree; weaker sets leave a visible residue.

    Both sides are 25x25 pair operators lifted by ``lattice.lift_pair``, which
    only copies entries and adds zeros, so the max-abs gap is taken between
    the pair operators and is the same at every vertex.  The average for every
    (M, N) of one J is a single contraction of the stacked conj(pi_J(g_i))
    with the stacked pair actions.
    """
    vertex_edges(v)  # rejects a vertex index out of range
    n = d.size
    u = np.stack([_pair_action(g) for g in d.elements])
    worst = 0.0
    for tj in sorted(pair_cg_basis().mu):
        rep = np.stack([wigner_d(tj, g) for g in d.elements])
        disc = math.sqrt(tj + 1.0) / n * np.einsum("iab,ipq->abpq", rep.conj(), u)
        for a in range(tj + 1):
            for b in range(tj + 1):
                cont = _pair_syndrome_operator(tj, 2 * a - tj, 2 * b - tj)
                worst = max(worst, float(np.max(np.abs(disc[a, b] - cont))))
    return worst
