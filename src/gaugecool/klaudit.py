"""Error audit at a single coordination-4 vertex with four spin-1/2 edges.

A gauge transformation at a vertex where four spin-1/2 edges meet acts on
``(C^2)^{(x)4}``.  Coupling edge pairs (0,1) and (2,3) to intermediate spins
and then coupling the pair results decomposes the 16-dimensional space into
total-spin sectors ``0^2 (+) 1^3 (+) 2^1``; the two J = 0 channels span the
gauge-invariant "codespace" at the vertex.  The functions here quantify how
one-edge Pauli errors move states out of that codespace and what a
syndrome-conditioned recovery can and cannot undo:

- every one-edge Pauli is detected: its singlet-to-singlet block vanishes,
  and none reaches J = 2 (``detection_check``);
- conditioned on a syndrome, an error acts on the two-dimensional
  multiplicity space through a 3x2 map A_k that depends on the edge
  (``multiplicity_map``), so the Knill-Laflamme products A_k^dag A_l deviate
  from the identity and no recovery is exact (``kl_product``);
- fixing a pseudoinverse recovery for one reference edge leaves a residual
  logical error on the other edges whose Pauli content is a definite I/X/Z
  mixture with no Y component (``residual_pauli_weights``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .su2 import _check_integer_in, cg_isometry, pauli_matrices, spherical_pauli

__all__ = [
    "N_VERTEX_EDGES",
    "SINGLET_LABELS",
    "TRIPLET_LABELS",
    "PAIR_KL_REFERENCE",
    "Coord4Basis",
    "MultiplicityMap",
    "ResidualTable",
    "ConventionReport",
    "coord4_cg_basis",
    "edge_operator",
    "detection_check",
    "multiplicity_map",
    "kl_product",
    "residual_pauli_weights",
    "wigner_eckart_residual",
    "convention_audit",
]

N_VERTEX_EDGES = 4

# Channel labels (j12, j34) in the fixed column order used everywhere below.
SINGLET_LABELS = ((0, 0), (1, 1))
TRIPLET_LABELS = ((0, 1), (1, 0), (1, 1))
_CHANNELS = {0: SINGLET_LABELS, 1: TRIPLET_LABELS, 2: ((1, 1),)}

# The M components a one-edge error can feed from the M = 0 singlets: a
# spherical component q obeys Delta M = q, the Cartesian X and Y straddle
# q = -1 and +1 in equal measure.
_M_COMPONENTS = {"Z": (0,), "X": (-1, 1), "Y": (-1, 1), -1: (-1,), 0: (0,), 1: (1,)}


@dataclass(frozen=True)
class Coord4Basis:
    """Orthonormal total-spin basis of four coupled spin-1/2 factors.

    Column i of ``vectors`` is the state ``labels[i] = (j12, j34, J, M)``:
    edges (0,1) couple to j12, edges (2,3) to j34, and the pair results to
    the total spin J.  Columns are ordered J ascending, then channel in the
    ``SINGLET_LABELS`` / ``TRIPLET_LABELS`` order, then M ascending; rows
    follow ``kron`` of the four edge factors, each in the ascending-m basis.
    """

    labels: tuple[tuple[int, int, int, int], ...]
    vectors: np.ndarray

    def index(self, j12: int, j34: int, J: int, M: int) -> int:
        """Column number of the state |(j12, j34) J M>."""
        try:
            return self.labels.index((j12, j34, J, M))
        except ValueError:
            raise ValueError(f"no basis state ({j12}, {j34}, {J}, {M})") from None

    def sector(self, J: int, M: int | None = None) -> np.ndarray:
        """Columns of total spin J (optionally one M), in label order."""
        cols = [
            i
            for i, (_, _, bj, bm) in enumerate(self.labels)
            if bj == J and (M is None or bm == M)
        ]
        if not cols:
            raise ValueError(f"no basis states with J={J}" + (f", M={M}" if M is not None else ""))
        return self.vectors[:, cols]

    def projector(self, J: int) -> np.ndarray:
        """Orthogonal projector onto the total-spin-J sector."""
        block = self.sector(J)
        return block @ block.conj().T

    @property
    def singlets(self) -> np.ndarray:
        """16x2 matrix of the J = 0 channels, columns in SINGLET_LABELS order."""
        return self.sector(0)

    def triplets(self, M: int) -> np.ndarray:
        """16x3 matrix of the J = 1, M channels, columns in TRIPLET_LABELS order."""
        return self.sector(1, M)


@lru_cache(maxsize=1)
def coord4_cg_basis() -> Coord4Basis:
    """Build the 16-dimensional (12)(34)-coupled basis from iterated CG."""
    pair = {j: cg_isometry(1, 1, 2 * j) for j in (0, 1)}
    labels: list[tuple[int, int, int, int]] = []
    cols: list[np.ndarray] = []
    for J in (0, 1, 2):
        for j12, j34 in _CHANNELS[J]:
            chan = np.kron(pair[j12], pair[j34]) @ cg_isometry(2 * j12, 2 * j34, 2 * J)
            for k, M in enumerate(range(-J, J + 1)):
                labels.append((j12, j34, J, M))
                cols.append(chan[:, k])
    vectors = np.column_stack(cols)
    vectors.setflags(write=False)
    return Coord4Basis(tuple(labels), vectors)


def _error_matrix(error) -> np.ndarray:
    """2x2 matrix for an error label: "I"/"X"/"Y"/"Z" or a spherical q."""
    x, y, z = pauli_matrices()
    by_name = {"I": np.eye(2, dtype=complex), "X": x, "Y": y, "Z": z}
    if isinstance(error, str) and error.upper() in by_name:
        return by_name[error.upper()]
    message = f"unknown error label {error!r}; use I/X/Y/Z or q in {{-1,0,+1}}"
    _check_integer_in(error, (-1, 0, 1), message)
    return spherical_pauli(error)


def edge_operator(error, edge: int) -> np.ndarray:
    """The 16x16 action at the vertex of an operator on one incident edge."""
    _check_integer_in(
        edge, range(N_VERTEX_EDGES), f"edge must be 0..{N_VERTEX_EDGES - 1}, got {edge}"
    )
    op = _error_matrix(error)
    eye = np.eye(2, dtype=complex)
    return reduce(np.kron, (op if k == edge else eye for k in range(N_VERTEX_EDGES)))


def detection_check(pauli: str, edge: int) -> float:
    """Largest |entry| of the singlet-to-singlet block of a one-edge Pauli.

    Zero means the error is always flagged by the gauge syndrome.  The
    identity label is accepted for the trivial scalar comparison (its block
    is the identity, entry 1).
    """
    s = coord4_cg_basis().singlets
    block = s.conj().T @ edge_operator(pauli, edge) @ s
    return float(np.max(np.abs(block)))


@dataclass(frozen=True)
class MultiplicityMap:
    """Multiplicity-space factor of a one-edge error, in a fixed M sector.

    ``matrix`` carries the two J = 0 channels (columns, ``SINGLET_LABELS``
    order) into the three J = 1 channels (rows, ``TRIPLET_LABELS`` order).
    The gauge syndrome (J, M) fixes everything about the error except this
    factor, so edges with different maps distort the codespace in ways no
    syndrome-conditioned recovery can simultaneously undo.
    """

    error: str | int
    edge: int
    m_target: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.shape != (len(TRIPLET_LABELS), len(SINGLET_LABELS)):
            raise ValueError("multiplicity map must be 3x2")


def _raw_map(error, edge: int, m_target: int) -> np.ndarray:
    b = coord4_cg_basis()
    return b.triplets(m_target).conj().T @ edge_operator(error, edge) @ b.singlets


@lru_cache(maxsize=1)
def _reduced_matrix_element() -> float:
    """Wigner-Eckart scale of the raw singlet-to-triplet sandwich.

    Fixed once, from the q = 0 component on edge 0, so that every spherical
    component's multiplicity map comes out with singular values (1, 1).
    """
    raw = _raw_map(0, 0, 0)
    return float(np.sqrt(np.trace(raw.conj().T @ raw).real / 2.0))


def multiplicity_map(error, edge: int, m_target: int | None = None) -> MultiplicityMap:
    """Extract the 3x2 multiplicity-space map of a one-edge error.

    Sandwiches the error between the J = 1, M bras and the J = 0 kets and
    divides out the fixed reduced matrix element.  A spherical component q
    feeds the single sector M = q (the default target); Cartesian X and Y
    straddle M = -1 and +1, so ``m_target`` must pick one explicitly.
    """
    key = error.upper() if isinstance(error, str) else error
    if key == "I":
        raise ValueError("the identity is not an error; no multiplicity map")
    edge_operator(key, edge)  # validates both the label and the edge
    allowed = _M_COMPONENTS[key]
    if m_target is None:
        if len(allowed) > 1:
            raise ValueError(f"{key} straddles M = -1 and +1; pass m_target")
        m_target = allowed[0]
    message = f"a {key} error cannot reach M = {m_target} from a singlet"
    _check_integer_in(m_target, allowed, message)
    a = _raw_map(key, edge, m_target) / _reduced_matrix_element()
    a.setflags(write=False)
    return MultiplicityMap(key, edge, m_target, a)


def kl_product(a: MultiplicityMap, b: MultiplicityMap) -> np.ndarray:
    """The 2x2 Knill-Laflamme product A_a^dag A_b of two maps.

    Proportional to the identity exactly when a recovery conditioned on
    their (common) syndrome sector can undo both errors coherently.
    """
    if a.m_target != b.m_target:
        raise ValueError(
            f"maps live in different M sectors ({a.m_target} vs {b.m_target})"
        )
    return a.matrix.conj().T @ b.matrix


@dataclass(frozen=True)
class ResidualTable:
    """Per-edge Pauli weights of the logical residual after recovery.

    Row k is ``(label, I, X, Y, Z)``: the normalized Pauli weights
    ``|c_P|^2 / sum |c|^2`` of the 2x2 residual R A_k, where R is the
    pseudoinverse of the reference edge's map.  Weights lie in [0, 1] and
    each row sums to 1.
    """

    reference_edge: int
    m_target: int
    rows: tuple[tuple[str, float, float, float, float], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            w = np.asarray(row[1:], dtype=float)
            if np.any(w < -1e-12) or np.any(w > 1.0 + 1e-12):
                raise ValueError(f"weights outside [0, 1] in row {row[0]!r}")
            if abs(float(w.sum()) - 1.0) > 1e-10:
                raise ValueError(f"weights do not sum to 1 in row {row[0]!r}")

    def weights(self, edge: int) -> np.ndarray:
        """(I, X, Y, Z) weight vector for the error on the given edge."""
        return np.asarray(self.rows[edge][1:], dtype=float)


def residual_pauli_weights(reference_edge: int = 0, m_target: int = 0) -> ResidualTable:
    """Pauli content of the logical residuals left by a pseudoinverse recovery.

    Uses the error component that feeds the chosen M sector on every edge
    (q = 0, i.e. Z, for M = 0; the spherical q = +-1 component otherwise),
    recovers with the pseudoinverse of the reference edge's map, and reports
    each edge's residual as normalized I/X/Y/Z weights.
    """
    n = N_VERTEX_EDGES
    _check_integer_in(reference_edge, range(n), f"reference_edge must be 0..{n - 1}")
    _check_integer_in(m_target, (-1, 0, 1), "m_target must be -1, 0, or +1")
    error: str | int = "Z" if m_target == 0 else m_target
    maps = [multiplicity_map(error, k, m_target) for k in range(N_VERTEX_EDGES)]
    rec = np.linalg.pinv(maps[reference_edge].matrix)
    x, y, z = pauli_matrices()
    basis = (np.eye(2, dtype=complex), x, y, z)
    name = "Z" if m_target == 0 else f"O({m_target:+d})"
    rows = []
    for k, mp in enumerate(maps):
        res = rec @ mp.matrix
        coeff = np.array([np.trace(p.conj().T @ res) / 2.0 for p in basis])
        w = np.abs(coeff) ** 2
        w /= w.sum()
        rows.append((f"{name}_{k}", *(float(v) for v in w)))
    return ResidualTable(reference_edge, m_target, tuple(rows))


def wigner_eckart_residual(q: int, edge: int) -> float:
    """Deviation of a spherical error component from its tensor factorization.

    The action of the q component on the codespace should factor as (gauge
    quantum numbers) x (multiplicity map): its image lies entirely in the
    J = 1, M = q channels with coefficients given by the map.  Returns the
    max |entry| of ``E Pi_0 - r * T_q A S^dag``, which also vanishes only if
    the error has no singlet-to-singlet or singlet-to-J=2 component.
    """
    _check_integer_in(q, (-1, 0, 1), "q must be a spherical component -1, 0, or +1")
    b = coord4_cg_basis()
    s = b.singlets
    image = edge_operator(q, edge) @ s
    a = multiplicity_map(q, edge)
    recon = _reduced_matrix_element() * (b.triplets(q) @ a.matrix)
    return float(np.max(np.abs(image - recon)))


# The Z-error pair product that pins the singlet column conventions: with
# columns ordered (0,0), (1,1) the recovery analysis must reproduce exactly
# this matrix, and any relabeling of the two J = 0 channels would conjugate
# it by a signed permutation.
PAIR_KL_REFERENCE = np.diag([-1.0, 1.0 / 3.0])
PAIR_KL_REFERENCE.setflags(write=False)


@dataclass(frozen=True)
class ConventionReport:
    """How the as-built singlet labeling relates to the reference product.

    ``matches_reference`` is True when A_0(Z)^dag A_1(Z) equals
    ``PAIR_KL_REFERENCE`` with no relabeling.  Otherwise ``permutation`` and
    ``signs`` record the signed column permutation of the singlet channels
    that reconciles the two, so a convention drift is reported rather than
    silently absorbed.  ``pair_product`` is the as-built product.
    """

    matches_reference: bool
    permutation: tuple[int, int]
    signs: tuple[int, int]
    pair_product: np.ndarray


def convention_audit() -> ConventionReport:
    """Check the as-built singlet conventions against the reference product."""
    kl = kl_product(multiplicity_map("Z", 0), multiplicity_map("Z", 1))
    for perm in ((0, 1), (1, 0)):
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            p = np.zeros((2, 2))
            p[perm[0], 0], p[perm[1], 1] = signs
            if np.max(np.abs(p.T @ kl @ p - PAIR_KL_REFERENCE)) < 1e-10:
                return ConventionReport(
                    matches_reference=(perm == (0, 1) and signs == (1, 1)),
                    permutation=perm,
                    signs=signs,
                    pair_product=kl,
                )
    raise RuntimeError(
        "no relabeling of the singlet channels reconciles the pair product "
        "with its reference value"
    )
