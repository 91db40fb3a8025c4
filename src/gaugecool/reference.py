"""Dense references: the oracle layer that the tests and ``check`` read.

The run path works on 25x25 pair operators and on rho's entries; this module
holds what it is checked against, and no ``evolve`` or ``converge`` loads it:

- dense 625-dim lifts of the vertex operators (``gauge_action``,
  ``syndrome_operator``, ``recovery_kraus``) and Kronecker embeddings of
  edge operators (``embed_edge_operator``), with the basis indexing
  (``edge_state_index``, ``product_index``) and the physical subspace;
- the Kraus-sum edge channels (``apply_edge_kraus`` and the per-edge
  ``depolarizing_channel`` and ``amplitude_damping_channel``);
- the Haar Monte-Carlo estimate of the plaquette matrix (``haar_mc_oracle``,
  on ``haar_batch``), which uses no Clebsch-Gordan input;
- the four ``check`` suites, each a list of (name, deviation, tolerance).

``tdesign`` reads the pair forms ``_pair_action`` and
``_pair_syndrome_operator``; the suites import ``tdesign`` and ``klaudit``
inside their functions, so no import cycle forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .cooling import Syndrome, _pair_kraus
from .dynamics import _damping_form, _depolarizing_form, _edge_channel
from .hamiltonian import electric_hamiltonian, magnetic_hamiltonian, magnetic_plaquette_matrix
from .lattice import (
    EDGE_DIM,
    N_EDGES,
    TOTAL_DIM,
    _check_edge,
    _edge_operator,
    edge_basis,
    gauge_casimir,
    lift_pair,
    pair_cg_basis,
)
from .su2 import _check_count, wigner_d

__all__ = [
    "edge_state_index",
    "product_index",
    "embed_edge_operator",
    "gauge_action",
    "physical_subspace_basis",
    "syndrome_operator",
    "KrausChannel",
    "recovery_kraus",
    "apply_edge_kraus",
    "depolarizing_channel",
    "amplitude_damping_channel",
    "haar_batch",
    "haar_mc_oracle",
    "hamiltonian_checks",
    "tdesign_checks",
    "qft_checks",
    "detection_checks",
]

_EDGE_INDEX = {lab: i for i, lab in enumerate(edge_basis(1))}


def edge_state_index(twice_j: int, twice_m: int, twice_n: int) -> int:
    """Position of |j,m,n> in the 5-dimensional edge basis."""
    try:
        return _EDGE_INDEX[(twice_j, twice_m, twice_n)]
    except KeyError:
        raise ValueError(f"no edge state (2j,2m,2n)=({twice_j},{twice_m},{twice_n})")


def product_index(i0: int, i1: int, i2: int, i3: int) -> int:
    """Flat index of |i0>|i1>|i2>|i3> in the e0 (x) e1 (x) e2 (x) e3 order."""
    return ((i0 * EDGE_DIM + i1) * EDGE_DIM + i2) * EDGE_DIM + i3


def embed_edge_operator(op: np.ndarray, edge: int) -> np.ndarray:
    """Kronecker-embed a 5x5 edge operator, identity on the other edges."""
    op = np.asarray(op)
    if op.shape != (EDGE_DIM, EDGE_DIM):
        raise ValueError(f"edge operator must be {EDGE_DIM}x{EDGE_DIM}")
    _check_edge(edge)
    eye = np.eye(EDGE_DIM)
    mats = [op if e == edge else eye for e in range(N_EDGES)]
    return reduce(np.kron, mats)


def gauge_action(v: int, g: np.ndarray) -> np.ndarray:
    """Unitary U(g) of the gauge transformation g applied at vertex v."""
    return lift_pair(_pair_action(g), v)


def _pair_action(g: np.ndarray) -> np.ndarray:
    """The 25x25 pair operator that ``gauge_action`` lifts to a vertex:
    conj(D(g)) on m of the outgoing edge, D(g) on n of the incoming edge."""
    d = wigner_d(1, g)
    return np.kron(_edge_operator(1.0, m_op=np.conj(d)), _edge_operator(1.0, n_op=d))


@lru_cache(maxsize=None)
def physical_subspace_basis() -> np.ndarray:
    """Orthonormal basis of the subspace annihilated by all four Casimirs."""
    total = sum(gauge_casimir(v) for v in range(4))
    evals, evecs = np.linalg.eigh(total)
    basis = evecs[:, evals < 1e-8]
    basis.setflags(write=False)
    return basis


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


def _damping_kraus(gamma: float) -> tuple[np.ndarray, ...]:
    k0 = np.diag([1.0] + [np.sqrt(1.0 - gamma)] * (EDGE_DIM - 1)).astype(complex)
    ks = [k0]
    for i in range(1, EDGE_DIM):
        ki = np.zeros((EDGE_DIM, EDGE_DIM), dtype=complex)
        ki[0, i] = np.sqrt(gamma)
        ks.append(ki)
    return tuple(ks)


def depolarizing_channel(rho: np.ndarray, edge: int, p: float) -> np.ndarray:
    """(1-p) rho + (p/5) tr_e(rho) (x) 1_e on the given edge."""
    return _edge_channel(rho, edge, p, _depolarizing_form)


def amplitude_damping_channel(rho: np.ndarray, edge: int, gamma: float) -> np.ndarray:
    """Amplitude damping of one edge toward |0,0,0> with rate gamma."""
    return _edge_channel(rho, edge, gamma, _damping_form)


def haar_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-distributed SU(2) elements as an (n, 2, 2) array.

    Unit quaternions (a,b,c,d) drawn uniformly on S^3 (normalized Gaussian
    4-vectors) map to [[a+ib, c+id], [-c+id, a-ib]].
    """
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q.T
    out = np.empty((n, 2, 2), dtype=complex)
    out[:, 0, 0] = a + 1j * b
    out[:, 0, 1] = c + 1j * d
    out[:, 1, 0] = -c + 1j * d
    out[:, 1, 1] = a - 1j * b
    return out


_MC_CHUNK = 2000


def haar_mc_oracle(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo estimate of the plaquette-trace matrix.

    Draws Haar-random (g0, g1, g2, g3), evaluates the normalized Wigner
    functions sqrt(d_j) D^j_mn(g_e) on each edge and the plaquette trace
    tr(g0 g1 g2 g3), and averages the induced outer products.  Converges to
    ``magnetic_plaquette_matrix()`` at the usual 1/sqrt(n) rate.

    Samples are drawn in fixed-size chunks from the caller's RNG, so a given
    (seed, n_samples) pair is reproducible.
    """
    _check_count(n_samples, "n_samples")
    total = np.zeros((EDGE_DIM**4, EDGE_DIM**4), dtype=complex)
    done = 0
    while done < n_samples:
        size = min(_MC_CHUNK, n_samples - done)
        gs = [haar_batch(rng, size) for _ in range(N_EDGES)]
        # per-edge Wigner vectors: [1, sqrt(2) g_mn] in (m,n) row-major order
        vs = []
        for g in gs:
            v = np.empty((size, EDGE_DIM), dtype=complex)
            v[:, 0] = 1.0
            v[:, 1:] = np.sqrt(2.0) * g.reshape(size, 4)
            vs.append(v)
        w = np.einsum("ci,cj,ck,cl->cijkl", *vs).reshape(size, -1)
        prod = gs[0] @ gs[1] @ gs[2] @ gs[3]
        tr = np.trace(prod, axis1=1, axis2=2)
        total += w.conj().T @ (tr[:, None] * w)
        done += size
    return total / n_samples


def hamiltonian_checks(seed: int) -> list[tuple[str, float, float]]:
    checks = []
    hb = magnetic_hamiltonian(1.0)
    he = electric_hamiltonian(1.0)
    checks.append(("magnetic term Hermitian", float(np.max(np.abs(hb - hb.conj().T))), 1e-12))
    for v in range(4):
        c = gauge_casimir(v)
        checks.append(
            (f"[H_B, Casimir] vertex {v}", float(np.max(np.abs(hb @ c - c @ hb))), 1e-10)
        )
        checks.append(
            (f"[H_E, Casimir] vertex {v}", float(np.max(np.abs(he @ c - c @ he))), 1e-12)
        )
    est = haar_mc_oracle(20000, np.random.default_rng(seed))
    checks.append(
        (
            "plaquette matrix vs 2e4-sample Haar average",
            float(np.max(np.abs(est - magnetic_plaquette_matrix()))),
            0.15,
        )
    )
    return checks


def _load_design(design_file: str | None):
    from .tdesign import binary_octahedral_design, read_design

    if design_file is None:
        return binary_octahedral_design()
    return read_design(design_file)


def tdesign_checks(design_file: str | None) -> list[tuple[str, float, float]]:
    from .tdesign import discrete_syndrome_check, required_design_strength, tdesign_deviations

    checks = []
    design = _load_design(design_file)
    devs = tdesign_deviations(design, design.claimed_t)
    worst = max(devs, key=devs.get)
    checks.append(
        (
            f"design strength t={design.claimed_t}, worst bidegree ({worst[0]},{worst[1]})",
            devs[worst],
            1e-9,
        )
    )
    for v in range(4):
        checks.append(
            (
                f"syndrome operators from the group average, vertex {v}",
                discrete_syndrome_check(design, v),
                1e-9,
            )
        )
    checks.append(
        (
            "required strength, syndrome map (k=2, k_out=1, j=1/2)",
            float(required_design_strength(2, 1, Fraction(1, 2)) - 3),
            0.5,
        )
    )
    checks.append(
        (
            "required strength, syndrome map (k=2, k_out=1, j=1)",
            float(required_design_strength(2, 1, 1) - 6),
            0.5,
        )
    )
    return checks


def qft_checks(design_file: str | None) -> list[tuple[str, float, float]]:
    from .tdesign import embed_unitary, qft_kernel_check, truncated_qft

    checks = []
    design = _load_design(design_file)
    for j_cut in (Fraction(1, 2), Fraction(1)):
        qft = truncated_qft(design, j_cut)
        gram = qft.w @ qft.w.conj().T
        iso = float(np.max(np.abs(gram - np.eye(qft.d_out))))
        checks.append((f"Fourier rows orthonormal, j_cut={j_cut}", iso, 1e-9))
        checks.append(
            (f"character kernel identity, j_cut={j_cut}", qft_kernel_check(design, j_cut), 1e-9)
        )
        if iso <= 1e-9:
            u = embed_unitary(qft)
            checks.append(
                (
                    f"embedded matrix unitary, j_cut={j_cut}",
                    float(np.max(np.abs(u @ u.conj().T - np.eye(qft.n_t)))),
                    1e-9,
                )
            )
            checks.append(
                (
                    f"embedding preserves the Fourier rows, j_cut={j_cut}",
                    float(np.max(np.abs(u[: qft.d_out] - qft.w))),
                    0.0,
                )
            )
    return checks


def detection_checks() -> list[tuple[str, float, float]]:
    from .klaudit import convention_audit, detection_check, wigner_eckart_residual

    checks = []
    for pauli in ("X", "Y", "Z"):
        for edge in range(4):
            checks.append(
                (f"undetected singlet reach of {pauli} on edge {edge}",
                 detection_check(pauli, edge), 1e-12)
            )
    for q in (-1, 0, 1):
        for edge in range(4):
            checks.append(
                (f"tensor factorization of the q={q:+d} component, edge {edge}",
                 wigner_eckart_residual(q, edge), 1e-10)
            )
    report = convention_audit()
    checks.append(
        ("singlet labeling matches the reference pair product",
         0.0 if report.matches_reference else 1.0, 0.5)
    )
    return checks
