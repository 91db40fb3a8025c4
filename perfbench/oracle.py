"""Independent oracle for the benchmark's trajectories, and the method checks.

The oracle recomputes an uncooled noisy trajectory without the program's
propagator, noise or overlap code:

* the Trotter factors are ``scipy.linalg.expm`` of the electric and magnetic
  Hamiltonians;
* the edge noise is the superoperator sum_K K (x) conj(K) of explicit Kraus
  operators, each Kronecker-embedded as a sparse 625x625 matrix;
* the vertex singlet projector is the kernel of the vertex Casimir, and the
  syndrome projectors are the joint eigenspaces of the Casimir and G_z.

The model inputs it takes from the program are the Hamiltonians, the
Casimirs and the generators, which the tier-1 criteria 2-4 validate.

Cooled runs have no independent trajectory; they are held to properties the
recovery must have (see ``check_cli``).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from gaugecool.hamiltonian import electric_hamiltonian, magnetic_hamiltonian
from gaugecool.lattice import gauge_casimir, gauge_generator

from workloads import G2, MAX_SWEEPS, RATE, TOL

EDGE_DIM = 5
N_EDGES = 4
DIM = EDGE_DIM**N_EDGES

VALUE_TOL = 1e-9        # program value against oracle value
CRITERION_9_MARGIN = 0.005
HYGIENE_BOUNDS = (1e-12, 1e-12, -1e-8)  # criterion 10: trace, Hermiticity, min eigenvalue


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    """sqrt(1-p) 1 and sqrt(p/5) |a><b|: (1-p) rho + (p/5) tr_e(rho) (x) 1_e."""
    ks = [np.sqrt(1.0 - p) * np.eye(EDGE_DIM)]
    for a in range(EDGE_DIM):
        for b in range(EDGE_DIM):
            k = np.zeros((EDGE_DIM, EDGE_DIM))
            k[a, b] = np.sqrt(p / EDGE_DIM)
            ks.append(k)
    return ks


def damping_kraus(gamma: float) -> list[np.ndarray]:
    """K_0 = |0><0| + sqrt(1-gamma) sum_i |i><i|, K_i = sqrt(gamma) |0><i|."""
    ks = [np.diag([1.0] + [np.sqrt(1.0 - gamma)] * (EDGE_DIM - 1))]
    for i in range(1, EDGE_DIM):
        k = np.zeros((EDGE_DIM, EDGE_DIM))
        k[0, i] = np.sqrt(gamma)
        ks.append(k)
    return ks


def embed(op: np.ndarray, edge: int) -> sp.csr_matrix:
    """op on one edge, identity on the others, in e0 (x) e1 (x) e2 (x) e3 order."""
    out = None
    for e in range(N_EDGES):
        factor = sp.csr_matrix(op) if e == edge else sp.identity(EDGE_DIM, format="csr")
        out = factor if out is None else sp.kron(out, factor, format="csr")
    return out


def superoperator(kraus: list[sp.csr_matrix]) -> sp.csr_matrix:
    """sum_K K (x) conj(K): acts on row-major vec(rho) as rho -> sum_K K rho K^dagger."""
    return sum(sp.kron(k, k.conj(), format="csr") for k in kraus).tocsr()


def uncooled_trajectory(noise: str, dt: float, steps: int):
    """Yield (psi, rho) after each noisy Trotter step from the vacuum."""
    u = scipy.linalg.expm(-1j * dt * electric_hamiltonian(G2)) @ scipy.linalg.expm(
        -1j * dt * magnetic_hamiltonian(G2)
    )
    kraus = {"depolarizing": depolarizing_kraus, "amplitude_damping": damping_kraus}[noise]
    edge_channels = [superoperator([embed(k, e) for k in kraus(RATE)]) for e in range(N_EDGES)]
    psi = np.zeros(DIM, dtype=complex)
    psi[0] = 1.0  # every edge in |j=0>, the first basis state
    rho = np.outer(psi, psi.conj())
    for _ in range(steps):
        psi = u @ psi
        rho = u @ rho @ u.conj().T
        for channel in edge_channels:
            rho = (channel @ rho.ravel()).reshape(DIM, DIM)
        yield psi, rho


class VertexSectors:
    """Joint (Casimir, G_z) eigenspaces at the four vertices."""

    def __init__(self):
        self.sectors = [self._vertex(v) for v in range(N_EDGES)]

    @staticmethod
    def _vertex(v: int) -> dict[tuple[int, int], np.ndarray]:
        evals, evecs = np.linalg.eigh(np.real_if_close(gauge_casimir(v)))
        twice_j = np.rint(np.sqrt(1.0 + 4.0 * evals) - 1.0).astype(int)
        if np.max(np.abs(evals - twice_j * (twice_j + 2) / 4.0)) > 1e-8:
            raise ArithmeticError(f"vertex {v}: Casimir spectrum is not J(J+1)")
        out = {}
        gz = gauge_generator(v, "z")
        for tj in np.unique(twice_j):
            w = evecs[:, twice_j == tj]
            mu, vecs = np.linalg.eigh(w.conj().T @ gz @ w)
            twice_n = np.rint(2.0 * mu).astype(int)
            if np.max(np.abs(mu - twice_n / 2.0)) > 1e-8:
                raise ArithmeticError(f"vertex {v}: G_z spectrum is not half-integer")
            for tn in np.unique(twice_n):
                out[int(tj), int(tn)] = w @ vecs[:, twice_n == tn]
        return out

    @staticmethod
    def weight(w: np.ndarray, rho: np.ndarray) -> float:
        """tr(W W^dagger rho)."""
        return float(np.real(np.sum(w.conj() * (rho @ w))))

    def singlet_weight(self, rho: np.ndarray, v: int) -> float:
        return self.weight(self.sectors[v][0, 0], rho)

    def gi_overlap(self, rho: np.ndarray) -> float:
        return sum(self.singlet_weight(rho, v) for v in range(N_EDGES)) / N_EDGES

    def syndromes(self, rho: np.ndarray, v: int) -> dict[str, float]:
        """p(J,M,N) = tr(P_{J,N} rho)/(2J+1), keyed "J,M,N" as the worker writes it."""
        out = {}
        for (tj, tn), w in self.sectors[v].items():
            p = self.weight(w, rho) / (tj + 1)
            for tm in range(-tj, tj + 1, 2):
                key = ",".join(str(Fraction(t, 2)) for t in (tj, tm, tn))
                out[key] = p
        return out


def min_eigenvalue(rho: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])


def hygiene_ok(rho: np.ndarray) -> bool:
    trace_dev = abs(np.trace(rho) - 1.0)
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    min_eig = min_eigenvalue(rho)
    trace_bound, herm_bound, eig_bound = HYGIENE_BOUNDS
    return trace_dev < trace_bound and herm_dev < herm_bound and min_eig >= eig_bound


def close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_TOL


class Reference:
    """Oracle values along one workload's trajectory, computed once per run."""

    def __init__(self, wl, dt: float):
        self.wl = wl
        self.dt = dt
        self.sectors = VertexSectors()
        self.steps = []
        for psi, rho in uncooled_trajectory(wl.noise, dt, wl.steps):
            row = {
                "fidelity": float(np.real(psi.conj() @ rho @ psi)),
                "gi_overlap": self.sectors.gi_overlap(rho),
            }
            if wl.via == "library":
                row["syndromes"] = [self.sectors.syndromes(rho, v) for v in range(N_EDGES)]
                row["min_eig"] = min_eigenvalue(rho)
            self.steps.append(row)
        self.final_psi = psi

    def check_cli(self, csv_text: str, final_rho: np.ndarray | None) -> set[int]:
        """Steps of a `gaugecool evolve` CSV that fail a check."""
        lines = csv_text.splitlines()
        bad = set(range(1, self.wl.steps + 1))
        if not lines or lines[0] != "step,time,fidelity,gi_overlap,sweeps_used":
            return bad
        try:  # a malformed row fails every step
            rows = [
                (int(step), float(time), float(fid), float(overlap), int(sweeps))
                for step, time, fid, overlap, sweeps in (line.split(",") for line in lines[1:])
            ]
        except ValueError:
            return bad
        if [r[0] for r in rows] != sorted(bad):
            return bad
        for k, time, fid, overlap, sweeps in rows:
            ok = close(time, k * self.dt)
            if self.wl.cool:
                # each step stops converged or at the sweep limit
                ok &= 0 <= sweeps <= MAX_SWEEPS
                ok &= overlap > 1.0 - TOL or sweeps == MAX_SWEEPS
                ok &= -VALUE_TOL <= fid <= 1.0 + VALUE_TOL
            else:
                ref = self.steps[k - 1]
                ok &= sweeps == 0
                ok &= close(fid, ref["fidelity"]) and close(overlap, ref["gi_overlap"])
            if k == self.wl.steps and self.wl.cool:
                ok &= final_rho is not None and self._final_cooled_ok(final_rho, fid, overlap)
            if ok:
                bad.discard(k)
        return bad

    def _final_cooled_ok(self, rho: np.ndarray, fid: float, overlap: float) -> bool:
        """Criterion 10 hygiene, unit singlet weight at the last-cooled vertex,
        the CSV values recomputed from the state, and criterion 9's margin."""
        psi = self.final_psi
        return (
            hygiene_ok(rho)
            and abs(self.sectors.singlet_weight(rho, N_EDGES - 1) - 1.0) < 1e-10
            and close(fid, float(np.real(psi.conj() @ rho @ psi)))
            and close(overlap, self.sectors.gi_overlap(rho))
            and fid - self.steps[-1]["fidelity"] > CRITERION_9_MARGIN
        )

    def check_audit(self, rows: list[dict]) -> set[int]:
        """Steps of the syndrome audit that fail a check."""
        bad = set(range(1, self.wl.steps + 1))
        if [r["step"] for r in rows] != sorted(bad):
            return bad
        for row, ref in zip(rows, self.steps):
            trace_dev, herm_dev, min_eig = row["hygiene"]
            ok = (
                close(row["fidelity"], ref["fidelity"])
                and close(row["gi_overlap"], ref["gi_overlap"])
                and trace_dev < HYGIENE_BOUNDS[0]
                and herm_dev < HYGIENE_BOUNDS[1]
                and close(min_eig, ref["min_eig"])
            )
            for got, want in zip(row["syndromes"], ref["syndromes"]):
                ok &= got.keys() == want.keys() and all(
                    close(got[key], want[key]) for key in want
                )
            if ok:
                bad.discard(row["step"])
        return bad
