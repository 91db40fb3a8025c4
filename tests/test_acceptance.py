"""Acceptance suite: the headline numerical claims, one line per criterion.

Each test prints exactly one ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output of a failure) and asserts the claim
at its stated tolerance.  Criteria 9 and 10 share one set of evolution runs,
built once per module.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from gaugecool.cooling import (
    cool_vertex,
    gi_overlap,
    iterative_cooling,
    syndrome_probabilities,
)
from gaugecool.dynamics import (
    NoiseSpec,
    TrotterConfig,
    apply_noise_all_edges,
    fidelity,
    hygiene,
    trotter_step,
    trotter_step_state,
)
from gaugecool.hamiltonian import (
    electric_hamiltonian,
    magnetic_hamiltonian,
    magnetic_plaquette_matrix,
)
from gaugecool.klaudit import (
    PAIR_KL_REFERENCE,
    convention_audit,
    coord4_cg_basis,
    edge_operator,
    kl_product,
    multiplicity_map,
    residual_pauli_weights,
)
from gaugecool.lattice import TOTAL_DIM, gauge_casimir, vacuum_state
from gaugecool.reference import (
    haar_mc_oracle,
    recovery_kraus,
    syndrome_operator,
)
from gaugecool.tdesign import (
    binary_octahedral_design,
    discrete_syndrome_check,
    qft_kernel_check,
    required_design_strength,
    truncated_qft,
    verify_tdesign,
)

RATES = (0.001, 0.005, 0.01)
NOISE_KINDS = ("depolarizing", "amplitude_damping")

# Reference per-sweep overlap-deficit trajectory (sweep 0 = before cooling).
SWEEP_TABLE_DEFICITS = (
    8.0e-3, 7.0e-3, 4.3e-3, 2.3e-3, 1.2e-3,
    5.5e-4, 2.5e-4, 1.2e-4, 5.2e-5, 2.3e-5, 1.0e-5,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def vacuum_density() -> np.ndarray:
    psi = vacuum_state()
    return np.outer(psi, psi.conj())


def test_criterion_01_reference_sweep_table():
    t0 = time.perf_counter()
    rho = trotter_step(vacuum_density(), TrotterConfig(g2=1.0, total_time=0.1, n_steps=1))
    rho = apply_noise_all_edges(rho, NoiseSpec("depolarizing", 0.005))
    _, rep = iterative_cooling(rho, tol=1e-5, max_sweeps=10)
    elapsed = time.perf_counter() - t0

    deficits = rep.deficits
    sweep0_ok = abs(rep.overlaps[0] - 0.992) <= 5e-4
    rel = [abs(d / ref - 1.0) for d, ref in zip(deficits[1:], SWEEP_TABLE_DEFICITS[1:])]
    ratios = [deficits[s] / deficits[s - 1] for s in range(3, 11)]
    ok = (
        len(deficits) == 11
        and sweep0_ok
        and max(rel) <= 0.10
        and all(0.35 <= r <= 0.55 for r in ratios)
        and elapsed < 60.0
    )
    report(
        1,
        "reference sweep table",
        ok,
        f"sweep-0 overlap {rep.overlaps[0]:.5f}, worst deficit mismatch "
        f"{max(rel):.1%}, ratios {min(ratios):.3f}..{max(ratios):.3f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_hamiltonian_validity():
    hb = magnetic_hamiltonian(1.0)
    he = electric_hamiltonian(1.0)
    herm = maxabs(hb - hb.conj().T)
    comm_b = max(maxabs(hb @ gauge_casimir(v) - gauge_casimir(v) @ hb) for v in range(4))
    comm_e = max(maxabs(he @ gauge_casimir(v) - gauge_casimir(v) @ he) for v in range(4))
    ok = herm < 1e-12 and comm_b < 1e-10 and comm_e < 1e-12
    report(
        2,
        "Hamiltonian validity",
        ok,
        f"Hermiticity {herm:.1e}, [H_B,C] {comm_b:.1e}, [H_E,C] {comm_e:.1e}",
    )


def test_criterion_03_monte_carlo_oracle():
    exact = magnetic_plaquette_matrix()
    dev1 = maxabs(haar_mc_oracle(100_000, np.random.default_rng(31415)) - exact)
    dev2 = maxabs(haar_mc_oracle(200_000, np.random.default_rng(31415)) - exact)
    ratio = dev1 / dev2
    ok = dev1 < 0.05 and 1.2 <= ratio <= 1.8
    report(
        3,
        "Monte-Carlo oracle",
        ok,
        f"1e5-sample deviation {dev1:.4f} (< 0.05), doubling shrink x{ratio:.2f}",
    )


def test_criterion_04_noiseless_gauge_preservation():
    cfg = TrotterConfig()
    psi = vacuum_state()
    worst = 0.0
    for _ in range(cfg.n_steps):
        psi = trotter_step_state(psi, cfg)
        worst = max(worst, abs(gi_overlap(np.outer(psi, psi.conj())) - 1.0))
    stacked = np.vstack([gauge_casimir(v) for v in range(4)])
    singular = np.linalg.svd(stacked, compute_uv=False)
    dim = int(np.sum(singular < 1e-10))
    gap = float(singular[TOTAL_DIM - dim - 1])
    ok = worst < 1e-12 and dim == 2 and gap > 1e-6
    report(
        4,
        "noiseless gauge preservation",
        ok,
        f"worst overlap deficit {worst:.1e} over 30 steps; "
        f"null space dim {dim} (smallest kept singular value {gap:.2f})",
    )


def test_criterion_05_detection_theorem():
    basis = coord4_cg_basis()
    p0 = basis.projector(0)
    p2 = basis.projector(2)
    w00 = w20 = 0.0
    for pauli in ("X", "Y", "Z"):
        for edge in range(4):
            err = edge_operator(pauli, edge)
            w00 = max(w00, maxabs(p0 @ err @ p0))
            w20 = max(w20, maxabs(p2 @ err @ p0))
    ok = w00 < 1e-12 and w20 < 1e-12
    report(
        5,
        "detection theorem",
        ok,
        f"12 Paulis: |P0 E P0| <= {w00:.1e}, |P2 E P0| <= {w20:.1e}",
    )


def test_criterion_06_recovery_bookkeeping_values():
    maps = [multiplicity_map(q, k) for q in (-1, 0, 1) for k in range(4)]
    maps += [multiplicity_map(p, k, 1) for p in ("X", "Y") for k in range(4)]
    prop = max(
        maxabs(kl_product(a, a) - kl_product(a, a)[0, 0] * np.eye(2)) for a in maps
    )
    pair = maxabs(
        kl_product(multiplicity_map("Z", 0), multiplicity_map("Z", 1)) - PAIR_KL_REFERENCE
    )
    conv = convention_audit()
    expected_rows = (
        (1.00, 0.0, 0.0, 0.0),
        (0.20, 0.0, 0.0, 0.80),
        (0.20, 0.60, 0.0, 0.20),
        (0.20, 0.60, 0.0, 0.20),
    )
    table = residual_pauli_weights()
    row_dev = max(
        abs(got - want)
        for row, wants in zip(table.rows, expected_rows)
        for got, want in zip(row[1:], wants)
    )
    y_dev = max(row[3] for row in table.rows)
    ok = (
        prop < 1e-10
        and pair < 1e-10
        and conv.matches_reference
        and row_dev <= 0.01
        and y_dev < 1e-10
    )
    report(
        6,
        "recovery bookkeeping values",
        ok,
        f"A^dag A proportionality {prop:.1e}; pair product dev {pair:.1e} "
        f"(convention: permutation {conv.permutation}, signs {conv.signs}); "
        f"residual table dev {row_dev:.4f}, Y weight {y_dev:.1e}",
    )


def test_criterion_07_syndrome_algebra():
    rng = np.random.default_rng(20260817)
    m_spread = prob_sum_dev = brute_dev = 0.0
    for _ in range(20):
        psi = rng.standard_normal(TOTAL_DIM) + 1j * rng.standard_normal(TOTAL_DIM)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        for v in range(4):
            probs = syndrome_probabilities(rho, v)
            prob_sum_dev = max(prob_sum_dev, abs(sum(probs.values()) - 1.0))
            by_jn: dict = {}
            for s, p in probs.items():
                by_jn.setdefault((s.j, s.n), []).append(p)
                direct = np.linalg.norm(syndrome_operator(v, s.j, s.m, s.n) @ psi) ** 2
                brute_dev = max(brute_dev, abs(p - direct))
            for vals in by_jn.values():
                m_spread = max(m_spread, max(vals) - min(vals))
    complete_dev = 0.0
    idem_dev = 0.0
    densities = []
    for _ in range(2):
        a = rng.standard_normal((TOTAL_DIM, 6)) + 1j * rng.standard_normal((TOTAL_DIM, 6))
        rho = a @ a.conj().T
        densities.append(rho / np.trace(rho).real)
    for v in range(4):
        channel = recovery_kraus(v)
        total = sum(k.conj().T @ k for k in channel.operators)
        complete_dev = max(complete_dev, maxabs(total - np.eye(TOTAL_DIM)))
        for rho in densities:
            once = cool_vertex(rho, v)
            idem_dev = max(idem_dev, maxabs(cool_vertex(once, v) - once))
    ok = (
        m_spread < 1e-12
        and prob_sum_dev < 1e-10
        and brute_dev < 1e-10
        and complete_dev < 1e-10
        and idem_dev < 1e-10
    )
    report(
        7,
        "syndrome algebra",
        ok,
        f"M-independence {m_spread:.1e}, sum {prob_sum_dev:.1e}, "
        f"vs direct norms {brute_dev:.1e}; Kraus completeness {complete_dev:.1e}, "
        f"idempotence {idem_dev:.1e}",
    )


def test_criterion_08_design_and_qft_suite():
    design = binary_octahedral_design()
    dev3 = verify_tdesign(design, 3)
    dev4 = verify_tdesign(design, 4)
    syndrome = max(discrete_syndrome_check(design, v) for v in range(4))
    iso = kernel = 0.0
    for j_cut in (Fraction(1, 2), Fraction(1)):
        qft = truncated_qft(design, j_cut)
        iso = max(iso, maxabs(qft.w @ qft.w.conj().T - np.eye(qft.d_out)))
        kernel = max(kernel, qft_kernel_check(design, j_cut))
    strengths = (
        required_design_strength(2, 1, Fraction(1, 2)),
        required_design_strength(2, 1, 1),
    )
    ok = (
        dev3 < 1e-12
        and dev4 > 0.01
        and syndrome < 1e-10
        and iso < 1e-12
        and kernel < 1e-12
        and strengths == (3, 6)
    )
    report(
        8,
        "averaging-set / Fourier suite",
        ok,
        f"t=3 dev {dev3:.1e}, t=4 dev {dev4:.3f}, syndrome {syndrome:.1e}, "
        f"WW^dag {iso:.1e}, kernel {kernel:.1e}, strengths {strengths}",
    )


@pytest.fixture(scope="module")
def noise_sweep_runs():
    """Final fidelities for every (noise kind, rate, cooling) combination.

    Channel hygiene is recorded after every noise application and every
    cooling application of every run, so the last criterion can audit the
    exact states the fidelity comparison went through.
    """
    t0 = time.perf_counter()
    cfg = TrotterConfig()
    worst = {"trace": 0.0, "herm": 0.0, "min_eig": 0.0, "checks": 0}

    def note(rho):
        trace_dev, herm_dev, min_eig = hygiene(rho)
        worst["trace"] = max(worst["trace"], trace_dev)
        worst["herm"] = max(worst["herm"], herm_dev)
        worst["min_eig"] = min(worst["min_eig"], min_eig)
        worst["checks"] += 1

    finals = {}
    for kind in NOISE_KINDS:
        for rate in RATES:
            spec = NoiseSpec(kind, rate)
            for cooled in (False, True):
                psi = vacuum_state()
                rho = vacuum_density()
                for _ in range(cfg.n_steps):
                    psi = trotter_step_state(psi, cfg)
                    rho = trotter_step(rho, cfg)
                    rho = apply_noise_all_edges(rho, spec)
                    note(rho)
                    if cooled:
                        rho, _ = iterative_cooling(rho)
                        note(rho)
                finals[kind, rate, cooled] = fidelity(rho, psi)
    return finals, worst, time.perf_counter() - t0


def test_criterion_09_cooling_improves_fidelity(noise_sweep_runs):
    finals, _, elapsed = noise_sweep_runs
    margins = {
        (kind, rate): finals[kind, rate, True] - finals[kind, rate, False]
        for kind in NOISE_KINDS
        for rate in RATES
    }
    ok = (
        all(m >= 0.0 for m in margins.values())
        and all(margins[kind, 0.01] > 0.005 for kind in NOISE_KINDS)
        and elapsed < 600.0
    )
    summary = ", ".join(
        f"{kind}@{rate:g}: +{margins[kind, rate]:.4f}"
        for kind in NOISE_KINDS
        for rate in RATES
    )
    report(9, "cooling improves fidelity", ok, f"{summary}; {elapsed:.0f}s")


def test_criterion_10_channel_hygiene(noise_sweep_runs):
    _, worst, _ = noise_sweep_runs
    ok = (
        worst["trace"] < 1e-12
        and worst["herm"] < 1e-12
        and worst["min_eig"] >= -1e-8
    )
    report(
        10,
        "channel hygiene",
        ok,
        f"{worst['checks']} checks: trace dev {worst['trace']:.1e}, "
        f"Hermiticity dev {worst['herm']:.1e}, min eigenvalue {worst['min_eig']:.1e}",
    )
