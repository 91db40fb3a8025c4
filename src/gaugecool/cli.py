"""Command-line front end: evolution runs, convergence studies, and checks.

Four subcommands:

* ``evolve``   -- noisy Trotter evolution with optional per-step cooling,
  one CSV row per step (fidelity against the ideal trajectory).
* ``converge`` -- a single noisy step followed by cooling sweeps, one CSV
  row per sweep (gauge-invariant overlap and its deficit).
* ``kl-audit`` -- the error-detection / recovery bookkeeping tables as a
  section-tagged CSV.
* ``check``    -- invariant suites with a pass/fail report per line;
  exit 0 iff everything passes.

``evolve`` runs one loop for both ``--cool`` settings.  rho is held as an
entry vector, positions plus values, from the vacuum on; each step runs the
Trotter kernel on the class pairs the held entries touch, the edge noise on
the entries it can write, and, with cooling, the sweeps onto the settled
pattern (``cooling._cooled``).  The maps of each pattern are derived once
per process and cached (at most 8 patterns a cache).  Each step hands a
fresh dense rho to the ``fidelity`` and ``gi_overlap`` reads.  ``converge``
is the first step of a cooled ``evolve``, one row per sweep.

``kl-audit`` and ``check`` import ``klaudit`` and ``tdesign`` inside their
functions, so an ``evolve`` or ``converge`` process never loads them.

All CSV output is deterministic: fixed header, 12 significant digits,
LF line endings, no timestamps.  Exit codes: 0 success, 1 check failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cooling import CoolingReport, _check_cooling_parameters, _cooled, _settled, gi_overlap
from .dynamics import (
    NoiseSpec,
    TrotterConfig,
    _class_pairs,
    _noise_closure,
    _packed_edge_maps,
    _packed_noise,
    _pair_trotter,
    fidelity,
    trotter_step_state,
)
from .hamiltonian import (
    electric_hamiltonian,
    haar_mc_oracle,
    magnetic_hamiltonian,
    magnetic_plaquette_matrix,
)
from .lattice import TOTAL_DIM, charge_classes, gauge_casimir, vacuum_state

__all__ = ["RunConfig", "main", "build_parser"]

_NOISE_FLAGS = {"depolarizing": "depolarizing", "amplitude-damping": "amplitude_damping"}


@dataclass(frozen=True)
class RunConfig:
    """Flags of an evolution/convergence run, with the reference defaults."""

    noise: str = "depolarizing"
    rate: float = 0.005
    g2: float = 1.0
    total_time: float = 3.0
    n_steps: int = 30
    cool: bool = False
    tol: float = 1e-5
    max_sweeps: int = 10
    out: str | None = None

    def __post_init__(self):
        if self.noise not in _NOISE_FLAGS:
            raise ValueError(f"noise must be one of {sorted(_NOISE_FLAGS)}")
        _check_cooling_parameters(self.tol, self.max_sweeps)

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(_NOISE_FLAGS[self.noise], self.rate)


def _fmt(x: float) -> str:
    """12 significant digits, '.' decimal separator."""
    return f"{float(x):.12g}"


def _write_csv(path: str | None, header: str, rows: list[str]) -> None:
    text = "\n".join([header, *rows]) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _warn_unconverged(reports: list[CoolingReport], tol: float) -> None:
    """One stderr line if any cooling run stopped at its sweep budget."""
    stuck = [r for r in reports if not r.converged]
    if stuck:
        worst = max(r.final_deficit for r in stuck)
        print(
            f"warning: cooling did not converge in {len(stuck)} of {len(reports)} runs; "
            f"worst final deficit {worst:.6g} > tol {tol:g}",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# evolve / converge


@lru_cache(maxsize=8)
def _step_maps(pattern: bytes):
    """The maps of a step of rho held on ``pattern``, its sorted flat entries
    as bytes: the class pairs the entries touch (``dynamics._class_pairs``),
    each block entry's place in the held vector (its trailing zero where
    none), the pattern the noise writes (the blocks' ``_noise_closure``), the
    blocks' places in it and its noise maps."""
    positions = np.frombuffer(pattern, dtype=int)
    pairs = _class_pairs(positions)
    at = np.searchsorted(positions, pairs.positions).clip(max=len(positions) - 1)
    gather = np.where(positions[at] == pairs.positions, at, len(positions))
    noisy = _noise_closure(pairs.positions)
    place = np.searchsorted(noisy, pairs.positions)
    return pairs, gather, noisy.tobytes(), place, _packed_edge_maps(noisy)


def _noisy_step(pattern: bytes, x: np.ndarray, trotter: TrotterConfig, noise: NoiseSpec):
    """A Trotter step and edge noise of rho held as the entry vector x on
    ``pattern``, with the dense steps' bits: the pattern the noise writes,
    and rho's entry vector there."""
    pairs, gather, noisy, place, edges = _step_maps(pattern)
    stepped = np.zeros(len(edges[0][0]), dtype=complex)  # one pair index per noisy entry
    stepped.put(place, _pair_trotter(x.take(gather), pairs, trotter.g2, trotter.dt))
    return noisy, np.append(_packed_noise(stepped, edges, noise), 0)


def _vacuum_entries(pattern: bytes) -> np.ndarray:
    """|0><0| held as an entry vector on ``pattern``, which holds entry 0."""
    return np.append(np.frombuffer(pattern, dtype=int) == 0, 0).astype(complex)


def cmd_evolve(cfg: RunConfig) -> int:
    """Trotter steps with noise after each one; cooling if requested.

    The noiseless reference state is advanced in parallel so the fidelity
    column always compares against the ideal trajectory at the same time.
    rho is held as an entry vector from the vacuum on: on the class-diagonal
    entries (``lattice.charge_classes``) without cooling, which both steps
    keep, and on the settled pattern (``cooling._settled``) with it.  A step
    runs on the entries the last one wrote; a cooled step that needs no sweep
    stays on its noisy pattern.
    """
    trotter = TrotterConfig(g2=cfg.g2, total_time=cfg.total_time, n_steps=cfg.n_steps)
    noise = cfg.noise_spec()
    psi = vacuum_state()
    pattern = (_settled().positions if cfg.cool else np.sort(charge_classes().positions)).tobytes()
    x = _vacuum_entries(pattern)
    rows, reports, sweeps = [], [], 0
    for step in range(1, cfg.n_steps + 1):
        psi = trotter_step_state(psi, trotter)
        pattern, x = _noisy_step(pattern, x, trotter, noise)
        if cfg.cool:
            pattern, x, report = _cooled(pattern, x, cfg.tol, cfg.max_sweeps)
            reports.append(report)
            sweeps = report.sweeps_used
        rho = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)  # fresh: a reader may keep it
        rho.reshape(-1)[np.frombuffer(pattern, dtype=int)] = x[:-1]
        rows.append(
            f"{step},{_fmt(step * trotter.dt)},{_fmt(fidelity(rho, psi))},"
            f"{_fmt(gi_overlap(rho))},{sweeps}"
        )
    _write_csv(cfg.out, "step,time,fidelity,gi_overlap,sweeps_used", rows)
    _warn_unconverged(reports, cfg.tol)
    return 0


def cmd_converge(cfg: RunConfig) -> int:
    """One noisy Trotter step, then cooling sweeps; one row per sweep.

    Sweep 0 is the state before any cooling.  The step size is fixed at 0.1,
    the setting the reference per-sweep overlap table was produced with.  rho
    is held as an entry vector from the vacuum on the settled pattern, as in
    a cooled `evolve`, and takes that loop's first step.
    """
    trotter = TrotterConfig(g2=cfg.g2, total_time=0.1, n_steps=1)
    pattern = _settled().positions.tobytes()
    pattern, x = _noisy_step(pattern, _vacuum_entries(pattern), trotter, cfg.noise_spec())
    _, _, report = _cooled(pattern, x, cfg.tol, cfg.max_sweeps)
    rows = [
        f"{sweep},{_fmt(overlap)},{_fmt(1.0 - overlap)}"
        for sweep, overlap in enumerate(report.overlaps)
    ]
    _write_csv(cfg.out, "sweep,gi_overlap,deficit", rows)
    _warn_unconverged([report], cfg.tol)
    return 0


# ---------------------------------------------------------------------------
# kl-audit


def cmd_kl_audit(out: str | None) -> int:
    """Section-tagged CSV: detection norms, pair products, residual weights."""
    from .klaudit import detection_check, kl_product, multiplicity_map, residual_pauli_weights

    rows = []
    for pauli in ("X", "Y", "Z"):
        for edge in range(4):
            rows.append(f"detection,{pauli}_{edge},{_fmt(detection_check(pauli, edge))},,,")
    for a, b in ((0, 1), (2, 3)):
        prod = kl_product(multiplicity_map("Z", a), multiplicity_map("Z", b))
        flat = np.real_if_close(prod, tol=1e3).astype(float).ravel()
        rows.append(f"kl,Z{a}-Z{b}," + ",".join(_fmt(v) for v in flat))
    table = residual_pauli_weights(reference_edge=0, m_target=0)
    for label, *weights in table.rows:
        rows.append(f"residual,{label}," + ",".join(_fmt(w) for w in weights))
    _write_csv(out, "section,label,v1,v2,v3,v4", rows)
    return 0


# ---------------------------------------------------------------------------
# check suites


def _suite_hamiltonian(seed: int) -> list[tuple[str, float, float]]:
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


def _suite_tdesign(design_file: str | None) -> list[tuple[str, float, float]]:
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


def _suite_qft(design_file: str | None) -> list[tuple[str, float, float]]:
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


def _suite_detection() -> list[tuple[str, float, float]]:
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


_SUITES = ("hamiltonian", "tdesign", "qft", "detection", "all")


def cmd_check(suite: str, seed: int, design_file: str | None) -> int:
    checks: list[tuple[str, float, float]] = []
    if suite in ("hamiltonian", "all"):
        checks += _suite_hamiltonian(seed)
    if suite in ("tdesign", "all"):
        checks += _suite_tdesign(design_file)
    if suite in ("qft", "all"):
        checks += _suite_qft(design_file)
    if suite in ("detection", "all"):
        checks += _suite_detection()
    failures = 0
    for name, value, tol in checks:
        ok = value <= tol
        failures += not ok
        print(f"[{'pass' if ok else 'FAIL'}] {name:<58s} dev {value:11.4e}  tol {tol:.1e}")
    print(f"{suite}: {len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_run_flags(p: argparse.ArgumentParser, evolve: bool) -> None:
    d = RunConfig()  # the defaults
    p.add_argument("--noise", choices=sorted(_NOISE_FLAGS), default=d.noise)
    p.add_argument("--rate", type=float, default=d.rate, help="per-edge per-step noise rate")
    p.add_argument("--g2", type=float, default=d.g2, help="gauge coupling squared")
    if evolve:
        p.add_argument("--time", type=float, default=d.total_time, dest="total_time",
                       help="total evolution time")
        p.add_argument("--steps", type=int, default=d.n_steps, dest="n_steps",
                       help="number of Trotter steps")
        p.add_argument("--cool", choices=("on", "off"), default="on" if d.cool else "off",
                       help="run cooling sweeps after the noise on every step")
    p.add_argument("--tol", type=float, default=d.tol,
                   help="stop cooling once the overlap deficit is below this")
    p.add_argument("--max-sweeps", type=int, default=d.max_sweeps)
    p.add_argument("--out", default=d.out, help="CSV output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugecool",
        description="Single-plaquette gauge dynamics with syndrome-based cooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="noisy Trotter evolution, CSV per step")
    _add_run_flags(evolve, evolve=True)

    converge = sub.add_parser("converge", help="cooling sweeps after one noisy step")
    _add_run_flags(converge, evolve=False)

    kl = sub.add_parser("kl-audit", help="detection / recovery bookkeeping tables")
    kl.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    check = sub.add_parser("check", help="run an invariant suite, exit 0 iff it passes")
    check.add_argument("suite", choices=_SUITES)
    check.add_argument("--seed", type=int, default=0,
                       help="seed of the Monte-Carlo comparison (hamiltonian suite)")
    check.add_argument("--design-file", default=None,
                       help="averaging set to audit instead of the built-in one")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the flags given; flags a subcommand lacks keep their defaults."""
    given = vars(args)
    flags = {f.name: given[f.name] for f in fields(RunConfig) if f.name in given}
    if "cool" in flags:
        flags["cool"] = flags["cool"] == "on"
    return RunConfig(**flags)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "evolve":
            return cmd_evolve(_run_config(args))
        if args.command == "converge":
            return cmd_converge(_run_config(args))
        if args.command == "kl-audit":
            return cmd_kl_audit(args.out)
        return cmd_check(args.suite, args.seed, args.design_file)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
