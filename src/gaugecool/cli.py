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

``evolve`` runs one loop for both ``--cool`` settings over rho held as
entries from the vacuum on (``cooling.Held``): each step is ``Held.step``
and, with cooling, ``Held.cool``, and hands a fresh dense rho
(``Held.dense``) to the ``fidelity`` and ``gi_overlap`` reads.  ``converge``
is the first step of a cooled ``evolve``, one row per sweep.  This module
keeps the flags and the I/O; the numerics live in the library.

``kl-audit`` imports ``klaudit`` inside its function, and ``check`` the
suites of ``reference`` (which import ``klaudit`` and ``tdesign`` inside
theirs), so an ``evolve`` or ``converge`` process never loads any of them.

All CSV output is deterministic: fixed header, 12 significant digits,
LF line endings, no timestamps.  Exit codes: 0 success, 1 check failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

import numpy as np

from .cooling import CoolingReport, Held, check_cooling_parameters, gi_overlap
from .dynamics import NoiseSpec, TrotterConfig, fidelity, trotter_step_state
from .lattice import vacuum_state

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
        check_cooling_parameters(self.tol, self.max_sweeps)

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


def cmd_evolve(cfg: RunConfig) -> int:
    """Trotter steps with noise after each one; cooling if requested.

    The noiseless reference state is advanced in parallel so the fidelity
    column always compares against the ideal trajectory at the same time.
    rho is held as entries from the vacuum on (``Held.vacuum``), and each
    step reads a fresh dense rho.
    """
    trotter = TrotterConfig(g2=cfg.g2, total_time=cfg.total_time, n_steps=cfg.n_steps)
    noise = cfg.noise_spec()
    psi, held = vacuum_state(), Held.vacuum(cfg.cool)
    rows, reports, sweeps = [], [], 0
    for step in range(1, cfg.n_steps + 1):
        psi = trotter_step_state(psi, trotter)
        held = held.step(trotter, noise)
        if cfg.cool:
            held, report = held.cool(cfg.tol, cfg.max_sweeps)
            reports.append(report)
            sweeps = report.sweeps_used
        rho = held.dense()  # fresh: a reader may keep it
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
    the setting the reference per-sweep overlap table was produced with.  The
    step is a cooled `evolve`'s first.
    """
    trotter = TrotterConfig(g2=cfg.g2, total_time=0.1, n_steps=1)
    _, report = Held.vacuum(True).step(trotter, cfg.noise_spec()).cool(cfg.tol, cfg.max_sweeps)
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


_SUITES = ("hamiltonian", "tdesign", "qft", "detection", "all")


def cmd_check(suite: str, seed: int, design_file: str | None) -> int:
    """One line per check of the suite, then a summary; exit 1 if any fails."""
    from .reference import detection_checks, hamiltonian_checks, qft_checks, tdesign_checks

    checks: list[tuple[str, float, float]] = []
    if suite in ("hamiltonian", "all"):
        checks += hamiltonian_checks(seed)
    if suite in ("tdesign", "all"):
        checks += tdesign_checks(design_file)
    if suite in ("qft", "all"):
        checks += qft_checks(design_file)
    if suite in ("detection", "all"):
        checks += detection_checks()
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
