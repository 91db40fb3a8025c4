"""One benchmark sample: a fresh process that sets gaugecool up and runs a workload.

    python3 worker.py WORKLOAD PREFIX MODE

The runner starts it with ``src`` on PYTHONPATH and the BLAS thread count
pinned.  It times the import of gaugecool and the calls that fill the lazy
caches the workload uses (set-up), then the workload's Trotter steps.
MODE is 0 (untraced), 1 (traced) or ``warmup`` (set-up only, no output).
It writes:

* ``PREFIX.csv``        -- the `gaugecool evolve` output (cli workloads);
* ``PREFIX.audit.json`` -- per-step syndrome, overlap, fidelity and hygiene
                           values (audit workload);
* ``PREFIX.rho.npy``    -- the final state of a cooled run, for the method
                           checks;
* ``PREFIX.spans.jsonl``-- the spans, when MODE is 1;
* ``PREFIX.json``       -- timings, peak RSS and the exit code.

Everything after the last workload output is written outside the timings.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import G2, RATE, TRACED, WORKLOADS  # noqa: E402


def install_tracer(tracer: Tracer) -> None:
    """Wrap every traced public function at all gaugecool module attributes."""
    modules = [m for k, m in sys.modules.items() if k.startswith("gaugecool.")]
    for module_name, func in TRACED:
        owner = sys.modules[f"gaugecool.{module_name}"]
        name: object = f"{module_name}.{func}"
        annotate = None
        if func == "apply_noise_all_edges":
            name = lambda rho, spec: f"dynamics.apply_noise_all_edges.{spec.kind}"  # noqa: E731
        if func == "iterative_cooling":
            annotate = lambda res: {"converged": res[1].converged,  # noqa: E731
                                    "sweeps": res[1].sweeps_used}
        # trotter_step_state opens every step, in the CLI loop and in audit_run.
        tracer.wrap(modules, owner, func, name, new_step=func == "trotter_step_state",
                    annotate=annotate)


def peak_rss_kb_now() -> int:
    """VmHWM of this process image.  ru_maxrss would also count the image the
    process was forked from, which is the runner's."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def trotter_config(wl):
    from gaugecool.dynamics import TrotterConfig

    return TrotterConfig(g2=G2, total_time=float(wl.total_time), n_steps=wl.steps)


def vacuum_density():
    import numpy as np
    from gaugecool.lattice import vacuum_state

    psi = vacuum_state()
    return np.outer(psi, psi.conj())


def fill_caches(wl) -> None:
    """First calls that fill each lazy cache the workload's steps use."""
    from gaugecool import cooling, dynamics, lattice

    dynamics.trotter_unitary(G2, trotter_config(wl).dt)
    for v in range(4):
        lattice.singlet_projector(v)  # builds the vertex CG basis too
    if wl.cool:
        rho = vacuum_density()
        for v in range(4):
            cooling.cool_vertex(rho, v)


def audit_run(wl, out: Path) -> None:
    """The uncooled trajectory through the library, reading every syndrome."""
    from gaugecool import cooling, dynamics, lattice

    cfg = trotter_config(wl)
    spec = dynamics.NoiseSpec(wl.noise, RATE)
    psi = lattice.vacuum_state()
    rho = vacuum_density()
    rows = []
    for step in range(1, wl.steps + 1):
        psi = dynamics.trotter_step_state(psi, cfg)
        rho = dynamics.trotter_step(rho, cfg)
        rho = dynamics.apply_noise_all_edges(rho, spec)
        syndromes = [
            {f"{s.j},{s.m},{s.n}": p for s, p in cooling.syndrome_probabilities(rho, v).items()}
            for v in range(4)
        ]
        rows.append({
            "step": step,
            "syndromes": syndromes,
            "gi_overlap": cooling.gi_overlap(rho),
            "fidelity": dynamics.fidelity(rho, psi),
            "hygiene": list(dynamics.hygiene(rho)),
        })
    out.write_text(json.dumps(rows))


def main(argv: list[str]) -> int:
    wl = WORKLOADS[argv[1]]
    prefix = Path(argv[2])
    mode = argv[3]
    tracer = Tracer() if mode == "1" else None

    t0 = time.perf_counter()
    import gaugecool.cli

    import_s = time.perf_counter() - t0
    if tracer is not None:
        install_tracer(tracer)
    captured = {}
    if wl.cool:
        # The CLI keeps its state to itself; keep a reference to the last
        # state it measures so the method checks can read it afterwards.
        measure = gaugecool.cli.gi_overlap

        def keep_state(rho):
            captured["rho"] = rho
            return measure(rho)

        gaugecool.cli.gi_overlap = keep_state

    t1 = time.perf_counter()
    fill_caches(wl)
    setup_s = import_s + time.perf_counter() - t1
    if mode == "warmup":
        return 0

    t2 = time.perf_counter()
    code = 0
    if wl.via == "cli":
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        with span:
            code = gaugecool.cli.main(wl.cli_argv(f"{prefix}.csv"))
    else:
        audit_run(wl, Path(f"{prefix}.audit.json"))
    steps_s = time.perf_counter() - t2
    t_done = time.monotonic()
    peak_rss_kb = peak_rss_kb_now()

    if wl.cool:
        gaugecool.cli.gi_overlap = measure
        if "rho" in captured:
            import numpy as np

            np.save(f"{prefix}.rho.npy", captured["rho"])
    if tracer is not None:
        tracer.restore()
        with open(f"{prefix}.spans.jsonl", "w", encoding="ascii") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
    Path(f"{prefix}.json").write_text(json.dumps({
        "exit": code,
        "t_done": t_done,
        "import_s": import_s,
        "setup_s": setup_s,
        "steps_s": steps_s,
        "peak_rss_kb": peak_rss_kb,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
