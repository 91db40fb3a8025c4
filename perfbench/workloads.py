"""Workloads and metric names of the plaquette benchmark.

Standard library only: the sample process imports this module before it
starts timing the import of numpy and gaugecool.

Every workload is one fixed noisy trajectory from the vacuum at coupling
g2 = 1, step dt = 0.1 and noise rate 0.01 (the `evolve` defaults, with the
rate of criterion 9).  A workload's inputs do not depend on the seed; the
runner records the seed and uses it for nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

G2 = 1.0
DT = 0.1
RATE = 0.01
TOL = 1e-5
MAX_SWEEPS = 10


@dataclass(frozen=True)
class Workload:
    """One sample process: set-up, then `steps` noisy Trotter steps."""

    name: str
    why: str
    noise: str  # "depolarizing" or "amplitude_damping"
    cool: bool
    steps: int
    via: str  # "cli": `gaugecool evolve`; "library": the step loop with syndrome reads

    @property
    def total_time(self) -> str:
        # A decimal string whose float divided by `steps` is exactly DT, so the
        # sample runs the first `steps` steps of the default 30-step trajectory.
        return f"{self.steps * DT:.10g}"

    def cli_argv(self, out: str) -> list[str]:
        return [
            "evolve",
            "--noise", self.noise.replace("_", "-"),
            "--rate", str(RATE),
            "--cool", "on" if self.cool else "off",
            "--steps", str(self.steps),
            "--time", self.total_time,
            "--out", out,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cooled-depolarizing",
            "Headline cooled run: cool_vertex does ~93% of each step, no damping, "
            "and every step uses all 10 sweeps, so the work per step is fixed.",
            "depolarizing", True, 2, "cli",
        ),
        Workload(
            "damped-syndrome-audit",
            "Noise and read paths without recovery: amplitude damping (~20%) then "
            "syndrome_probabilities at all four vertices (~75%) after each uncooled step.",
            "amplitude_damping", False, 1, "library",
        ),
    )
}

# (name, unit) of the metrics printed by an untraced run.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Spans the traced run records: (module, public function).  Self seconds and
# call counts of each are reported; apply_noise_all_edges is split by kind.
TRACED = (
    ("hamiltonian", "magnetic_plaquette_matrix"),
    ("lattice", "build_cg_basis"),
    ("lattice", "singlet_projector"),
    ("dynamics", "trotter_unitary"),
    ("dynamics", "trotter_step"),
    ("dynamics", "trotter_step_state"),
    ("dynamics", "apply_noise_all_edges"),
    ("dynamics", "fidelity"),
    ("dynamics", "hygiene"),
    ("cooling", "iterative_cooling"),
    ("cooling", "cooling_sweep"),
    ("cooling", "cool_vertex"),
    ("cooling", "gi_overlap"),
    ("cooling", "syndrome_probabilities"),
)

NOISE_KINDS = ("depolarizing", "amplitude_damping")


def span_names() -> list[str]:
    names = []
    for module, func in TRACED:
        if func == "apply_noise_all_edges":
            names += [f"{module}.{func}.{kind}" for kind in NOISE_KINDS]
        else:
            names.append(f"{module}.{func}")
    return names


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of the metrics printed by a traced run."""
    out = [("startup.import.s", "s"), ("cli.self.s", "s")]
    for name in span_names():
        out += [(f"{name}.s", "s"), (f"{name}.calls", "count")]
    out += [
        ("cooling.iterative_cooling.converged_share", "ratio"),
        ("cooling.iterative_cooling.sweeps_per_call", "sweeps/call"),
        ("trace.overhead_s", "s"),
    ]
    return out
