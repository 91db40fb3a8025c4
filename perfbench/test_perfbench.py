"""Tests of the benchmark itself: tracer, oracle and the names it prints."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import END_TO_END, WORKLOADS, per_layer_metrics, span_names  # noqa: E402

from gaugecool import cooling, dynamics, lattice  # noqa: E402


class FakeClock:
    """Advances by one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_nested_spans():
    mod = types.ModuleType("fake")
    mod.leaf = lambda: None
    mod.outer = lambda: (mod.leaf(), mod.leaf())
    other = types.ModuleType("other")
    other.leaf_alias = mod.leaf
    tracer = Tracer(clock=FakeClock())
    tracer.wrap([mod, other], mod, "leaf", "leaf")
    tracer.wrap([mod], mod, "outer", "outer", new_step=True)
    mod.outer()
    other.leaf_alias()
    # clock readings: outer 1..6 with leaves 2..3 and 4..5; the alias 7..8
    outer, leaf1, leaf2, alias = tracer.spans
    assert (outer["start"], outer["end"]) == (1.0, 6.0)
    assert leaf1["parent"] == leaf2["parent"] == outer["id"]
    assert alias["parent"] is None
    assert [s["step"] for s in tracer.spans] == [1, 1, 1, 1]
    assert self_times(tracer.spans) == {"outer": (3.0, 1), "leaf": (3.0, 3)}


def test_tracer_restores_every_wrapped_attribute():
    modules = [m for k, m in sys.modules.items() if k.startswith("gaugecool.")]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    worker.install_tracer(tracer)
    assert cooling.cool_vertex is not before[modules.index(cooling)]["cool_vertex"]
    psi = lattice.vacuum_state()
    cooling.cooling_sweep(np.outer(psi, psi.conj()))
    tracer.restore()
    for module, saved in zip(modules, before):
        assert vars(module).keys() == saved.keys()
        for key, value in saved.items():
            assert vars(module)[key] is value, f"{module.__name__}.{key} not restored"
    sweep = next(s for s in tracer.spans if s["name"] == "cooling.cooling_sweep")
    children = [s for s in tracer.spans if s["parent"] == sweep["id"]]
    assert [s["name"] for s in children] == ["cooling.cool_vertex"] * 4
    assert set(self_times(tracer.spans)) <= set(span_names())


@pytest.mark.parametrize("noise", ["depolarizing", "amplitude_damping"])
def test_oracle_matches_program_on_two_steps(noise):
    cfg = dynamics.TrotterConfig(total_time=0.2, n_steps=2)
    spec = dynamics.NoiseSpec(noise, 0.01)
    psi = lattice.vacuum_state()
    rho = np.outer(psi, psi.conj())
    sectors = oracle.VertexSectors()
    for want_psi, want_rho in oracle.uncooled_trajectory(noise, cfg.dt, 2):
        psi = dynamics.trotter_step_state(psi, cfg)
        rho = dynamics.apply_noise_all_edges(dynamics.trotter_step(rho, cfg), spec)
        assert np.max(np.abs(psi - want_psi)) < 1e-12
        assert np.max(np.abs(rho - want_rho)) < 1e-12
        assert cooling.gi_overlap(rho) == pytest.approx(sectors.gi_overlap(want_rho), abs=1e-12)
    got = {f"{s.j},{s.m},{s.n}": p for s, p in cooling.syndrome_probabilities(rho, 0).items()}
    want = sectors.syndromes(want_rho, 0)
    assert got.keys() == want.keys()
    assert max(abs(got[k] - want[k]) for k in want) < 1e-12


def test_printed_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()

    timing = {"wall_s": 2.0, "setup_s": 1.0, "steps_s": 1.0, "peak_rss_kb": 1024,
              "import_s": 0.1}
    wl = WORKLOADS["cooled-depolarizing"]
    assert list(run.end_to_end(wl, [timing])) == [name for name, _ in END_TO_END]


def test_per_layer_names_match(tmp_path):
    prefix = tmp_path / "sample"
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "step": 0, "start": 0.0, "end": 3.0},
        {"id": 1, "name": "cooling.iterative_cooling", "parent": 0, "step": 1,
         "start": 1.0, "end": 2.0, "converged": False, "sweeps": 10},
    ]
    prefix.with_suffix(".spans.jsonl").write_text("".join(json.dumps(s) + "\n" for s in spans))
    timing = {"wall_s": 3.5, "import_s": 0.1}
    out = run.per_layer([{"wall_s": 3.0}], [(prefix, timing)])
    assert list(out) == [name for name, _ in per_layer_metrics()]
    assert out["cli.self.s"] == 2.0
    assert out["cooling.iterative_cooling.sweeps_per_call"] == 10.0
    assert out["trace.overhead_s"] == 0.5
