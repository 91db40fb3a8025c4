"""End-to-end tests of the command-line interface."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gaugecool import cli, cooling, lattice
from gaugecool.cli import RunConfig, build_parser, main
from gaugecool.cooling import cooling_sweep, gi_overlap, iterative_cooling
from gaugecool.dynamics import (
    NoiseSpec,
    TrotterConfig,
    apply_noise_all_edges,
    hygiene,
    trotter_step,
)
from gaugecool.lattice import TOTAL_DIM, charge_classes, vacuum_state

# the package source first on the path of a child interpreter, as pytest's
# pythonpath setting does for this process
SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
}


def run_csv(tmp_path, name, argv):
    """Invoke main() writing to a temp file; return (exit code, header, rows)."""
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return code, lines[0], rows


def test_parser_defaults():
    args = build_parser().parse_args(["evolve"])
    assert args.noise == "depolarizing"
    assert args.rate == 0.005
    assert args.g2 == 1.0
    assert args.total_time == 3.0
    assert args.n_steps == 30
    assert args.cool == "off"
    assert args.tol == 1e-5
    assert args.max_sweeps == 10
    assert args.out is None


def test_evolve_noiseless_is_exact(tmp_path):
    code, header, rows = run_csv(
        tmp_path, "ev.csv", ["evolve", "--rate", "0", "--steps", "5"]
    )
    assert code == 0
    assert header == "step,time,fidelity,gi_overlap,sweeps_used"
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
    assert [float(r[1]) for r in rows] == pytest.approx([0.6, 1.2, 1.8, 2.4, 3.0])
    for r in rows:
        assert float(r[2]) == pytest.approx(1.0, abs=1e-10)
        assert float(r[3]) == pytest.approx(1.0, abs=1e-10)
        assert int(r[4]) == 0


def test_evolve_cooling_beats_uncooled(tmp_path):
    # Shortened horizon; the full 30-step comparison runs in the acceptance
    # suite at every rate.
    flags = ["evolve", "--rate", "0.01", "--steps", "8"]
    _, _, plain = run_csv(tmp_path, "plain.csv", flags)
    _, _, cooled = run_csv(tmp_path, "cooled.csv", [*flags, "--cool", "on"])
    assert float(cooled[-1][2]) > float(plain[-1][2])
    # Uncooled runs never sweep; cooled runs report how many sweeps they used.
    assert all(int(r[4]) == 0 for r in plain)
    assert all(int(r[4]) >= 1 for r in cooled)


def test_evolve_cooled_overlap_meets_tolerance(tmp_path):
    # The stopping criterion guarantees the overlap deficit is below tol
    # whenever the sweep budget does not bind; 14 sweeps give it headroom.
    _, _, rows = run_csv(
        tmp_path,
        "ev.csv",
        ["evolve", "--rate", "0.01", "--steps", "6", "--cool", "on", "--max-sweeps", "14"],
    )
    for r in rows:
        assert float(r[3]) >= 1.0 - 1e-5


def test_converge_matches_reference_sweep_table(tmp_path):
    code, header, rows = run_csv(tmp_path, "conv.csv", ["converge"])
    assert code == 0
    assert header == "sweep,gi_overlap,deficit"
    assert [int(r[0]) for r in rows] == list(range(11))
    assert float(rows[0][1]) == pytest.approx(0.992, abs=0.002)
    assert float(rows[5][2]) == pytest.approx(5.5e-4, rel=0.20)
    assert float(rows[10][2]) == pytest.approx(1.0e-5, rel=0.30)
    for r in rows:
        assert float(r[1]) + float(r[2]) == pytest.approx(1.0, abs=1e-12)


def test_converge_amplitude_damping_converges_too(tmp_path):
    _, _, rows = run_csv(
        tmp_path,
        "conv.csv",
        ["converge", "--noise", "amplitude-damping", "--rate", "0.01", "--max-sweeps", "6"],
    )
    deficits = [float(r[2]) for r in rows]
    assert deficits[-1] < deficits[0]
    assert all(b < a for a, b in zip(deficits, deficits[1:]))


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("converge.csv", ["converge"]),
        (
            "evolve_cooled.csv",
            ["evolve", "--rate", "0.01", "--cool", "on", "--steps", "4", "--time", "0.4"],
        ),
        (
            "evolve_damping_cooled.csv",
            ["evolve", "--noise", "amplitude-damping", "--rate", "0.01", "--cool", "on",
             "--steps", "3", "--time", "0.3"],
        ),
        ("kl_audit.csv", ["kl-audit"]),
        ("evolve_uncooled.csv", ["evolve", "--rate", "0.01"]),
        (
            "evolve_damping_uncooled.csv",
            ["evolve", "--noise", "amplitude-damping", "--rate", "0.01", "--cool", "off",
             "--steps", "6", "--time", "0.6"],
        ),
    ],
)
def test_csv_matches_golden_file(tmp_path, name, argv):
    # A change that moves a last digit updates the file and names the digit in CHANGES.md.
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_csv_byte_identical_across_processes(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "gaugecool.cli", "converge",
             "--max-sweeps", "2", "--out", str(out)],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].endswith(b"\n")
    assert b"\r" not in outs[0]


def test_cli_import_loads_no_scipy():
    """scipy is a test-only extra: importing it would cost more than the CLI."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gaugecool.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_evolve_and_converge_load_no_audit_module():
    """klaudit and tdesign serve only kl-audit and check; a run does not pay
    for compiling them."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys, gaugecool.cli as cli; "
         "cli.main(['evolve', '--cool', 'on', '--steps', '2', '--time', '0.2', "
         "'--out', os.devnull]); "
         "cli.main(['converge', '--max-sweeps', '2', '--out', os.devnull]); "
         "print(sorted({'gaugecool.klaudit', 'gaugecool.tdesign'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_set_up_and_a_cooled_step_load_no_numpy_ma():
    """numpy imports numpy.ma lazily, on the first np.unique call; it costs a
    process more than a cooled step.  No held pattern's maps need it: not a
    cooled step's, an uncooled one's, or the four of a cooled run without
    sweeps."""
    runs = [["--cool", "on", "--steps", "1", "--time", "0.1"],
            ["--cool", "off", "--steps", "2", "--time", "0.2"],
            ["--cool", "on", "--rate", "0", "--steps", "4", "--time", "0.4"]]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys, gaugecool.cli as cli; "
         "from gaugecool.dynamics import trotter_unitary; "
         "trotter_unitary(1.0, 0.1); "
         f"[cli.main(['evolve', *argv, '--out', os.devnull]) for argv in {runs!r}]; "
         "print('numpy.ma' in sys.modules)"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_THREAD_PROBE = """
import json, os, threading, time
import numpy as np
from gaugecool import cli, cooling, dynamics, lattice


def others():
    \"\"\"(voluntary switches, nonvoluntary switches, utime + stime) of every
    thread of this process but this one.\"\"\"
    me, counts = str(threading.get_native_id()), {}
    for tid in os.listdir("/proc/self/task"):
        if tid != me:
            with open(f"/proc/self/task/{tid}/status") as fh:
                status = dict(line.split(":", 1) for line in fh)
            with open(f"/proc/self/task/{tid}/stat") as fh:
                ticks = fh.read().rsplit(")", 1)[1].split()[11:13]
            counts[tid] = (int(status["voluntary_ctxt_switches"]),
                           int(status["nonvoluntary_ctxt_switches"]), sum(map(int, ticks)))
    return counts


def settled():
    \"\"\"The counts once three reads 100 ms apart agree: OpenBLAS's worker
    spins for a while after numpy's import, then sleeps.\"\"\"
    reads = [others()]
    for _ in range(100):
        time.sleep(0.1)
        reads.append(others())
        if reads[-3:] == [reads[-1]] * 3:
            return reads[-1]
    raise SystemExit(f"the other threads never settled: {reads[-3:]}")


def audit_step():
    cfg = dynamics.TrotterConfig(1.0, 0.1, 1)
    psi = dynamics.trotter_step_state(lattice.vacuum_state(), cfg)
    rho = np.zeros((lattice.TOTAL_DIM,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    rho = dynamics.apply_noise_all_edges(dynamics.trotter_step(rho, cfg),
                                         dynamics.NoiseSpec("amplitude_damping", 0.01))
    for v in range(4):
        cooling.syndrome_probabilities(rho, v)
    cooling.gi_overlap(rho), dynamics.fidelity(rho, psi), dynamics.hygiene(rho)


runs = {
    "cooled": lambda: cli.main(["evolve", "--cool", "on", "--rate", "0.01", "--out", os.devnull]),
    "damped": lambda: cli.main(["evolve", "--noise", "amplitude-damping", "--rate", "0.01",
                                "--out", os.devnull]),
    "audit": audit_step,
    "control": lambda: np.ones((625, 625)) @ np.ones((625, 625)),  # a product BLAS threads
}
grown = {}
for name, run in runs.items():
    before = settled()
    run()
    after = settled()  # a woken worker is counted when it has gone back to sleep
    grown[name] = [sum(after[t][k] - before[t][k] for t in before) for k in range(3)]
print(json.dumps(grown))
"""


def test_no_step_wakes_a_blas_thread():
    """No step calls BLAS on a product large enough for OpenBLAS to thread:
    at two OpenBLAS threads, with its worker asleep before each run, no other
    thread runs during a 30-step cooled `evolve`, a 30-step uncooled damped
    one, or one library step that reads every observable.  A 625x625 product then wakes
    the worker, which shows that the counts see it."""
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE],
        capture_output=True,
        text=True,
        env={**CHILD_ENV, "OPENBLAS_NUM_THREADS": "2"},
    )
    assert proc.returncode == 0, proc.stderr
    grown = json.loads(proc.stdout)
    if not any(grown.pop("control")):
        pytest.skip("no BLAS worker thread runs a 625x625 product here")
    assert grown == {name: [0, 0, 0] for name in ("cooled", "damped", "audit")}


def test_kl_audit_tables(tmp_path):
    code, header, rows = run_csv(tmp_path, "kl.csv", ["kl-audit"])
    assert code == 0
    assert header == "section,label,v1,v2,v3,v4"
    detection = [r for r in rows if r[0] == "detection"]
    assert len(detection) == 12
    assert {r[1] for r in detection} == {
        f"{p}_{e}" for p in "XYZ" for e in range(4)
    }
    for r in detection:
        assert float(r[2]) < 1e-12
        assert r[3] == r[4] == r[5] == ""
    kl = {r[1]: [float(v) for v in r[2:]] for r in rows if r[0] == "kl"}
    assert kl["Z0-Z1"] == pytest.approx([-1.0, 0.0, 0.0, 1.0 / 3.0], abs=1e-10)
    assert kl["Z2-Z3"] == pytest.approx([-1.0, 0.0, 0.0, 1.0 / 3.0], abs=1e-10)
    residual = {r[1]: [float(v) for v in r[2:]] for r in rows if r[0] == "residual"}
    assert residual["Z_0"] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-10)
    assert residual["Z_1"] == pytest.approx([0.2, 0.0, 0.0, 0.8], abs=1e-10)
    assert residual["Z_2"] == pytest.approx([0.2, 0.6, 0.0, 0.2], abs=1e-10)
    assert residual["Z_3"] == pytest.approx([0.2, 0.6, 0.0, 0.2], abs=1e-10)
    assert len(rows) == 12 + 2 + 4


def test_check_suites_pass(capsys):
    for suite in ("hamiltonian", "tdesign", "qft", "detection"):
        assert main(["check", suite]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert f"{suite}:" in out.splitlines()[-1]


def test_check_corrupt_design_fails_with_bidegree(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# two rotations are not a 3-design\n1 0 0 0\n0 0 0 1\n")
    assert main(["check", "tdesign", "--design-file", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "bidegree (" in out


def test_check_malformed_design_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 0\n")
    assert main(["check", "tdesign", "--design-file", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_nan_design_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "nan.txt"
    bad.write_text("1 0 0 0\nnan nan nan nan\n")
    assert main(["check", "tdesign", "--design-file", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "nosuch"])
    assert err.value.code == 2


def test_invalid_rate_is_usage_error(capsys):
    assert main(["evolve", "--rate", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_g2_is_usage_error(capsys):
    assert main(["converge", "--g2", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--g2", "nan"],
        ["evolve", "--time", "inf"],
        ["evolve", "--cool", "on", "--tol", "nan"],
        ["evolve", "--tol", "nan"],
        ["evolve", "--tol", "-1"],
        ["evolve", "--max-sweeps", "0"],
        ["evolve", "--g2", "1e-320", "--cool", "on"],
        ["evolve", "--g2", "1e-320", "--cool", "off"],
    ],
)
def test_non_finite_input_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "ev.csv"
    assert main([*argv, "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if "1e-320" in argv:  # H_B = -(P + P^dagger)/(2 g2) overflows
        assert "g2 = 1e-320 is out of range: H_B" in err
    assert not out.exists()


def test_unknown_noise_kind_is_value_error():
    # argparse restricts --noise; a library caller reaches RunConfig directly
    with pytest.raises(ValueError, match="noise"):
        RunConfig(noise="thermal")


def test_non_integral_max_sweeps_is_value_error():
    with pytest.raises(ValueError, match="integer"):
        RunConfig(max_sweeps=2.5)


def test_unconverged_cooling_warns_on_stderr(tmp_path, capsys):
    # At its defaults the single step ends at deficit 1.013e-5 > tol 1e-5.
    code, _, rows = run_csv(tmp_path, "conv.csv", ["converge"])
    assert code == 0 and len(rows) == 11
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: cooling did not converge in 1 of 1 runs")
    assert "1.01346e-05" in err[0]
    # Cooling that meets its tolerance stays quiet.
    assert main(["converge", "--rate", "0", "--out", str(tmp_path / "quiet.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_stdout_when_no_out_flag(capsys):
    assert main(["converge", "--max-sweeps", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "sweep,gi_overlap,deficit"
    assert len(out.splitlines()) == 3


def test_twelve_significant_digits(tmp_path):
    _, _, rows = run_csv(tmp_path, "conv.csv", ["converge", "--max-sweeps", "2"])
    # Full-precision values survive the round trip to 12 significant digits.
    val = rows[1][1]
    assert len(val.replace("-", "").replace(".", "").lstrip("0")) >= 11
    assert float(val) == pytest.approx(1.0 - 6.953027e-3, abs=1e-8)


# ---------------------------------------------------------------- cooled steps on entry patterns


def dense_cooled_chain(kind, rate, steps, g2=1.0, dt=0.1):
    """The cooled trajectory through the public dense functions: (rho, report) per step."""
    trotter = TrotterConfig(g2=g2, total_time=dt * steps, n_steps=steps)
    vac = vacuum_state()
    rho, out = np.outer(vac, vac.conj()), []
    for _ in range(steps):
        noisy = apply_noise_all_edges(trotter_step(rho, trotter), NoiseSpec(kind, rate))
        rho, report = iterative_cooling(noisy)
        out.append((rho, report))
    return out


def cooled_evolve(monkeypatch, tmp_path, argv):
    """Run a cooled `evolve`, keeping each state it hands to gi_overlap, as
    the benchmark does, and each cooling report; it never falls back to
    ``iterative_cooling``."""
    states, reports = [], []
    measure, cool = cli.gi_overlap, cli._cooled

    def keep_state(rho):
        states.append((rho, rho.copy()))
        return measure(rho)

    def keep_report(*args):
        out = cool(*args)
        reports.append(out[-1])
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("a cooled evolve called iterative_cooling")

    monkeypatch.setattr(cli, "gi_overlap", keep_state)
    monkeypatch.setattr(cli, "_cooled", keep_report)
    monkeypatch.setattr(cooling, "iterative_cooling", refuse)
    assert main([*argv, "--cool", "on", "--out", str(tmp_path / "cooled.csv")]) == 0
    return states, reports


@pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
@pytest.mark.parametrize("rate", [0.0, 0.005, 0.01, 1.0])
def test_cooled_evolve_follows_the_dense_chain(monkeypatch, tmp_path, kind, rate):
    argv = ["evolve", "--noise", kind.replace("_", "-"), "--rate", str(rate)]
    states, reports = cooled_evolve(monkeypatch, tmp_path, argv)
    want = dense_cooled_chain(kind, rate, 30)
    assert len(states) == len(reports) == 30
    for (rho, _), report, (dense, dense_report) in zip(states, reports, want):
        assert np.max(np.abs(rho - dense)) <= 1e-13
        assert report.sweeps_used == dense_report.sweeps_used
        assert report.converged == dense_report.converged


def test_evolve_hands_gi_overlap_a_fresh_dense_state_each_step(monkeypatch, tmp_path):
    """The benchmark reads the final state of a cooled run through the
    gi_overlap name in cli: one call a step, on a dense rho that nothing
    writes afterwards."""
    argv = ["evolve", "--rate", "0.01", "--steps", "3", "--time", "0.3"]
    states, _ = cooled_evolve(monkeypatch, tmp_path, argv)
    assert len(states) == 3
    for rho, seen in states:
        assert rho.shape == (TOTAL_DIM, TOTAL_DIM) and rho.dtype == complex
        assert np.array_equal(rho, seen)
    last = states[-1][0]
    assert np.max(np.abs(last - dense_cooled_chain("depolarizing", 0.01, 3)[-1][0])) <= 1e-12
    trace_dev, herm_dev, min_eig = hygiene(last)
    assert trace_dev < 1e-12 and herm_dev < 1e-12 and min_eig >= -1e-8


def dense_step(rho, trotter, noise):
    return apply_noise_all_edges(trotter_step(rho, trotter), noise)


@pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
@pytest.mark.parametrize("rate", [0.005, 0.2])
def test_converge_follows_the_dense_chain(tmp_path, kind, rate):
    """`converge` prints the rows of the dense chain: trotter_step, then
    apply_noise_all_edges, then cooling_sweep calls, each read by gi_overlap,
    under the same stop rule, so the sweeps used agree too."""
    argv = ["converge", "--noise", kind.replace("_", "-"), "--rate", str(rate)]
    _, _, rows = run_csv(tmp_path, "conv.csv", argv)
    vac = vacuum_state()
    rho = dense_step(np.outer(vac, vac.conj()), TrotterConfig(g2=1.0, total_time=0.1, n_steps=1),
                     NoiseSpec(kind, rate))
    overlaps = [gi_overlap(rho)]
    while overlaps[-1] <= 1.0 - 1e-5 and len(overlaps) <= 10:
        rho = cooling_sweep(rho)
        overlaps.append(gi_overlap(rho))
    assert len(rows) == len(overlaps) > 1
    assert rows == [[str(k), f"{x:.12g}", f"{1.0 - x:.12g}"] for k, x in enumerate(overlaps)]


@pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
def test_cooled_step_matches_the_dense_steps_on_random_states(kind):
    """Random states, put on the settled pattern by a sweep, a noisy step and
    a sweep: not only the trajectory's."""
    rng = np.random.default_rng(7)
    trotter, noise = TrotterConfig(g2=1.3, total_time=0.2, n_steps=1), NoiseSpec(kind, 0.2)
    positions = cooling._settled().positions
    for rank in (1, 8, TOTAL_DIM):
        a = rng.standard_normal((TOTAL_DIM, rank)) + 1j * rng.standard_normal((TOTAL_DIM, rank))
        rho = cooling_sweep(a @ a.conj().T / np.linalg.norm(a) ** 2)
        rho = cooling_sweep(dense_step(rho, trotter, noise))
        x = np.append(rho.take(positions), 0)
        assert not np.delete(rho.ravel(), positions).any()
        pattern, x = cli._noisy_step(positions.tobytes(), x, trotter, noise)
        pattern, out, report = cooling._cooled(pattern, x, 1e-15, 3)
        want, dense_report = iterative_cooling(dense_step(rho, trotter, noise), tol=1e-15,
                                               max_sweeps=3)
        got = np.zeros(TOTAL_DIM**2, dtype=complex)
        got[np.frombuffer(pattern, dtype=int)] = out[:-1]
        assert np.max(np.abs(got.reshape(TOTAL_DIM, TOTAL_DIM) - want)) <= 1e-13
        assert report.sweeps_used == dense_report.sweeps_used >= 1
        assert report.overlaps == dense_report.overlaps


def traced_peak(func):
    """func()'s result and the most it allocated at once, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = func()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return out, peak - base


def test_a_warm_cooled_step_allocates_less_than_one_dense_array():
    """A warm held step allocates less than one 625x625 complex array: cooled
    with all 10 sweeps, cooled with none (at rate 0, on the 18,517 entries
    such a run settles on) and uncooled.  The dense rho that `evolve` builds
    for its reads is not part of the step."""
    trotter = TrotterConfig(g2=1.0, total_time=0.1, n_steps=1)
    settled, classes = cooling._settled().positions, np.sort(charge_classes().positions)
    cases = [(settled, 0.01, True, 961, 10), (settled, 0.0, True, 18517, 0),
             (classes, 0.01, False, 2273, None)]
    for start, rate, cool, size, sweeps in cases:
        noise = NoiseSpec("depolarizing", rate)
        pattern = start.tobytes()
        x = np.append(np.frombuffer(pattern, dtype=int) == 0, 0).astype(complex)

        def step():
            noisy, y = cli._noisy_step(pattern, x, trotter, noise)
            return cooling._cooled(noisy, y, 1e-5, 10) if cool else (noisy, y, None)

        for _ in range(4):  # warm, and on the pattern the run keeps
            pattern, x, report = step()
        (_, x, report), peak = traced_peak(step)
        assert len(x) - 1 == size
        assert report is None if sweeps is None else report.sweeps_used == sweeps
        assert peak < TOTAL_DIM**2 * np.dtype(complex).itemsize


def test_a_cooled_run_without_sweeps_settles_on_four_patterns(monkeypatch, tmp_path):
    """At rate 0 no step needs a sweep, so rho grows from the settled pattern
    through the patterns the steps write, and the Trotter step's class pairs
    and the noise close on 18,517 entries after three steps: at most four
    patterns are derived, whatever the run's length."""
    for cache in (cli._step_maps, cooling._sweep_maps):
        cache.cache_clear()
    argv = ["evolve", "--cool", "on", "--rate", "0", "--steps", "8", "--time", "0.8"]
    sizes = []
    step = cli._noisy_step
    monkeypatch.setattr(cli, "_noisy_step", lambda *a: sizes.append(len(a[1]) - 1) or step(*a))
    assert main([*argv, "--out", str(tmp_path / "cooled.csv")]) == 0
    assert sizes == [961, 9593, 18325] + [18517] * 5
    assert cli._step_maps.cache_info().currsize == 4
    assert cooling._sweep_maps.cache_info().currsize == 3


def test_a_cold_cooled_evolve_derives_only_its_own_patterns(monkeypatch, tmp_path):
    """From cleared caches, a cooled evolve derives its maps in two passes of
    four stages, over the settled pattern and over its noisy pattern, and
    what it keeps is less than one dense array.  iterative_cooling then
    derives the one pattern of the dense chain's nonzeros, and `converge`,
    whose step is the evolve's first, derives none."""
    stages = []
    stage = cooling._stage
    monkeypatch.setattr(cooling, "_stage", lambda *a, **kw: stages.append(a[1]) or stage(*a, **kw))
    for cache in (cli._step_maps, cooling._sweep_maps, cooling._settled, lattice._state_layout):
        cache.cache_clear()
    argv = ["evolve", "--cool", "on", "--rate", "0.01", "--steps", "2", "--time", "0.2"]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        assert main([*argv, "--out", str(tmp_path / "cooled.csv")]) == 0
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    assert stages == [0, 1, 2, 3] * 2
    assert after - before < TOTAL_DIM**2 * np.dtype(complex).itemsize
    stages.clear()
    _, report = dense_cooled_chain("depolarizing", 0.01, 1)[0]
    assert report.sweeps_used == 10
    assert stages == [0, 1, 2, 3]
    stages.clear()
    assert main(["converge", "--rate", "0.01", "--out", str(tmp_path / "converge.csv")]) == 0
    assert stages == []
