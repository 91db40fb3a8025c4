from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugecool import cooling
from gaugecool.cooling import (
    CoolingReport,
    Held,
    _pair_kraus,
    _cool_stage,
    _pair_blocks,
    _pair_superoperator,
    _settled,
    _settled_states,
    _stage,
    _sweep_maps,
    Syndrome,
    cool_vertex,
    cooling_sweep,
    gi_overlap,
    iterative_cooling,
    syndrome_probabilities,
)
from gaugecool.dynamics import (
    NoiseSpec,
    TrotterConfig,
    _step_maps,
    apply_noise_all_edges,
    fidelity,
    hygiene,
    trotter_step,
    trotter_step_state,
    trotter_unitary,
)
from gaugecool.lattice import (
    EDGE_DIM,
    TOTAL_DIM,
    build_cg_basis,
    charge_classes,
    gauge_casimir,
    gauge_generator,
    local_view,
    singlet_projector,
    vacuum_state,
    vertex_edges,
)
from gaugecool.reference import (
    physical_subspace_basis,
    recovery_kraus,
    syndrome_operator,
)


def random_density(rng, rank=8):
    a = rng.standard_normal((TOTAL_DIM, rank)) + 1j * rng.standard_normal((TOTAL_DIM, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(rng):
    psi = rng.standard_normal(TOTAL_DIM) + 1j * rng.standard_normal(TOTAL_DIM)
    return psi / np.linalg.norm(psi)


def protocol_state():
    """Vacuum, one Trotter step (g2=1, dt=0.1), p=0.005 depolarizing everywhere."""
    vac = vacuum_state()
    rho = np.outer(vac, vac.conj())
    rho = trotter_step(rho, TrotterConfig(g2=1.0, total_time=0.1, n_steps=1))
    return apply_noise_all_edges(rho, NoiseSpec("depolarizing", 0.005))


def test_syndrome_labels_validated():
    s = Syndrome(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    assert s.j == Fraction(1, 2)
    with pytest.raises(ValueError):
        Syndrome(-1, 0, 0)
    with pytest.raises(ValueError):
        Syndrome(Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))  # |M| > J
    with pytest.raises(ValueError):
        Syndrome(1, Fraction(1, 2), 0)  # parity mismatch with J


def test_near_half_integer_syndrome_label_is_exact():
    # a label within _twice's tolerance of a half-integer is stored exactly
    exact = Syndrome(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    near = Syndrome(0.5 + 1e-10, 0.5, -0.5)
    assert near == exact and hash(near) == hash(exact)
    assert (near.j, near.m, near.n) == (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    rho = np.outer(vacuum_state(), vacuum_state().conj())
    assert syndrome_probabilities(rho, 0)[Syndrome(0.5 + 1e-10, 0.5, -0.5)] == 0.0


def test_syndrome_operator_identity_on_singlets():
    for v in range(4):
        t = syndrome_operator(v, 0, 0, 0)
        basis = build_cg_basis(v)
        cols, _ = basis.columns[0, 0]
        s = basis.basis[:, cols]
        assert np.max(np.abs(t @ s - s)) < 1e-12


def test_syndrome_operator_partial_isometry_weight():
    basis = build_cg_basis(1)
    for tj in (1, 2):
        j = Fraction(tj, 2)
        for tm in range(-tj, tj + 1, 2):
            for tn in range(-tj, tj + 1, 2):
                t = syndrome_operator(1, j, Fraction(tm, 2), Fraction(tn, 2))
                cols, _ = basis.columns[tj, tn]
                bn = basis.basis[:, cols]
                p_n = bn @ bn.T.conj()
                assert np.max(np.abs(t.conj().T @ t - p_n / (tj + 1.0))) < 1e-10


def test_syndrome_operator_annihilates_other_sectors():
    t = syndrome_operator(2, Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    basis = build_cg_basis(2)
    for tj in (0, 2):
        for tn in range(-tj, tj + 1, 2):
            cols, _ = basis.columns[tj, tn]
            assert np.max(np.abs(t @ basis.basis[:, cols])) < 1e-10
    # and the right N within J = 1/2: only N = -1/2 survives
    cols, _ = basis.columns[1, 1]
    assert np.max(np.abs(t @ basis.basis[:, cols])) < 1e-10


def test_syndrome_operator_validation():
    with pytest.raises(ValueError):
        syndrome_operator(4, 0, 0, 0)
    with pytest.raises(ValueError):
        syndrome_operator(0, Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        syndrome_operator(0, Fraction(3, 2), Fraction(1, 2), Fraction(1, 2))  # no such J


def test_probabilities_vacuum_is_certain():
    vac = vacuum_state()
    rho = np.outer(vac, vac.conj())
    for v in range(4):
        probs = syndrome_probabilities(rho, v)
        assert probs[Syndrome(0, 0, 0)] == pytest.approx(1.0, abs=1e-12)
        rest = sum(p for s, p in probs.items() if s.j != 0)
        assert rest == pytest.approx(0.0, abs=1e-12)


def test_probabilities_sum_to_one_and_match_brute_force():
    rng = np.random.default_rng(11)
    for v in range(4):
        for _ in range(5):
            psi = random_pure(rng)
            rho = np.outer(psi, psi.conj())
            probs = syndrome_probabilities(rho, v)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
            for syn, p in probs.items():
                t = syndrome_operator(v, syn.j, syn.m, syn.n)
                assert p == pytest.approx(float(np.linalg.norm(t @ psi) ** 2), abs=1e-10)


def test_probabilities_independent_of_m():
    rng = np.random.default_rng(12)
    rho = random_density(rng)
    probs = syndrome_probabilities(rho, 0)
    for syn, p in probs.items():
        tj = int(2 * syn.j)
        for tm in range(-tj, tj + 1, 2):
            other = Syndrome(syn.j, Fraction(tm, 2), syn.n)
            assert abs(probs[other] - p) < 1e-12


def test_probabilities_match_the_casimir_and_gz_eigenprojectors():
    """The weights against projectors from no pair form: P_{J,N} spans the
    joint eigenspace of the dense Casimir (J(J+1)) and G_z (N) at v, found
    with eigh, and p(J,M,N) = tr(P_{J,N} rho)/(2J+1) for every M."""
    rho = random_density(np.random.default_rng(13), rank=TOTAL_DIM)
    for v in range(4):
        casimir, gz = gauge_casimir(v), gauge_generator(v, "z")
        evals, evecs = np.linalg.eigh(casimir)
        want = {}
        for tj, mu in ((0, 125), (1, 100), (2, 100)):
            sector = evecs[:, np.abs(evals - tj / 2 * (tj / 2 + 1)) < 1e-8]
            charges, within = np.linalg.eigh(sector.conj().T @ gz @ sector)
            for tn in range(-tj, tj + 1, 2):
                w = sector @ within[:, np.abs(charges - tn / 2) < 1e-8]
                assert w.shape[1] == mu
                weight = np.trace(w.conj().T @ rho @ w).real / (tj + 1)
                for tm in range(-tj, tj + 1, 2):
                    want[Syndrome(Fraction(tj, 2), Fraction(tm, 2), Fraction(tn, 2))] = weight
        got = syndrome_probabilities(rho, v)
        assert got.keys() == want.keys() and len(got) == 14
        for syn, p in want.items():
            assert abs(got[syn] - p) <= 1e-12, (v, syn)


def test_recovery_kraus_completeness():
    for v in range(4):
        ch = recovery_kraus(v)
        total = sum(k.conj().T @ k for k in ch.operators)
        assert np.max(np.abs(total - np.eye(TOTAL_DIM))) < 1e-10
        assert ch.vertex == v
        assert sorted(ch.labels) == sorted(
            [
                (Fraction(0), Fraction(0)),
                (Fraction(1, 2), Fraction(-1, 2)),
                (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(1), Fraction(-1)),
                (Fraction(1), Fraction(0)),
                (Fraction(1), Fraction(1)),
            ]
        )


def test_recovery_kraus_fixes_singlets_and_maps_isometrically():
    for v in (0, 2):
        ch = recovery_kraus(v)
        basis = build_cg_basis(v)
        sing_cols, _ = basis.columns[0, 0]
        s = basis.basis[:, sing_cols]
        p0 = singlet_projector(v)
        for (j, n), k in zip(ch.labels, ch.operators):
            if (j, n) == (Fraction(0), Fraction(0)):
                assert np.max(np.abs(k @ s - s)) < 1e-10
                continue
            cols, _ = basis.columns[int(2 * j), int(2 * n)]
            b = basis.basis[:, cols]
            image = k @ b
            # isometric on its source block, landing inside the singlet sector
            assert np.max(np.abs(image.conj().T @ image - np.eye(b.shape[1]))) < 1e-10
            assert np.max(np.abs(p0 @ image - image)) < 1e-10


def test_cool_vertex_lands_in_singlet_sector():
    rng = np.random.default_rng(21)
    rho = random_density(rng)
    for v in range(4):
        out = cool_vertex(rho, v)
        p0 = singlet_projector(v)
        assert np.max(np.abs(p0 @ out @ p0 - out)) < 1e-10
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        trace_dev, herm_dev, min_eig = hygiene(out)
        assert trace_dev < 1e-12 and herm_dev < 1e-12 and min_eig > -1e-10


def test_cool_vertex_idempotent():
    rng = np.random.default_rng(22)
    rho = random_density(rng, rank=4)
    for v in range(4):
        once = cool_vertex(rho, v)
        twice = cool_vertex(once, v)
        assert np.max(np.abs(twice - once)) < 1e-10


def test_cool_vertex_fixes_gauge_invariant_states():
    vac = vacuum_state()
    rho = np.outer(vac, vac.conj())
    for v in range(4):
        assert np.max(np.abs(cool_vertex(rho, v) - rho)) < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 8, TOTAL_DIM]))
@settings(max_examples=4, deadline=None)
def test_local_kernels_match_dense_oracles(seed, rank):
    # Full-rank complex states included: the pair-local recovery, overlap and
    # syndrome weights against the dense 625-dim channel and projectors.
    rho = random_density(np.random.default_rng(seed), rank=rank)
    for v in range(4):
        dense = sum(k @ rho @ k.conj().T for k in recovery_kraus(v).operators)
        assert np.max(np.abs(cool_vertex(rho, v) - dense)) <= 1e-12
        basis = build_cg_basis(v)
        for syn, p in syndrome_probabilities(rho, v).items():
            cols, _ = basis.columns[int(2 * syn.j), int(2 * syn.n)]
            bn = basis.basis[:, cols]
            weight = np.real(np.sum(bn.conj() * (rho @ bn))) / (2 * syn.j + 1)
            assert abs(p - weight) <= 1e-12
    dense_overlap = np.mean([np.real(np.trace(singlet_projector(v) @ rho)) for v in range(4)])
    assert abs(gi_overlap(rho) - dense_overlap) <= 1e-12


def test_pair_superoperator_is_cptp():
    rows, cols, block = _pair_superoperator()
    n = 25
    sup = np.zeros((n * n, n * n), dtype=complex)
    sup[np.ix_(rows, cols)] = block
    assert np.array_equal(sup, sum(np.kron(k, k.conj()) for _, k in _pair_kraus()))  # the 625x625 sum
    # trace preserving: sum_a S[(a,a),(c,d)] = delta_cd
    traced = sup.reshape(n, n, n * n)[np.arange(n), np.arange(n)].sum(axis=0)
    assert np.max(np.abs(traced - np.eye(n).ravel())) < 1e-14
    # completely positive: the Choi matrix sum k|c><d|k^dag (x) |c><d| is PSD
    choi = sup.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    assert np.max(np.abs(choi - choi.conj().T)) < 1e-14
    assert np.linalg.eigvalsh(choi).min() > -1e-12


def test_cooling_sweep_preserves_physical_subspace_states():
    rng = np.random.default_rng(23)
    b = physical_subspace_basis()
    w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w = w @ w.conj().T
    w /= np.trace(w).real
    rho = b @ w @ b.conj().T
    out = cooling_sweep(rho)
    assert np.max(np.abs(out - rho)) < 1e-10


def test_cooling_sweep_trace_preserving():
    rng = np.random.default_rng(24)
    rho = random_density(rng)
    out = cooling_sweep(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    trace_dev, herm_dev, min_eig = hygiene(out)
    assert trace_dev < 1e-12 and herm_dev < 1e-12 and min_eig > -1e-10


def test_gi_overlap_reference_points():
    vac = vacuum_state()
    assert gi_overlap(np.outer(vac, vac.conj())) == pytest.approx(1.0, abs=1e-12)
    mixed = np.eye(TOTAL_DIM) / TOTAL_DIM
    assert gi_overlap(mixed) == pytest.approx(0.2, abs=1e-12)


def test_gi_overlap_protocol_state_before_and_after_one_sweep():
    rho = protocol_state()
    before = gi_overlap(rho)
    assert before == pytest.approx(0.992, abs=0.002)
    after = gi_overlap(cooling_sweep(rho))
    assert after == pytest.approx(0.993, abs=0.002)
    assert after > before


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_cooling_hygiene_on_random_states(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, rank=3)
    out = cool_vertex(rho, int(rng.integers(4)))
    trace_dev, herm_dev, min_eig = hygiene(out)
    assert trace_dev < 1e-12 and herm_dev < 1e-12 and min_eig > -1e-10
    assert 0.0 <= gi_overlap(out) <= 1.0 + 1e-10


def test_cooling_contraction_trajectory():
    # Frozen regression for the recovery pairing: the deficit sequence on the
    # standard noisy state contracts by ~0.44 per sweep once transients decay.
    rho = protocol_state()
    _, report = iterative_cooling(rho, tol=1e-5, max_sweeps=10)
    d = report.deficits
    assert d[0] == pytest.approx(7.980e-3, abs=5e-6)
    assert d[1] == pytest.approx(6.953027e-3, abs=1e-8)
    assert d[2] == pytest.approx(4.331657e-3, abs=1e-8)
    assert d[3] == pytest.approx(2.286976e-3, abs=1e-8)
    assert d[10] / d[9] == pytest.approx(0.4442, abs=2e-3)


def test_iterative_cooling_converges_immediately_on_gi_state():
    vac = vacuum_state()
    rho = np.outer(vac, vac.conj())
    out, report = iterative_cooling(rho, tol=1e-5, max_sweeps=10)
    assert report.sweeps_used == 0
    assert report.converged
    assert len(report.overlaps) == 1
    assert np.max(np.abs(out - rho)) < 1e-12
    assert out is rho


def test_iterative_cooling_report_bookkeeping():
    rho = protocol_state()
    out, report = iterative_cooling(rho, tol=1e-5, max_sweeps=3)
    assert report.sweeps_used <= 3
    assert len(report.overlaps) == report.sweeps_used + 1
    assert report.deficits == [1.0 - x for x in report.overlaps]
    assert report.final_deficit == pytest.approx(1.0 - report.overlaps[-1])
    assert all(0.0 <= x <= 1.0 + 1e-10 for x in report.overlaps)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_iterative_cooling_equals_repeated_sweeps():
    """The in-place sweeps give the bits of fresh-array sweeps and leave the
    input alone, whatever its memory order."""
    rho = np.asfortranarray(protocol_state())
    before = rho.copy()
    out, report = iterative_cooling(rho, tol=1e-5, max_sweeps=3)
    want = rho
    for _ in range(report.sweeps_used):
        want = cooling_sweep(want)
    assert report.sweeps_used == 3
    assert np.array_equal(out, want)
    assert np.array_equal(rho, before)


def cooled_run_inputs(kind, steps=3):
    """The states a cooled rate-0.01 run hands to iterative_cooling."""
    vac = vacuum_state()
    rho = np.outer(vac, vac.conj())
    cfg = TrotterConfig(g2=1.0, total_time=0.1 * steps, n_steps=steps)
    states = []
    for _ in range(steps):
        rho = apply_noise_all_edges(trotter_step(rho, cfg), NoiseSpec(kind, 0.01))
        states.append(rho)
        rho, _ = iterative_cooling(rho)
    return states


@pytest.fixture
def entry_stages(monkeypatch):
    """The vertices cooled on an entry pattern, in call order."""
    calls = []
    kernel = cooling._cool_stage
    monkeypatch.setattr(cooling, "_cool_stage",
                        lambda x, stage: calls.append(stage.vertex) or kernel(x, stage))
    return calls


def assert_matches_dense_sweeps(rho, **kwargs) -> CoolingReport:
    """iterative_cooling gives the bits of repeated cooling_sweep calls, and
    its overlaps those of gi_overlap after each."""
    out, report = iterative_cooling(rho, **kwargs)
    want, overlaps = rho, [gi_overlap(rho)]
    for _ in range(report.sweeps_used):
        want = cooling_sweep(want)
        overlaps.append(gi_overlap(want))
    assert np.array_equal(out, want)
    assert np.max(np.abs(np.subtract(report.overlaps, overlaps))) <= 1e-15
    return report


def test_one_sweep_settles_any_input_on_31_states():
    """Push the dense Kraus operators' nonzero patterns through three sweeps
    from all 625 states: no cancellation is assumed, so this bounds the
    support of a swept rho whatever the input."""
    reach = [np.any([k != 0 for k in recovery_kraus(v).operators], axis=0) for v in range(4)]
    held = np.ones(TOTAL_DIM, dtype=bool)
    stages = []
    for _ in range(3):
        for v in range(4):
            held = reach[v] @ held
            stages.append(held)
    assert [int(h.sum()) for h in stages] == [225, 115, 60, 31] + [31] * 8
    assert all(np.array_equal(a, b) for a, b in zip(stages[4:8], stages[8:]))
    assert np.array_equal(stages[7], stages[3])
    settled = _settled_states()
    assert np.array_equal(settled, np.flatnonzero(stages[3]))
    ket, bra = np.divmod(_settled().positions, TOTAL_DIM)
    assert np.array_equal(ket, np.repeat(settled, 31)) and np.array_equal(bra, np.tile(settled, 31))
    # the states each later stage reads, as the 45-state support held them
    held, states = _settled().positions, []
    for v in range(4):
        states.extend(np.divmod(held, TOTAL_DIM))
        held = _stage(held, v)[1]
    states = np.unique(np.concatenate(states))
    assert np.array_equal(states, np.flatnonzero(np.any(stages[3:], axis=0)))
    assert len(states) == 45


def kraus_sweep(held, vertices=range(4)):
    """Push an entry pattern through the recovery channels, Kraus operator by
    Kraus operator: (ket, bra) reaches (K ket, K bra) for each nonzero of K.
    No cancellation is assumed.  Returns the pattern after each vertex."""
    out = []
    for v in vertices:
        reach = [(k != 0).astype(float) for k in recovery_kraus(v).operators]
        held = sum(k @ held @ k.T for k in reach) > 0
        out.append(held)
        held = held.astype(float)
    return out


def pattern_mask(positions):
    mask = np.zeros(TOTAL_DIM**2, dtype=bool)
    mask[positions] = True
    return mask.reshape(TOTAL_DIM, TOTAL_DIM)


def test_the_swept_pattern_is_what_one_sweep_writes_from_anything():
    """Entry by entry, from the full 625^2 pattern: the stages hold 50,625,
    9,325, 1,934 and 459 entries, the last lie in the settled pattern, and a
    sweep from the settled pattern writes onto it again."""
    stages = kraus_sweep(np.ones((TOTAL_DIM, TOTAL_DIM)))
    assert [int(s.sum()) for s in stages] == [50625, 9325, 1934, 459]
    settled = _settled()
    assert len(settled.positions) == 961 and settled.positions[0] == 0
    assert not np.any(stages[-1] & ~pattern_mask(settled.positions))
    again = kraus_sweep(pattern_mask(settled.positions).astype(float))
    assert not np.any(again[-1] & ~pattern_mask(settled.positions))
    # the stage maps keep what the superoperator's nonzeros reach, within the Kraus propagation
    held = settled.positions
    for v, reached in zip(range(4), again):
        stage, held = _stage(held, v, settled.positions if v == 3 else None)
        assert not np.any(pattern_mask(held[stage.target]) & ~reached)
    assert [len(s.keep) for s in settled.sweep] == [565, 367, 351, 351]
    assert [s.size for s in settled.sweep] == [565, 367, 351, 961]


def superoperator_sweep(held, vertices=range(4)):
    """Push an entry pattern through the summed pair superoperator's
    nonzeros, vertex by vertex, as the dense kernel applies it: only its own
    exact zeros cancel.  Returns the pattern after each vertex."""
    rows, cols, block = _pair_superoperator()
    reach = np.zeros((EDGE_DIM**4, EDGE_DIM**4))
    reach[np.ix_(rows, cols)] = block != 0
    out = []
    for v in vertices:
        pairs = local_view(held, vertex_edges(v)).reshape(EDGE_DIM**4, -1)
        held = np.empty((TOTAL_DIM, TOTAL_DIM), dtype=bool)
        local_view(held, vertex_edges(v))[...] = (reach @ pairs > 0).reshape((EDGE_DIM,) * 8)
        out.append(held)
    return out


def test_the_cooled_step_patterns_are_closed():
    """Propagate each stage of a cooled step from the full pattern before it:
    U's nonzeros from the full block of the settled states, a channel with
    nonnegative coefficients on a nonnegative block for the noise, and the
    superoperator's nonzeros for the sweep.  The noisy pattern's sweep writes
    exactly what the superoperator reaches, and that lies in the settled
    pattern, where the step starts."""
    pairs, gather, noisy, place, edges = _step_maps(_settled().positions.tobytes())
    noisy = _sweep_maps(noisy)
    settled = _settled_states()
    assert len(settled) == 31
    u = (trotter_unitary(1.0, 0.1) != 0).astype(float)
    full = np.zeros((TOTAL_DIM, TOTAL_DIM))
    full[np.ix_(settled, settled)] = 1.0
    stepped = u @ full @ u.T > 0
    reached = np.flatnonzero(stepped.any(axis=1))
    assert len(reached) == 45
    # U's nonzeros fill the 49 class pair blocks of the 7 classes the settled states lie in
    of = np.empty(TOTAL_DIM, dtype=int)
    of[np.concatenate([idx.ravel() for idx in charge_classes().stacks])] = np.repeat(
        np.arange(281), [idx.shape[1] for idx in charge_classes().stacks for _ in idx])
    ket, bra = np.divmod(pairs.positions, TOTAL_DIM)
    assert len(pairs.positions) == 45**2 and len(set(zip(of[ket], of[bra]))) == 49
    assert np.array_equal(pattern_mask(pairs.positions), stepped)
    assert np.array_equal(noisy.positions[place], pairs.positions)
    assert np.array_equal(np.flatnonzero(stepped.any(axis=0)), reached)
    assert len(noisy.positions) == 9593
    swept_noisy = superoperator_sweep(pattern_mask(noisy.positions).astype(float))
    assert int(swept_noisy[-1].sum()) == 359
    assert not np.any(swept_noisy[-1] & ~pattern_mask(_settled().positions))
    for kind in ("depolarizing", "amplitude_damping"):
        out = apply_noise_all_edges(stepped.astype(complex), NoiseSpec(kind, 0.3)) != 0
        assert not np.any(out & ~pattern_mask(noisy.positions))
        if kind == "depolarizing":
            assert np.array_equal(out, pattern_mask(noisy.positions))
        assert not np.any(superoperator_sweep(out.astype(float))[-1] & ~swept_noisy[-1])
    # the Kraus operators one by one bound the superoperator's reach
    stages = kraus_sweep(pattern_mask(noisy.positions).astype(float))
    assert [int(s.sum()) for s in stages] == [2943, 1037, 596, 391]
    for by_kraus, by_superoperator in zip(stages, swept_noisy):
        assert not np.any(by_superoperator & ~by_kraus)
    # every settled entry lies in a block; the other block entries read the trailing zero
    held = gather < len(settled) ** 2
    assert np.array_equal(np.sort(gather[held]), np.arange(len(settled) ** 2))
    assert np.array_equal(_settled().positions[gather[held]], pairs.positions[held])
    assert np.all(gather[~held] == len(settled) ** 2)
    # each stage writes what the superoperator's nonzeros reach
    for pattern in (noisy, _settled()):
        at = pattern.positions
        for v, reached_v in enumerate(superoperator_sweep(pattern_mask(at).astype(float))):
            stage, at = _stage(at, v, _settled().positions if v == 3 else None)
            assert np.array_equal(pattern_mask(at[stage.target]), reached_v)
    assert [s.size for s in noisy.sweep] == [2943, 1037, 596, 961]
    assert [len(s.keep) for s in noisy.sweep] == [2943, 1037, 596, 359]


def test_pair_blocks_hold_the_superoperator():
    rows, cols, block = _pair_superoperator()
    blocks = _pair_blocks()
    assert blocks.block.shape == (25, 4, 6)
    c, i, k = np.nonzero(blocks.block)
    rebuilt = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)
    rebuilt[blocks.rows[c, i], blocks.columns[c, k]] = blocks.block[c, i, k]
    dense = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)
    dense[np.ix_(rows, cols)] = block
    assert np.array_equal(rebuilt, dense)
    assert np.count_nonzero(blocks.block) == np.count_nonzero(block) == 387
    assert np.array_equal(np.flatnonzero(blocks.slot >= 0), np.sort(cols))
    flat = blocks.columns.ravel()
    assert np.array_equal(flat[blocks.slot[cols]], cols)


@pytest.mark.parametrize("which", ["swept", "noisy", "held"])
def test_stage_kernel_gives_the_dense_bits_on_random_states(which):
    """A sweep on the settled pattern, where any swept rho lies; sweep 0 of a
    cooled step on the entries its noise can write; and a later sweep from
    the entries that one writes, as a cooled evolve holds rho.  Against dense
    vertex by vertex: each writes onto the settled pattern."""
    noisy = _sweep_maps(_step_maps(_settled().positions.tobytes())[2])
    pattern = noisy if which == "noisy" else _settled()
    rng = np.random.default_rng(5)
    n = len(pattern.positions)
    x = np.append(rng.standard_normal(n) + 1j * rng.standard_normal(n), 0)
    if which == "held":
        written = noisy.sweep[-1].target
        assert len(written) == 359
        x[np.setdiff1d(np.arange(n), written)] = 0
    rho = np.zeros(TOTAL_DIM**2, dtype=complex)
    rho[pattern.positions] = x[:-1]
    rho = rho.reshape(TOTAL_DIM, TOTAL_DIM)
    for stage in pattern.sweep:
        x = _cool_stage(x, stage)
        rho = cool_vertex(rho, stage.vertex)
    positions = _settled().positions
    assert x[-1] == 0
    assert np.array_equal(rho.take(positions), x[:-1])
    assert not np.delete(rho.ravel(), positions).any()


@pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
def test_cooling_on_the_support_keeps_the_dense_bits_on_cooled_runs(kind, entry_stages):
    for rho in cooled_run_inputs(kind):
        entry_stages.clear()
        report = assert_matches_dense_sweeps(rho)
        assert report.sweeps_used > 1
        assert entry_stages == [0, 1, 2, 3] * report.sweeps_used


@pytest.mark.parametrize("rank", [1, 8, TOTAL_DIM])
def test_cooling_on_the_support_keeps_the_dense_bits_on_random_states(rank, entry_stages):
    rho = random_density(np.random.default_rng(rank), rank=rank)
    report = assert_matches_dense_sweeps(rho)
    assert report.sweeps_used == 10
    assert entry_stages == [0, 1, 2, 3] * 10


def test_one_sweep_cooling_calls_exactly_four_stages(entry_stages):
    report = assert_matches_dense_sweeps(protocol_state(), max_sweeps=1)
    assert report.sweeps_used == 1 and entry_stages == [0, 1, 2, 3]


def test_cooling_that_converges_after_one_sweep_calls_exactly_four_stages(entry_stages):
    rho = protocol_state()
    deficits = [1.0 - gi_overlap(rho), 1.0 - gi_overlap(cooling_sweep(rho))]
    report = assert_matches_dense_sweeps(rho, tol=sum(deficits) / 2)
    assert report.sweeps_used == 1 and report.converged and entry_stages == [0, 1, 2, 3]


def test_gauge_invariant_input_comes_back_unchanged(entry_stages):
    vac = vacuum_state()
    rho = np.outer(vac, vac.conj())
    out, report = iterative_cooling(rho)
    assert report.sweeps_used == 0 and report.converged and not entry_stages
    assert np.array_equal(out, rho)


@pytest.mark.parametrize("layout", [np.asfortranarray, np.real, lambda r: np.asfortranarray(r.real)])
def test_cooling_on_the_support_takes_any_layout_and_dtype(layout, entry_stages):
    rho = layout(protocol_state())
    before = rho.copy()
    report = assert_matches_dense_sweeps(rho, max_sweeps=3)
    assert report.sweeps_used == 3 and entry_stages == [0, 1, 2, 3] * 3
    assert np.array_equal(rho, before)


def test_a_stage_refuses_an_into_that_lacks_an_entry_it_writes():
    """The last stage's check is what keeps weight off the settled pattern
    from being dropped: an ``into`` without one of the entries the stage
    writes, the first, a middle or the last, is refused."""
    settled = _settled().positions
    held = settled
    for v in range(3):
        held = _stage(held, v)[1]
    stage, written = _stage(held, 3)
    assert _stage(held, 3, settled)[0].size == len(settled)
    for drop in (written[0], written[len(written) // 2], written[-1]):
        into = settled[settled != drop]
        with pytest.raises(AssertionError, match="the recovery writes outside the pattern"):
            _stage(held, 3, into)


def test_cooling_two_states_on_one_pattern_derives_its_stages_once(monkeypatch):
    """Two states with the same nonzero entries share one cache entry of
    ``_sweep_maps``: its four stages are derived by the first call alone."""
    first = protocol_state()
    second = cooled_run_inputs("depolarizing", steps=1)[0]  # rate 0.01, not 0.005
    assert np.array_equal(np.flatnonzero(first), np.flatnonzero(second))
    assert not np.array_equal(first, second)
    _settled()
    _sweep_maps.cache_clear()
    stages = []
    stage = cooling._stage
    monkeypatch.setattr(cooling, "_stage", lambda *a, **kw: stages.append(a[1]) or stage(*a, **kw))
    for rho in (first, second):
        assert_matches_dense_sweeps(rho)
    assert stages == [0, 1, 2, 3]
    assert _sweep_maps.cache_info().currsize == 1


@pytest.mark.parametrize(
    "at,value", [((3, 3), np.nan), ((3, 7), np.inf), ((0, 0), -np.inf)],
    ids=["nan_on_the_diagonal", "inf_off_the_diagonal", "minus_inf_at_0_0"],
)
def test_non_finite_rho_is_a_value_error(at, value):
    rho = protocol_state()
    rho[at] = value
    before = rho.copy()
    with pytest.raises(ValueError, match="non-finite"):
        iterative_cooling(rho)
    assert np.array_equal(rho, before, equal_nan=True)


def test_nan_where_no_kernel_reads_is_a_value_error():
    """Most entries are read by neither the entry overlap nor sweep 0's pair
    superoperator columns; a NaN there is refused all the same."""
    rng = np.random.default_rng(60)
    for _ in range(60):
        i, j = rng.choice(TOTAL_DIM, size=2, replace=False)
        rho = np.eye(TOTAL_DIM, dtype=complex) / TOTAL_DIM
        rho[i, j] = np.nan
        before = rho.copy()
        with pytest.raises(ValueError, match="non-finite"):
            iterative_cooling(rho)
        assert np.array_equal(rho, before, equal_nan=True)


@pytest.mark.parametrize("layout", [np.asfortranarray, np.real, lambda r: r.astype(complex)])
def test_held_of_a_dense_rho_makes_it_dense_again(layout):
    rho = layout(protocol_state())
    held = Held.of(rho)
    assert len(held.x) == np.count_nonzero(rho) + 1 and held.x[-1] == 0
    out = held.dense()
    assert out.shape == (TOTAL_DIM, TOTAL_DIM) and out.dtype == complex
    assert np.array_equal(out, rho)
    assert out is not held.dense()


@pytest.mark.parametrize(
    "call, rho, match",
    [
        (Held.of, np.eye(TOTAL_DIM - 1), "625x625"),
        (Held.of, np.eye(TOTAL_DIM).reshape(-1), "625x625"),
        (Held.of, np.full((TOTAL_DIM, TOTAL_DIM), np.nan), "non-finite"),
        (Held.of, np.diag(np.r_[np.inf, np.zeros(TOTAL_DIM - 1)]), "non-finite"),
        (Held.of, np.diag(np.r_[np.zeros(TOTAL_DIM - 1), complex(0, -np.inf)]), "non-finite"),
        (lambda rho: fidelity(rho, vacuum_state()), np.eye(5) / 5, "625x625"),
        (lambda psi: fidelity(np.eye(TOTAL_DIM) / TOTAL_DIM, psi), np.ones(5),
         "psi must have shape 625$"),
        (lambda rho: trotter_step(rho, TrotterConfig()), np.eye(5) / 5, "625x625"),
        (lambda rho: trotter_step(rho, TrotterConfig()), np.eye(TOTAL_DIM + 1), "625x625"),
        (lambda psi: trotter_step_state(psi, TrotterConfig()), np.ones(5),
         "psi must have shape 625$"),
    ],
    ids=["624x624", "flat", "all_nan", "inf_at_0_0", "minus_inf_imaginary_last",
         "fidelity_5x5", "fidelity_psi_5", "trotter_step_5x5", "trotter_step_626x626",
         "trotter_step_state_5"],
)
def test_held_of_refuses_a_bad_rho(call, rho, match):
    """``Held.of`` refuses a rho of another shape than 625x625 or with a
    non-finite entry; ``fidelity``, ``trotter_step`` and ``trotter_step_state``
    run its shape check on rho and psi too."""
    with pytest.raises(ValueError, match=match):
        call(rho)


def test_iterative_cooling_validation():
    rho = np.eye(TOTAL_DIM) / TOTAL_DIM
    with pytest.raises(ValueError):
        iterative_cooling(rho, tol=0.0)
    with pytest.raises(ValueError):
        iterative_cooling(rho, tol=1e-5, max_sweeps=0)
    with pytest.raises(ValueError):
        iterative_cooling(rho, tol=1e-5, max_sweeps=2.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            iterative_cooling(rho, tol=bad)


def test_report_deficit_properties():
    report = CoolingReport(overlaps=[0.9, 0.99], sweeps_used=1, converged=False)
    assert report.final_deficit == pytest.approx(0.01)
    assert report.deficits == pytest.approx([0.1, 0.01])
