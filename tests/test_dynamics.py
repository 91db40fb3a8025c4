"""Trotter evolution and noise-channel tests."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from gaugecool import cooling, dynamics
from gaugecool.cli import main
from gaugecool.dynamics import (
    NoiseSpec,
    TrotterConfig,
    apply_noise_all_edges,
    fidelity,
    herm_expm,
    hygiene,
    trotter_step,
    trotter_step_state,
    trotter_unitary,
    _class_trotter,
    _components,
)
from gaugecool.hamiltonian import _plaquette_entries, electric_hamiltonian, magnetic_hamiltonian
from gaugecool.lattice import (
    EDGE_DIM,
    N_EDGES,
    TOTAL_DIM,
    ChargeClasses,
    charge_classes,
    pack,
    singlet_projector,
    vacuum_state,
)
from gaugecool.reference import (
    _damping_kraus,
    amplitude_damping_channel,
    apply_edge_kraus,
    depolarizing_channel,
    product_index,
)


def random_density(rng, rank=8):
    b = rng.normal(size=(TOTAL_DIM, rank)) + 1j * rng.normal(size=(TOTAL_DIM, rank))
    rho = b @ b.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------- herm_expm


def test_herm_expm_zero_hamiltonian_is_identity():
    np.testing.assert_allclose(herm_expm(np.zeros((4, 4)), 1.7), np.eye(4), atol=1e-14)


def test_herm_expm_zero_time_is_identity():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(6, 6))
    h = h + h.T
    np.testing.assert_allclose(herm_expm(h, 0.0), np.eye(6), atol=1e-14)


def test_herm_expm_diagonal_case():
    h = np.diag([0.0, 1.0, 2.0])
    expected = np.diag(np.exp(-1j * 0.3 * np.array([0.0, 1.0, 2.0])))
    np.testing.assert_allclose(herm_expm(h, 0.3), expected, atol=1e-14)


def test_herm_expm_semigroup_and_unitarity():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    h = h + h.conj().T
    u1 = herm_expm(h, 0.4)
    u2 = herm_expm(h, 0.9)
    np.testing.assert_allclose(u1 @ u2, herm_expm(h, 1.3), atol=1e-9)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(10), atol=1e-12)


def test_herm_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    # an inf or NaN entry: max|h - h^dagger| is inf or NaN then, and NaN fails a > test
    for value in (np.inf, -np.inf, np.nan):
        for at in ((0, 0), (0, 1)):
            h = np.eye(3, dtype=complex)
            h[at] = h[at[::-1]] = value
            with pytest.raises(ValueError, match="finite"):
                herm_expm(h, 0.1)


# ---------------------------------------------------------------- trotter


def test_trotter_config_validation():
    cfg = TrotterConfig(g2=1.0, total_time=3.0, n_steps=30)
    assert cfg.dt == pytest.approx(0.1)
    with pytest.raises(ValueError):
        TrotterConfig(g2=-1.0)
    with pytest.raises(ValueError):
        TrotterConfig(n_steps=0)
    with pytest.raises(ValueError):
        TrotterConfig(total_time=1.0, n_steps=2.5)
    assert TrotterConfig(n_steps=np.int64(30)).dt == cfg.dt
    with pytest.raises(ValueError):
        TrotterConfig(total_time=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrotterConfig(g2=bad)
        with pytest.raises(ValueError):
            TrotterConfig(total_time=bad)


def test_trotter_unitary_is_unitary_and_factor_ordered():
    u = trotter_unitary(1.0, 0.1)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(TOTAL_DIM), atol=1e-12)
    expected = herm_expm(electric_hamiltonian(1.0), 0.1) @ herm_expm(
        magnetic_hamiltonian(1.0), 0.1
    )
    np.testing.assert_allclose(u, expected, atol=1e-13)
    # exp(-i H_B dt) is exactly 1 on the states H_B leaves alone
    still = ~magnetic_hamiltonian(1.0).any(axis=1)
    assert np.sum(still) == TOTAL_DIM - 161
    phase = np.exp(-1j * 0.1 * np.diag(electric_hamiltonian(1.0)).real)
    assert np.array_equal(u[np.ix_(still, still)], np.diag(phase[still]))
    assert not u[np.ix_(still, ~still)].any() and not u[np.ix_(~still, still)].any()


def test_trotter_unitary_is_exactly_block_diagonal():
    # 41 blocks of H_B (1x17, 16x5, 8x4, 16x2 states) plus 464 phases
    assert np.count_nonzero(trotter_unitary(1.0, 0.1)) == 1345


def random_symmetric_mask(seed, n=60, density=0.04):
    mask = np.random.default_rng(seed).random((n, n)) < density
    return mask | mask.T


@pytest.mark.parametrize(
    "mask",
    [
        *(random_symmetric_mask(seed) for seed in range(4)),
        np.zeros((7, 7), dtype=bool),
        np.ones((7, 7), dtype=bool),
        magnetic_hamiltonian(1.0) != 0,
    ],
    ids=["random0", "random1", "random2", "random3", "empty", "full", "magnetic"],
)
def test_components_match_scipy(mask):
    count, want = connected_components(mask, directed=False)
    got = _components(len(mask), *np.nonzero(mask))
    # same partition: each scipy label maps to exactly one of ours and back
    assert len(set(zip(got, want))) == count == len(np.unique(got))
    assert all(got[i] == np.flatnonzero(got == got[i]).min() for i in range(len(got)))
    if mask.shape[0] == TOTAL_DIM:
        assert count == 505


@pytest.mark.parametrize("rank", [1, 8, TOTAL_DIM])
def test_trotter_step_matches_dense_sandwich(rank):
    rho = random_density(np.random.default_rng(rank), rank=rank)
    cfg = TrotterConfig(g2=1.3, total_time=0.37, n_steps=1)
    u = trotter_unitary(cfg.g2, cfg.dt)
    dense = u @ rho @ u.conj().T
    assert np.max(np.abs(trotter_step(rho, cfg) - dense)) <= 1e-13 * np.max(np.abs(dense))


def dense_min_eigenvalue(rho):
    return np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0]


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hygiene_min_eigenvalue_on_permuted_blocks(sizes, seed):
    """Block-diagonal states of random-rank blocks, rows and columns in a
    random order, against the dense eigvalsh."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    rho = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        rank = rng.integers(1, size + 1)
        b = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
        rho[start:start + size, start:start + size] = b @ b.conj().T
        start += size
    perm = rng.permutation(n)
    rho = rho[np.ix_(perm, perm)] / np.trace(rho)
    assert abs(hygiene(rho)[2] - dense_min_eigenvalue(rho)) <= 1e-13


def test_hygiene_min_eigenvalue_on_dense_and_singleton_states():
    dense = random_density(np.random.default_rng(17), rank=TOTAL_DIM)
    assert abs(hygiene(dense)[2] - dense_min_eigenvalue(dense)) <= 1e-13
    lone = random_density(np.random.default_rng(18), rank=3)
    lone[:, 100] = lone[100, :] = 0.0
    lone[100, 100] = -0.25  # a negative singleton block is the minimum
    assert hygiene(lone)[2] == -0.25
    assert abs(dense_min_eigenvalue(lone) + 0.25) <= 1e-13


def test_hygiene_reads_one_sided_entries():
    """An entry whose transpose is zero still joins its block."""
    rho = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5
    rho[7, 300] = 1e-9j
    trace_dev, herm_dev, min_eig = hygiene(rho)
    assert trace_dev == 0.0
    assert herm_dev == 1e-9
    assert min_eig == pytest.approx(-5e-10, rel=1e-12)


def g2_dt_key(k):
    return 1.0, 0.01 * (k + 1)


def pattern_key(k):
    """The pattern of one diagonal entry |k><k|, as the held steps key it."""
    return (np.array([k * (TOTAL_DIM + 1)]).tobytes(),)


KEYED_CACHES = [(_class_trotter, g2_dt_key), (dynamics._step_maps, pattern_key),
                (cooling._sweep_maps, pattern_key)]


@pytest.mark.parametrize("cache, key", KEYED_CACHES,
                         ids=[cache.__name__ for cache, _ in KEYED_CACHES])
def test_g2_dt_keyed_caches_are_bounded(cache, key):
    """The (g2, dt)-keyed caches and the per-pattern maps of the held steps."""
    bound = cache.cache_info().maxsize
    assert bound is not None
    for k in range(bound + 3):
        cache(*key(k))
    assert cache.cache_info().currsize <= bound


@pytest.mark.parametrize("g2, dt", [(1.0, 0.1), (0.5, 0.05), (2.0, 0.2), (1.3, 0.37)])
@pytest.mark.parametrize("shape", [(TOTAL_DIM,), (TOTAL_DIM, 3)])
def test_trotter_step_state_matches_dense_unitary(g2, dt, shape):
    rng = np.random.default_rng(len(shape))
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi /= np.linalg.norm(psi, axis=0)
    cfg = TrotterConfig(g2=g2, total_time=dt, n_steps=1)
    stepped = trotter_step_state(psi, cfg)
    assert stepped.shape == shape
    assert np.max(np.abs(stepped - trotter_unitary(g2, dt) @ psi)) <= 1e-15


def test_trotter_unitary_rejects_non_finite_dt_and_bad_g2():
    for dt in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="dt must be a finite number"):
            trotter_unitary(1.0, dt)
    for g2 in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="g2 must be a finite positive number"):
            trotter_unitary(g2, 0.1)
    # H_B = -(P + P^dagger)/(2 g2) overflows, or 2 g2 does and H_B is zero, or
    # H_E overflows: no NaN propagator, and no RuntimeWarning on the way
    for g2 in (1e-320, 1e-310, 9e307, 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="g2 = .* is out of range: H_B"):
                trotter_unitary(g2, 0.1)
    # a negative dt steps backwards: still a unitary
    u = trotter_unitary(1.0, -0.1)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(TOTAL_DIM), atol=1e-12)


def test_a_cold_trotter_factors_peaks_below_one_dense_array():
    """From cleared caches, building U's class blocks allocates less than one
    625x625 complex array at any time."""
    for cache in (_class_trotter, _plaquette_entries, charge_classes):
        cache.cache_clear()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _class_trotter(1.0, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert peak - base < TOTAL_DIM**2 * np.dtype(complex).itemsize


def test_trotter_unitary_zero_dt_is_identity():
    np.testing.assert_allclose(trotter_unitary(1.0, 0.0), np.eye(TOTAL_DIM), atol=1e-12)


def test_trotter_error_scales_as_dt_squared():
    h = electric_hamiltonian(1.0) + magnetic_hamiltonian(1.0)
    err = {}
    for dt in (0.1, 0.05):
        exact = herm_expm(h, dt)
        err[dt] = np.linalg.norm(trotter_unitary(1.0, dt) - exact, 2)
    ratio = err[0.1] / err[0.05]
    assert 3.2 < ratio < 4.8


def test_trotter_step_preserves_purity_and_trace():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=TOTAL_DIM) + 1j * rng.normal(size=TOTAL_DIM)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    cfg = TrotterConfig()
    out = trotter_step(rho, cfg)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(out @ out).real == pytest.approx(1.0, abs=1e-12)
    # density-matrix step agrees with the state step
    psi_out = trotter_step_state(psi, cfg)
    np.testing.assert_allclose(out, np.outer(psi_out, psi_out.conj()), atol=1e-12)


def test_noiseless_evolution_keeps_vacuum_gauge_invariant():
    cfg = TrotterConfig(g2=1.0, total_time=3.0, n_steps=30)
    psi = vacuum_state().astype(complex)
    for _ in range(cfg.n_steps):
        psi = trotter_step_state(psi, cfg)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    for v in range(4):
        proj = singlet_projector(v)
        assert np.linalg.norm(proj @ psi - psi) < 1e-12


# ---------------------------------------------------------------- channels


def test_depolarizing_p0_is_identity_channel():
    rng = np.random.default_rng(6)
    rho = random_density(rng)
    np.testing.assert_allclose(depolarizing_channel(rho, 2, 0.0), rho, atol=0)


def test_depolarizing_p1_on_vacuum():
    vac = vacuum_state().astype(complex)
    rho = np.outer(vac, vac)
    out = depolarizing_channel(rho, 1, 1.0)
    # edge 1 fully mixed, the others still in |0,0,0>
    expected = np.zeros_like(rho)
    for i in range(EDGE_DIM):
        idx = product_index(0, i, 0, 0)
        expected[idx, idx] = 1.0 / EDGE_DIM
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_depolarizing_fixes_maximally_mixed_state():
    rho = np.eye(TOTAL_DIM, dtype=complex) / TOTAL_DIM
    out = depolarizing_channel(rho, 0, 0.7)
    np.testing.assert_allclose(out, rho, atol=1e-14)


def test_depolarizing_edge_order_is_immaterial():
    rng = np.random.default_rng(7)
    rho = random_density(rng)
    fwd = rho
    for e in (0, 1, 2, 3):
        fwd = depolarizing_channel(fwd, e, 0.3)
    bwd = rho
    for e in (3, 2, 1, 0):
        bwd = depolarizing_channel(bwd, e, 0.3)
    np.testing.assert_allclose(fwd, bwd, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_depolarizing_preserves_trace_and_hermiticity(p):
    rng = np.random.default_rng(8)
    rho = random_density(rng)
    out = depolarizing_channel(rho, 3, p)
    trace_dev, herm_dev, min_eig = hygiene(out)
    assert trace_dev < 1e-12
    assert herm_dev < 1e-12
    assert min_eig > -1e-12


def test_damping_kraus_completeness():
    for gamma in (0.0, 0.25, 1.0):
        ks = _damping_kraus(gamma)
        total = sum(k.conj().T @ k for k in ks)
        np.testing.assert_allclose(total, np.eye(EDGE_DIM), atol=1e-14)


def test_amplitude_damping_gamma0_is_identity_channel():
    rng = np.random.default_rng(9)
    rho = random_density(rng)
    np.testing.assert_allclose(amplitude_damping_channel(rho, 0, 0.0), rho, atol=0)


def test_amplitude_damping_gamma1_empties_the_edge():
    rng = np.random.default_rng(10)
    rho = random_density(rng)
    out = amplitude_damping_channel(rho, 2, 1.0)
    r8 = out.reshape((EDGE_DIM,) * 8)
    marginal = np.einsum("abcdabgd->cg", r8)  # trace out edges 0, 1, 3
    expected = np.zeros((EDGE_DIM, EDGE_DIM))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(marginal, expected, atol=1e-13)


def test_amplitude_damping_all_edges_gamma1_gives_vacuum():
    rng = np.random.default_rng(11)
    rho = random_density(rng)
    out = apply_noise_all_edges(rho, NoiseSpec("amplitude_damping", 1.0))
    vac = vacuum_state().astype(complex)
    np.testing.assert_allclose(out, np.outer(vac, vac), atol=1e-13)


def test_amplitude_damping_leaves_vacuum_alone():
    vac = vacuum_state().astype(complex)
    rho = np.outer(vac, vac)
    out = apply_noise_all_edges(rho, NoiseSpec("amplitude_damping", 0.37))
    np.testing.assert_allclose(out, rho, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_amplitude_damping_preserves_trace_and_positivity(gamma):
    rng = np.random.default_rng(12)
    rho = random_density(rng)
    out = amplitude_damping_channel(rho, 1, gamma)
    trace_dev, herm_dev, min_eig = hygiene(out)
    assert trace_dev < 1e-12
    assert herm_dev < 1e-12
    assert min_eig > -1e-12


def test_apply_edge_kraus_matches_dense_embedding():
    rng = np.random.default_rng(13)
    rho = random_density(rng, rank=4)
    ks = list(_damping_kraus(0.3))
    fast = apply_edge_kraus(rho, ks, 1)
    slow = np.zeros_like(rho)
    for k in ks:
        big = np.kron(np.eye(5), np.kron(k, np.eye(25)))
        slow += big @ rho @ big.conj().T
    np.testing.assert_allclose(fast, slow, atol=1e-13)


def depolarizing_kraus(p):
    """sqrt(1-p) 1 and sqrt(p/5) |a><b| for every pair of edge states."""
    ks = [np.sqrt(1.0 - p) * np.eye(EDGE_DIM, dtype=complex)]
    for a in range(EDGE_DIM):
        for b in range(EDGE_DIM):
            k = np.zeros((EDGE_DIM, EDGE_DIM), dtype=complex)
            k[a, b] = np.sqrt(p / EDGE_DIM)
            ks.append(k)
    return ks


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["depolarizing", "amplitude_damping"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 8, TOTAL_DIM]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_closed_form_damping_matches_kraus_sum(kind, rate, edge, rank, seed):
    """Both closed-form edge channels against their Kraus sums."""
    rho = random_density(np.random.default_rng(seed), rank=rank)
    if kind == "depolarizing":
        fast = depolarizing_channel(rho, edge, rate)
        slow = apply_edge_kraus(rho, depolarizing_kraus(rate), edge)
    else:
        fast = amplitude_damping_channel(rho, edge, rate)
        slow = apply_edge_kraus(rho, list(_damping_kraus(rate)), edge)
    assert np.max(np.abs(fast - slow)) <= 1e-12


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("thermal", 0.1)
    with pytest.raises(ValueError):
        NoiseSpec("depolarizing", 1.5)
    with pytest.raises(ValueError):
        NoiseSpec("amplitude_damping", -0.1)


@pytest.mark.parametrize(
    "at, value",
    [((3, 7), np.nan), ((5, 5), np.nan), ((0, 0), np.inf), ((0, 0), -np.inf),
     ("on_class", np.nan), ("on_class", -np.inf), ((3, 7), -np.inf)],
    ids=["nan_off_class", "nan_on_the_diagonal", "inf_at_0_0", "minus_inf_at_0_0",
         "nan_on_class", "minus_inf_on_class", "minus_inf_off_class"],
)
def test_hygiene_refuses_non_finite_entries(at, value):
    """On both paths: (3, 7) lies off the charge classes, the others on them."""
    if at == "on_class":
        at = tuple(charge_classes().stacks[1][0])
    rho = np.eye(TOTAL_DIM, dtype=complex) / TOTAL_DIM
    rho[at] = value
    assert (pack(rho) is None) == (at == (3, 7))
    with pytest.raises(ValueError, match="non-finite"):
        hygiene(rho)


# ---------------------------------------------------------------- class-packed kernels


def class_blocks_of(rho):
    """rho with every entry off the charge classes set to zero."""
    out = np.zeros(TOTAL_DIM * TOTAL_DIM, dtype=complex)
    positions = charge_classes().positions
    out[positions] = rho.take(positions)
    return out.reshape(TOTAL_DIM, TOTAL_DIM)


def random_class_diagonal(rng, rank):
    """A random density matrix that is zero off the charge classes: up to
    rank 17 on the largest class, or the class blocks of a full-rank state."""
    if rank == TOTAL_DIM:
        return class_blocks_of(random_density(rng, rank))
    (big,) = charge_classes().stacks[-1]
    b = rng.normal(size=(len(big), rank)) + 1j * rng.normal(size=(len(big), rank))
    rho = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)
    rho[np.ix_(big, big)] = b @ b.conj().T
    return rho / np.trace(rho)


def uncooled_states(kind, steps=4):
    """The states of an uncooled rate-0.01 run after each Trotter step and each noise."""
    cfg, spec = TrotterConfig(1.0, 0.1 * steps, steps), NoiseSpec(kind, 0.01)
    rho = np.outer(vacuum_state(), vacuum_state().conj())
    states = []
    for _ in range(steps):
        rho = trotter_step(rho, cfg)
        states.append(rho)
        rho = apply_noise_all_edges(rho, spec)
        states.append(rho)
    return states


PACKED_INPUTS = {
    **{f"rank{r}": lambda r=r: random_class_diagonal(np.random.default_rng(r), r)
       for r in (1, 8, TOTAL_DIM)},
    **{f"{kind}_step{k}": lambda kind=kind, k=k: uncooled_states(kind)[k]
       for kind in ("depolarizing", "amplitude_damping") for k in (0, 3, 7)},
}


@pytest.mark.parametrize("seed", range(3))
def test_trotter_step_and_edge_noise_keep_the_charge_classes(seed):
    """Weak symmetry: class-diagonal Hermitian input stays class-diagonal
    under the dense U sandwich and each dense edge channel."""
    rng = np.random.default_rng(seed)
    h = class_blocks_of(rng.normal(size=(TOTAL_DIM,) * 2) + 1j * rng.normal(size=(TOTAL_DIM,) * 2))
    h = h + h.conj().T
    u = trotter_unitary(1.0 + seed, 0.1 + 0.2 * seed)
    outputs = [u @ h @ u.conj().T]
    for e in range(N_EDGES):
        outputs += [depolarizing_channel(h, e, 0.3), amplitude_damping_channel(h, e, 0.3)]
    for out in outputs:
        assert np.max(np.abs(out - class_blocks_of(out))) < 1e-12


@pytest.mark.parametrize("g2, dt", [(1.0, 0.1), (0.5, 0.05), (2.0, 0.37)])
def test_trotter_unitary_is_exactly_zero_between_classes(g2, dt):
    u = trotter_unitary(g2, dt)
    assert not (u - class_blocks_of(u)).any()


def both_paths(monkeypatch, func, *args):
    """func(*args) on the packed path, then on the dense path."""
    assert pack(args[0]) is not None
    fast = func(*args)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "pack", lambda rho: None)
        return fast, func(*args)


@pytest.mark.parametrize("name", PACKED_INPUTS)
def test_packed_kernels_match_the_dense_path(monkeypatch, name):
    """Off the packed path, the Trotter step runs on the class pairs rho's
    nonzeros touch: the same blocks, and the same bits."""
    rho = PACKED_INPUTS[name]()
    fast, dense = both_paths(monkeypatch, trotter_step, rho, TrotterConfig(1.3, 0.37, 1))
    assert np.array_equal(fast, dense)
    for kind in ("depolarizing", "amplitude_damping"):
        for rate in (0.01, 0.37):
            fast, dense = both_paths(monkeypatch, apply_noise_all_edges, rho, NoiseSpec(kind, rate))
            assert np.array_equal(fast, dense)
    fast, dense = both_paths(monkeypatch, hygiene, rho)
    assert fast == dense


class KernelSpy:
    """Records each ``pack`` result's path and each kernel call of dynamics."""

    def __init__(self, monkeypatch):
        self.packed, self.calls = [], []
        pack_ = dynamics.pack

        def spy_pack(rho):
            packed = pack_(rho)
            self.packed.append(packed is not None)
            return packed

        monkeypatch.setattr(dynamics, "pack", spy_pack)
        for name in ("_pair_trotter", "_packed_noise"):
            monkeypatch.setattr(dynamics, name, self.record(name, getattr(dynamics, name)))
        monkeypatch.setattr(ChargeClasses, "blocks", self.record("blocks", ChargeClasses.blocks))

    def record(self, name, func):
        def wrapped(*args, **kwargs):
            self.calls.append(name)
            return func(*args, **kwargs)
        return wrapped


def test_one_tiny_off_class_entry_takes_the_dense_path(monkeypatch):
    """The noise and hygiene read such a rho densely; the Trotter step runs
    on the class pairs it touches, and its class blocks keep their bits."""
    rho = random_class_diagonal(np.random.default_rng(9), TOTAL_DIM)
    tiny = rho.copy()
    lone = charge_classes().stacks[0][0, 0]
    tiny[0, lone] = tiny[lone, 0] = 1e-300
    cfg, spec = TrotterConfig(1.0, 0.1, 1), NoiseSpec("amplitude_damping", 0.01)
    spy = KernelSpy(monkeypatch)
    step, noisy, health = trotter_step(rho, cfg), apply_noise_all_edges(rho, spec), hygiene(rho)
    assert spy.packed == [True] * 3
    spy.packed.clear()
    spy.calls.clear()
    tiny_step, tiny_noisy = trotter_step(tiny, cfg), apply_noise_all_edges(tiny, spec)
    tiny_health = hygiene(tiny)
    assert spy.packed == [False] * 3 and spy.calls == ["_pair_trotter"]
    assert np.max(np.abs(tiny_step - step)) <= 1e-15
    assert np.array_equal(class_blocks_of(tiny_step), step)
    assert np.array_equal(class_blocks_of(tiny_noisy), noisy)
    assert np.max(np.abs(tiny_noisy - noisy)) <= 1e-300
    assert tiny_health[:2] == health[:2]
    assert abs(tiny_health[2] - health[2]) <= 1e-15


def test_uncooled_runs_step_on_the_packed_kernels(monkeypatch, tmp_path):
    """Every uncooled library step is packed; an `evolve` holds rho as entries
    from the vacuum on, cooled or not, and so does `converge`: they call
    none of the dense-input steps, no dense recovery and no ``pack``."""
    argv = ["evolve", "--rate", "0.01", "--steps", "3", "--time", "0.3"]
    # warm: a first _class_trotter call reads the class blocks too
    uncooled_states("amplitude_damping", steps=3)
    assert main([*argv, "--out", str(tmp_path / "warm.csv")]) == 0
    spy = KernelSpy(monkeypatch)
    for state in uncooled_states("amplitude_damping", steps=3)[1::2]:
        hygiene(state)
    assert spy.packed == [True] * 9
    assert spy.calls == ["_pair_trotter", "_packed_noise"] * 3 + ["blocks"] * 3
    for module, name in ((cooling, "_pair_trotter"), (cooling, "_packed_noise"),
                         (dynamics, "trotter_step"), (dynamics, "apply_noise_all_edges"),
                         (cooling, "iterative_cooling"), (cooling, "cool_vertex")):
        monkeypatch.setattr(module, name, spy.record(name, getattr(module, name)))
    for cool in ("off", "on"):
        spy.packed.clear()
        spy.calls.clear()
        assert main([*argv, "--cool", cool, "--out", str(tmp_path / f"{cool}.csv")]) == 0
        assert spy.packed == []
        assert spy.calls == ["_pair_trotter", "_packed_noise"] * 3
    monkeypatch.setattr(cooling, "_cool_stage", spy.record("_cool_stage", cooling._cool_stage))
    spy.calls.clear()
    assert main(["converge", "--rate", "0.01", "--out", str(tmp_path / "converge.csv")]) == 0
    sweeps = len((tmp_path / "converge.csv").read_text().splitlines()) - 2
    assert spy.packed == [] and sweeps == 10
    assert spy.calls == ["_pair_trotter", "_packed_noise"] + ["_cool_stage"] * 4 * sweeps


# ---------------------------------------------------------------- fidelity


def test_fidelity_examples():
    rng = np.random.default_rng(14)
    psi = rng.normal(size=TOTAL_DIM) + 1j * rng.normal(size=TOTAL_DIM)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)
    mixed = np.eye(TOTAL_DIM, dtype=complex) / TOTAL_DIM
    assert fidelity(mixed, psi) == pytest.approx(1.0 / TOTAL_DIM, abs=1e-12)
    phi = rng.normal(size=TOTAL_DIM) + 1j * rng.normal(size=TOTAL_DIM)
    phi -= (psi.conj() @ phi) * psi
    phi /= np.linalg.norm(phi)
    assert abs(fidelity(rho, phi)) < 1e-12


def test_fidelity_reads_rho_on_the_support_of_psi_only():
    """The read on supp psi x supp psi is the dense psi^dagger rho psi to 1e-15,
    for a psi on every state and for one on the vacuum's charge class; an
    entry outside that block never enters, and a NaN inside it does."""
    rng = np.random.default_rng(15)
    rho = random_density(rng)
    stack = next(idx for idx in charge_classes().stacks if 0 in idx)
    vacuum_class = stack[(stack == 0).any(axis=1)][0]
    full = rng.normal(size=TOTAL_DIM) + 1j * rng.normal(size=TOTAL_DIM)
    on_class = np.zeros(TOTAL_DIM, dtype=complex)
    on_class[vacuum_class] = rng.normal(size=len(vacuum_class)) + 1j
    for psi in (full / np.linalg.norm(full), on_class / np.linalg.norm(on_class)):
        assert abs(fidelity(rho, psi) - np.real(psi.conj() @ rho @ psi)) <= 1e-15
    outside = np.ones((TOTAL_DIM, TOTAL_DIM), dtype=bool)
    outside[np.ix_(vacuum_class, vacuum_class)] = False
    for bad in (np.nan, np.inf):
        off = rho.copy()
        off[outside] = bad
        assert fidelity(off, on_class) == fidelity(rho, on_class)
    inside = rho.copy()
    inside[vacuum_class[0], vacuum_class[-1]] = np.nan
    assert np.isnan(fidelity(inside, on_class))
