import gc
import tracemalloc

import numpy as np
import pytest

from gaugecool.dynamics import (
    NoiseSpec,
    TrotterConfig,
    apply_noise_all_edges,
    hygiene,
    trotter_step,
    trotter_unitary,
    _class_edge_maps,
    _class_trotter,
    _diagonal_pairs,
    _step_maps,
)
from gaugecool.hamiltonian import magnetic_plaquette_matrix
from gaugecool.lattice import (
    EDGE_ENDPOINTS,
    _pair_generators,
    _state_layout,
    TOTAL_DIM,
    build_cg_basis,
    charge_classes,
    edge_basis,
    gauge_casimir,
    gauge_generator,
    lift_pair,
    local_view,
    pack,
    pair_cg_basis,
    pair_edges,
    singlet_projector,
    unpack,
    vacuum_state,
    vertex_edges,
)
from gaugecool.cooling import (
    Held,
    _pair_blocks,
    _pair_superoperator,
    _settled,
    _sweep_maps,
    cool_vertex,
    iterative_cooling,
    syndrome_probabilities,
)
from gaugecool.klaudit import residual_pauli_weights
from gaugecool.su2 import _cg_blocks, _spin_matrices, pauli_matrices, wigner_d
from gaugecool.tdesign import (
    DesignSet,
    binary_octahedral_design,
    discrete_syndrome_check,
    tdesign_deviations,
)
from gaugecool.reference import (
    amplitude_damping_channel,
    apply_edge_kraus,
    depolarizing_channel,
    edge_state_index,
    embed_edge_operator,
    gauge_action,
    haar_batch,
    haar_mc_oracle,
    physical_subspace_basis,
    product_index,
    recovery_kraus,
    syndrome_operator,
)


def unitary_from_generator(v, axis, theta):
    """exp(-i theta G_a) via eigendecomposition (test-side oracle)."""
    g = gauge_generator(v, axis)
    evals, evecs = np.linalg.eigh(g)
    return (evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T


def test_geometry():
    assert EDGE_ENDPOINTS == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert vertex_edges(0) == (0, 3)
    assert vertex_edges(1) == (1, 0)
    assert vertex_edges(2) == (2, 1)
    assert vertex_edges(3) == (3, 2)


def test_edge_dimension():
    assert [len(edge_basis(k)) for k in (0, 1, 2)] == [1, 5, 14]


def test_edge_basis_enumeration():
    assert edge_basis(1) == [
        (0, 0, 0),
        (1, -1, -1),
        (1, -1, 1),
        (1, 1, -1),
        (1, 1, 1),
    ]
    assert edge_state_index(0, 0, 0) == 0
    assert edge_state_index(1, 1, -1) == 3
    with pytest.raises(ValueError):
        edge_state_index(1, 0, 0)


def test_embed_identity():
    assert np.allclose(embed_edge_operator(np.eye(5), 2), np.eye(TOTAL_DIM))


def test_embed_kron_structure():
    d = np.diag([0.0, 1.0, 1.0, 1.0, 1.0])
    full = embed_edge_operator(d, 0)
    diag = np.diag(full)
    assert np.allclose(diag[:125], 0.0)
    assert np.allclose(diag[125:], 1.0)


def test_embed_trace_multiplicative():
    rng = np.random.default_rng(1)
    op = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    for e in range(4):
        assert np.trace(embed_edge_operator(op, e)) == pytest.approx(
            125 * np.trace(op), abs=1e-9
        )


def test_local_view_axes_and_writes():
    """On rho = A0 (x) A1 (x) A2 (x) A3 each (ket, bra) index pair belongs to one factor."""
    rng = np.random.default_rng(2)
    ops = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in range(4)]
    rho = np.kron(np.kron(ops[0], ops[1]), np.kron(ops[2], ops[3]))
    for edges in ((2,), (0, 3), (3, 0), (1, 2, 0)):
        k = len(edges)
        order = [*edges, *(e for e in range(4) if e not in edges)]
        view = local_view(rho, edges)
        for idx in rng.integers(0, 5, size=(40, 8)):
            kets = [*idx[:k], *idx[2 * k : 4 + k]]
            bras = [*idx[k : 2 * k], *idx[4 + k :]]
            expected = np.prod([ops[e][a, b] for e, a, b in zip(order, kets, bras)])
            assert view[tuple(idx)] == pytest.approx(expected, abs=1e-12)
    out = np.zeros((TOTAL_DIM, TOTAL_DIM), dtype=complex)
    local_view(out, (1,))[3, 4, 0, 0, 0, 0, 0, 0] = 1.0
    assert out[product_index(0, 3, 0, 0), product_index(0, 4, 0, 0)] == 1.0
    assert np.count_nonzero(out) == 1


def test_charge_classes_are_the_joint_gz_eigenspaces():
    """The classes are derived here from the dense G_z^v, then counted."""
    gz = np.stack([np.diag(gauge_generator(v, "z")) for v in range(4)], axis=1)
    for v in range(4):
        assert np.count_nonzero(gauge_generator(v, "z")) == np.count_nonzero(gz[:, v])
    labels = {}
    for state, charges in enumerate(map(tuple, gz.real)):
        labels.setdefault(charges, []).append(state)
    want = sorted(labels.values(), key=lambda c: (len(c), c))
    classes = charge_classes()
    got = sorted((list(c) for idx in classes.stacks for c in idx), key=lambda c: (len(c), c))
    assert got == want
    sizes = {len(c): sum(len(d) == len(c) for d in want) for c in want}
    assert len(want) == 281
    assert sizes == {1: 112, 2: 112, 4: 32, 5: 16, 8: 8, 17: 1}
    assert len(classes.positions) == sum(len(c) ** 2 for c in want) == 2273
    # stacks by size ascending, and positions stack by stack, each block row-major
    assert [idx.shape[1] for idx in classes.stacks] == sorted(sizes)
    blocks = [(idx[:, :, None] * TOTAL_DIM + idx[:, None, :]).ravel() for idx in classes.stacks]
    assert np.array_equal(classes.positions, np.concatenate(blocks))


def class_diagonal(rng):
    """A random complex matrix that is zero off the charge classes."""
    rho = np.zeros(TOTAL_DIM * TOTAL_DIM, dtype=complex)
    positions = charge_classes().positions
    rho[positions] = rng.normal(size=len(positions)) + 1j * rng.normal(size=len(positions))
    return rho.reshape(TOTAL_DIM, TOTAL_DIM)


def test_pack_round_trip_and_views():
    rho = class_diagonal(np.random.default_rng(5))
    classes = charge_classes()
    packed = pack(rho)
    assert np.array_equal(unpack(packed), rho)
    assert np.array_equal(pack(np.asfortranarray(rho)), packed)
    for idx, block in zip(classes.stacks, classes.blocks(packed)):
        assert np.array_equal(block, rho[idx[:, :, None], idx[:, None, :]])
    real = rho.real.copy()
    assert np.array_equal(unpack(pack(real)), real)


def test_pack_refuses_any_weight_off_the_classes():
    rho = class_diagonal(np.random.default_rng(6))
    off = (0, charge_classes().stacks[0][0, 0])  # the vacuum and a lone state
    for value in (1e-300, -5e-324, 1e-300j, np.nan, np.inf):
        bad = rho.copy()
        bad[off] = value
        assert pack(bad) is None
    # -0.0 is zero: a negative zero off the classes still packs
    signed = rho.copy()
    signed[off] = complex(-0.0, -0.0)
    assert np.array_equal(pack(signed), pack(rho))
    # a NaN on the classes packs, and the kernels' own checks see it
    on = rho.copy()
    on[0, 0] = np.nan
    assert np.count_nonzero(np.isnan(pack(on))) == 1
    assert pack(np.zeros((TOTAL_DIM, TOTAL_DIM - 1))) is None


def test_lift_pair_matches_kron_embedding():
    """lift_pair(a (x) b) is a on the outgoing edge times b on the incoming edge."""
    rng = np.random.default_rng(4)
    for v in range(4):
        e_out, e_in = vertex_edges(v)
        for _ in range(3):
            # entries of modulus below 1, so every product is below 1 too
            a, b = rng.uniform(-0.5, 0.5, (2, 5, 5)) + 1j * rng.uniform(-0.5, 0.5, (2, 5, 5))
            expected = embed_edge_operator(a, e_out) @ embed_edge_operator(b, e_in)
            assert np.max(np.abs(lift_pair(np.kron(a, b), v) - expected)) <= 1e-15
    with pytest.raises(ValueError):
        lift_pair(np.eye(5), 0)


def test_a_warm_lift_allocates_one_dense_array():
    """lift_pair scatters the pair operator's nonzeros into the one 625x625
    array it returns: a warm call allocates little beyond it."""
    rng = np.random.default_rng(5)
    op = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
    calls = [lambda v: lift_pair(op, v), singlet_projector]
    for call in calls:
        call(0)  # warm
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        peaks = []
        for call in calls:
            for v in range(4):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                call(v)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        if started:
            tracemalloc.stop()
    assert max(peaks) < 1.1 * TOTAL_DIM**2 * np.dtype(complex).itemsize


_VACUUM_RHO = np.outer(vacuum_state(), vacuum_state())

_VERTEX_CALLS = {
    "vertex_edges": vertex_edges,
    "pair_edges": pair_edges,
    "lift_pair": lambda v: lift_pair(np.eye(25), v),
    "gauge_generator": lambda v: gauge_generator(v, "x"),
    "gauge_casimir": gauge_casimir,
    "gauge_action": lambda v: gauge_action(v, np.eye(2)),
    "build_cg_basis": build_cg_basis,
    "singlet_projector": singlet_projector,
    "syndrome_operator": lambda v: syndrome_operator(v, 0, 0, 0),
    "syndrome_probabilities": lambda v: syndrome_probabilities(_VACUUM_RHO, v),
    "recovery_kraus": recovery_kraus,
    "cool_vertex": lambda v: cool_vertex(_VACUUM_RHO, v),
    "discrete_syndrome_check": lambda v: discrete_syndrome_check(binary_octahedral_design(), v),
}


@pytest.mark.parametrize("v", [4, -1, 1.5, 2.0])
@pytest.mark.parametrize("name", sorted(_VERTEX_CALLS))
def test_vertex_out_of_range_is_value_error(name, v):
    with pytest.raises(ValueError, match="vertex index out of range"):
        _VERTEX_CALLS[name](v)


_EDGE_CALLS = {
    "embed_edge_operator": lambda e: embed_edge_operator(np.eye(5), e),
    "local_view": lambda e: local_view(_VACUUM_RHO, (e,)),
    "apply_edge_kraus": lambda e: apply_edge_kraus(_VACUUM_RHO, [np.eye(5)], e),
    "depolarizing_channel_rate0": lambda e: depolarizing_channel(_VACUUM_RHO, e, 0.0),
    "depolarizing_channel": lambda e: depolarizing_channel(_VACUUM_RHO, e, 0.1),
    "amplitude_damping_channel_rate0": lambda e: amplitude_damping_channel(_VACUUM_RHO, e, 0.0),
    "amplitude_damping_channel": lambda e: amplitude_damping_channel(_VACUUM_RHO, e, 0.1),
}


@pytest.mark.parametrize("e", [4, -1, 1.5, 2.0])
@pytest.mark.parametrize("name", sorted(_EDGE_CALLS))
def test_edge_out_of_range_is_value_error(name, e):
    with pytest.raises(ValueError, match="edge index out of range"):
        _EDGE_CALLS[name](e)


_OCTAHEDRAL = binary_octahedral_design().elements
_COUNT_CALLS = {
    "DesignSet_claimed_t_nan": lambda: DesignSet(_OCTAHEDRAL, claimed_t=float("nan")),
    "DesignSet_claimed_t_inf": lambda: DesignSet(_OCTAHEDRAL, claimed_t=float("inf")),
    "DesignSet_claimed_t_2.5": lambda: DesignSet(_OCTAHEDRAL, claimed_t=2.5),
    "tdesign_deviations_2.5": lambda: tdesign_deviations(binary_octahedral_design(), 2.5),
    "haar_mc_oracle_nan": lambda: haar_mc_oracle(float("nan"), np.random.default_rng(0)),
    "haar_mc_oracle_2.5": lambda: haar_mc_oracle(2.5, np.random.default_rng(0)),
    "residual_pauli_weights_2.0": lambda: residual_pauli_weights(reference_edge=2.0),
}


@pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
def test_non_integer_count_is_value_error(name):
    # integer parameters reject a float (even an integral one) before any use
    with pytest.raises(ValueError, match="must be an integer|must be 0"):
        _COUNT_CALLS[name]()


@pytest.mark.parametrize(
    "get, size, mu",
    [
        (pair_cg_basis, 25, {0: 5, 1: 4, 2: 4}),
        (lambda: build_cg_basis(1), TOTAL_DIM, {0: 125, 1: 100, 2: 100}),
    ],
)
def test_cached_bases_are_read_only(get, size, mu):
    with pytest.raises(AttributeError):
        get().entries.append(get().entries[0])
    with pytest.raises(TypeError):
        get().mu[0] = 1
    with pytest.raises(TypeError):
        get().columns[0, 0] = ((), ())
    assert len(get().entries) == size and get().mu == mu
    assert list(get().columns) == [(0, 0), (1, -1), (1, 1), (2, -2), (2, 0), (2, 2)]


def test_spin_keyed_caches_are_bounded():
    for cache, key in ((_spin_matrices, lambda k: (k,)), (_cg_blocks, lambda k: (k, 1))):
        bound = cache.cache_info().maxsize
        assert bound is not None
        for k in range(bound + 2):
            cache(*key(k))
        assert cache.cache_info().currsize <= bound


def test_cached_cg_blocks_are_read_only():
    blocks = _cg_blocks(1, 1)
    with pytest.raises(TypeError):
        blocks[0] = None
    with pytest.raises(AttributeError):
        blocks.clear()
    assert sorted(_cg_blocks(1, 1)) == [0, 2]


def test_gauge_generator_algebra():
    for v in range(4):
        gx = gauge_generator(v, "x")
        gy = gauge_generator(v, "y")
        gz = gauge_generator(v, "z")
        assert np.max(np.abs(gx - gx.conj().T)) < 1e-14
        assert np.max(np.abs(gx @ gy - gy @ gx - 1j * gz)) < 1e-12


def test_gauge_casimir_is_the_sum_of_squared_generators():
    for v in range(4):
        squares = sum(gauge_generator(v, a) @ gauge_generator(v, a) for a in ("x", "y", "z"))
        assert np.array_equal(gauge_casimir(v), squares)


def test_dense_operator_builders_retain_no_dense_array():
    """No cache keeps a dense 625x625 operator once its caller drops it;
    cooling on the settled pattern, the cooled step on its entry patterns, and
    the class-packed Trotter step, noise and hygiene, keep only their small
    index maps."""
    vac = vacuum_state()
    noisy = depolarizing_channel(np.outer(vac, vac.conj()), 0, 0.05)
    assert pack(noisy) is not None
    x = np.zeros(len(_settled().positions) + 1, dtype=complex)
    # built inside the window, whatever ran before
    for cache in (charge_classes, _class_edge_maps, _class_trotter, _diagonal_pairs, _pair_blocks,
                  _state_layout, _settled, _step_maps, _sweep_maps):
        cache.cache_clear()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        magnetic_plaquette_matrix()
        trotter_unitary(1.0, 0.37)
        for v in range(4):
            gauge_generator(v, "z")
            gauge_casimir(v)
            singlet_projector(v)
            build_cg_basis(v)
        report = iterative_cooling(noisy, max_sweeps=3)[1]
        x[0] = 1.0
        held = Held(_settled().positions.tobytes(), x).step(
            TrotterConfig(g2=1.0, total_time=0.37, n_steps=1), NoiseSpec("depolarizing", 0.01))
        held, cooled = held.cool(1e-5, 10)
        gc.collect()
        unpacked = tracemalloc.get_traced_memory()[0]
        stepped = trotter_step(noisy, TrotterConfig(g2=1.0, total_time=0.37, n_steps=1))
        hygiene(apply_noise_all_edges(stepped, NoiseSpec("amplitude_damping", 0.01)))
        del stepped
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    assert after - before < TOTAL_DIM**2 * np.dtype(complex).itemsize
    # the packed path's caches hold O(2,273) entries: less than a byte per
    # entry of a 625x625 lookup table
    assert after - unpacked < TOTAL_DIM**2
    assert report.sweeps_used == 3 and cooled.sweeps_used == 10


def test_gauge_generators_annihilate_vacuum():
    psi = vacuum_state()
    for v in range(4):
        for a in ("x", "y", "z"):
            assert np.max(np.abs(gauge_generator(v, a) @ psi)) == 0.0


def test_gauge_generators_commute_across_vertices():
    # v0/v1 share edge e0 (opposite indices of it); v0/v2 share nothing
    for v, w in ((0, 1), (0, 2)):
        for a in ("x", "y", "z"):
            for b in ("x", "y", "z"):
                gv, gw = gauge_generator(v, a), gauge_generator(w, b)
                assert np.max(np.abs(gv @ gw - gw @ gv)) < 1e-13


def test_gauge_action_identity_and_vacuum():
    assert np.allclose(gauge_action(1, np.eye(2)), np.eye(TOTAL_DIM))
    rng = np.random.default_rng(2)
    psi = vacuum_state()
    for v in range(4):
        g = haar_batch(rng, 1)[0]
        assert np.max(np.abs(gauge_action(v, g) @ psi - psi)) < 1e-12


def test_gauge_action_homomorphism():
    rng = np.random.default_rng(3)
    for k in range(50):
        v = k % 4
        g, h = haar_batch(rng, 1)[0], haar_batch(rng, 1)[0]
        dev = gauge_action(v, g) @ gauge_action(v, h) - gauge_action(v, g @ h)
        assert np.max(np.abs(dev)) < 1e-10


@pytest.mark.parametrize(
    "g, match",
    [
        ([[np.nan, 0], [0, 1]], "non-finite"),
        (np.diag([2.0, 1.0]), "not unitary"),
        (np.diag([1.0, -1.0]), "determinant 1"),
        (np.eye(3), "2x2"),
    ],
    ids=["nan", "diag_2_1", "diag_1_minus_1", "3x3"],
)
@pytest.mark.parametrize("call", [lambda g: wigner_d(2, g), lambda g: gauge_action(0, g)],
                         ids=["wigner_d", "gauge_action"])
def test_a_group_element_outside_su2_is_a_value_error(call, g, match):
    with pytest.raises(ValueError, match=match):
        call(g)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("theta", [0.1, 1.0, np.pi])
def test_gauge_action_matches_generator_exponential(axis, theta):
    x, y, z = pauli_matrices()
    sigma = {"x": x, "y": y, "z": z}[axis]
    evals, evecs = np.linalg.eigh(sigma)
    g = (evecs * np.exp(-1j * theta / 2 * evals)) @ evecs.conj().T
    for v in (0, 2):
        assert np.max(np.abs(gauge_action(v, g) - unitary_from_generator(v, axis, theta))) < 1e-8


def test_cg_basis_orthonormal_complete():
    for v in range(4):
        b = build_cg_basis(v).basis
        assert np.max(np.abs(b.conj().T @ b - np.eye(TOTAL_DIM))) < 1e-10
        assert np.max(np.abs(b @ b.conj().T - np.eye(TOTAL_DIM))) < 1e-10


def test_cg_basis_multiplicities():
    for v in range(4):
        cg = build_cg_basis(v)
        assert cg.mu == {0: 125, 1: 100, 2: 100}
        # sector dimension bookkeeping: 125*1 + 100*2 + 100*3 = 625
        assert sum(m * (tj + 1) for tj, m in cg.mu.items()) == TOTAL_DIM


def test_cg_basis_simultaneous_eigenbasis():
    for v in (0, 3):
        cg = build_cg_basis(v)
        cas = gauge_casimir(v)
        gz = gauge_generator(v, "z")
        jj = np.array([e.twice_J / 2 * (e.twice_J / 2 + 1) for e in cg.entries])
        mm = np.array([e.twice_M / 2 for e in cg.entries])
        assert np.max(np.abs(cas @ cg.basis - cg.basis * jj)) < 1e-8
        assert np.max(np.abs(gz @ cg.basis - cg.basis * mm)) < 1e-8


def test_cg_basis_raising_chains():
    for v in (1, 2):
        cg = build_cg_basis(v)
        gp = gauge_generator(v, "x") + 1j * gauge_generator(v, "y")
        by_key = {(e.twice_J, e.twice_M, e.alpha): e.column for e in cg.entries}
        for e in cg.entries:
            if e.twice_M == e.twice_J:
                continue
            j, m = e.twice_J / 2, e.twice_M / 2
            up = by_key[(e.twice_J, e.twice_M + 2, e.alpha)]
            lhs = gp @ cg.basis[:, e.column] / np.sqrt(j * (j + 1) - m * (m + 1))
            assert np.max(np.abs(lhs - cg.basis[:, up])) < 1e-10


def test_cg_basis_is_pair_basis_times_spectator_states():
    pair = pair_cg_basis()
    assert pair.mu == {0: 5, 1: 4, 2: 4}
    assert np.max(np.abs(pair.basis.conj().T @ pair.basis - np.eye(25))) < 1e-12
    pair_column = {(e.twice_J, e.twice_M, e.alpha): e.column for e in pair.entries}
    for v in range(4):
        cg = build_cg_basis(v)
        # rows reordered to (out edge, in edge, spectator edges)
        lifted = cg.basis.reshape((5,) * 4 + (TOTAL_DIM,)).transpose(*pair_edges(v), 4)
        lifted = lifted.reshape(25, 25, TOTAL_DIM)
        for e in cg.entries:
            spectators = np.zeros(25)
            spectators[5 * e.alpha[3] + e.alpha[4]] = 1.0
            vec = pair.basis[:, pair_column[e.twice_J, e.twice_M, e.alpha[:3]]]
            assert np.array_equal(lifted[:, :, e.column], np.outer(vec, spectators))


def test_pair_cg_basis_chains_and_phases():
    pair = pair_cg_basis()
    b = pair.basis
    gx, gy, gz = _pair_generators()
    jj = np.array([e.twice_J / 2 * (e.twice_J / 2 + 1) for e in pair.entries])
    mm = np.array([e.twice_M / 2 for e in pair.entries])
    assert np.max(np.abs((gx @ gx + gy @ gy + gz @ gz) @ b - b * jj)) <= 1e-15
    assert np.max(np.abs(gz @ b - b * mm)) <= 1e-15
    assert np.max(np.abs(b.conj().T @ b - np.eye(25))) <= 1e-15
    by_key = {(e.twice_J, e.twice_M, e.alpha): e.column for e in pair.entries}
    for e in pair.entries:
        vec = b[:, e.column]
        if e.twice_M == -e.twice_J:
            top = vec[np.argmax(np.abs(vec))]
            assert top.imag == 0 and top.real > 0
        if e.twice_M < e.twice_J:
            j, m = e.twice_J / 2, e.twice_M / 2
            up = b[:, by_key[e.twice_J, e.twice_M + 2, e.alpha]]
            lhs = (gx + 1j * gy) @ vec / np.sqrt(j * (j + 1) - m * (m + 1))
            assert np.max(np.abs(lhs - up)) <= 1e-15
    # an exact basis keeps the recovery superoperator on 81 rows and 113 columns
    assert _pair_superoperator()[2].shape == (81, 113)


def test_cg_basis_singlets_first():
    cg = build_cg_basis(0)
    assert all(e.twice_J == 0 for e in cg.entries[:125])
    assert cg.columns[0, 0][0] == tuple(range(125))


def test_gauge_action_block_structure():
    rng = np.random.default_rng(9)
    cg = build_cg_basis(0)
    group = {}
    gid = np.empty(TOTAL_DIM, dtype=int)
    for e in cg.entries:
        gid[e.column] = group.setdefault((e.twice_J, e.alpha), len(group))
    off_block = gid[:, None] != gid[None, :]
    for _ in range(20):
        u = gauge_action(0, haar_batch(rng, 1)[0])
        t = cg.basis.conj().T @ u @ cg.basis
        assert np.max(np.abs(t[off_block])) < 1e-8


def test_singlet_projector_axioms():
    for v in range(4):
        p = singlet_projector(v)
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.trace(p).real == pytest.approx(125, abs=1e-8)
        psi = vacuum_state()
        assert np.max(np.abs(p @ psi - psi)) < 1e-12


def test_singlet_projector_matches_casimir_nullspace():
    v = 2
    evals, evecs = np.linalg.eigh(gauge_casimir(v))
    null = evecs[:, evals < 1e-8]
    assert null.shape[1] == 125
    assert np.max(np.abs(null @ null.conj().T - singlet_projector(v))) < 1e-8


def test_physical_subspace():
    basis = physical_subspace_basis()
    assert basis.shape == (TOTAL_DIM, 2)
    assert not basis.flags.writeable
    psi = vacuum_state()
    # vacuum lies in the subspace
    proj = basis @ (basis.conj().T @ psi)
    assert np.max(np.abs(proj - psi)) < 1e-10
