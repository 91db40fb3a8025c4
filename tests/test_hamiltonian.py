import itertools

import numpy as np
import pytest

from gaugecool.dynamics import herm_expm, trotter_unitary
from gaugecool.hamiltonian import (
    _edge_tensor,
    electric_edge_term,
    electric_hamiltonian,
    haar_mc_oracle,
    magnetic_hamiltonian,
    magnetic_plaquette_matrix,
)
from gaugecool.lattice import (
    TOTAL_DIM,
    _blocks_by_size,
    _components,
    edge_basis,
    edge_state_index,
    gauge_casimir,
    product_index,
    vacuum_state,
)


def test_electric_diagonal_values():
    he = electric_hamiltonian(1.0)
    assert np.max(np.abs(he - np.diag(np.diag(he)))) == 0.0
    diag = np.diag(he).real
    assert diag[0] == 0.0
    assert diag[product_index(1, 0, 0, 0)] == pytest.approx(3 / 8)
    assert diag[product_index(0, 0, 3, 0)] == pytest.approx(3 / 8)
    assert diag[product_index(1, 2, 3, 4)] == pytest.approx(3 / 2)
    assert electric_hamiltonian(2.0)[1, 1] == pytest.approx(2 * diag[1])


def test_electric_commutes_with_casimirs():
    he = electric_hamiltonian(1.0)
    for v in range(4):
        c = gauge_casimir(v)
        assert np.max(np.abs(he @ c - c @ he)) < 1e-12


def test_edge_tensor_frozen_value():
    t = _edge_tensor()
    # raising the vacuum edge with a = b = +1/2 lands on |1/2,+,+> with 1/sqrt(2)
    ip = edge_state_index(1, 1, 1)
    assert t[1, 1, ip, 0] == pytest.approx(1 / np.sqrt(2))
    col = t[1, 1, :, 0].copy()
    col[ip] = 0.0
    assert np.all(col == 0.0)


def test_edge_tensor_selection_rules():
    t = _edge_tensor()
    labels = edge_basis(1)
    for (ai, ta), (bi, tb) in itertools.product(enumerate((-1, 1)), repeat=2):
        for i, (tj, tm, tn) in enumerate(labels):
            for ip, (tjp, tmp, tnp) in enumerate(labels):
                if tmp != ta + tm or tnp != tb + tn or abs(tjp - tj) != 1:
                    assert t[ai, bi, ip, i] == 0.0


def dense_plaquette_matrix() -> np.ndarray:
    """The plaquette matrix as the dense kron contraction of the four edge
    tensors, e0*e1 -> e2 -> e3 -> close the trace index: the reference for
    the entry-level contraction."""
    t = _edge_tensor()
    m01 = {
        (a, b1): sum(np.kron(t[a, b0], t[b0, b1]) for b0 in range(2))
        for a in range(2)
        for b1 in range(2)
    }
    m012 = {
        (a, b2): sum(np.kron(m01[a, b1], t[b1, b2]) for b1 in range(2))
        for a in range(2)
        for b2 in range(2)
    }
    p = sum(np.kron(m012[a, b2], t[b2, a]) for a in range(2) for b2 in range(2))
    return p.astype(complex)


def dense_magnetic_hamiltonian(g2: float) -> np.ndarray:
    p = dense_plaquette_matrix()
    return -(p + p.conj().T) / (2.0 * g2)


def test_plaquette_entries_give_the_dense_contraction_bits():
    assert magnetic_plaquette_matrix().tobytes() == dense_plaquette_matrix().tobytes()
    assert np.count_nonzero(magnetic_plaquette_matrix()) == 256
    for g2 in (1.0, 2.5, 0.7):
        assert magnetic_hamiltonian(g2).tobytes() == dense_magnetic_hamiltonian(g2).tobytes()


@pytest.mark.parametrize("g2, dt", [(1.0, 0.1), (2.5, 0.03), (0.7, 0.25)])
def test_trotter_factors_give_the_bits_of_the_dense_magnetic_block(g2, dt):
    """The moved block of the dense H_B, exponentiated on each connected
    block of its nonzero graph, is U's block before the electric phase."""
    hb = dense_magnetic_hamiltonian(g2)
    moved = np.flatnonzero(hb.any(axis=1))
    hb = hb[np.ix_(moved, moved)]
    want = np.zeros(hb.shape, dtype=complex)
    for idx in _blocks_by_size(_components(len(hb), *np.nonzero(hb))):
        ix = idx[:, :, None], idx[:, None, :]
        want[ix] = herm_expm(hb[ix], dt)
    phases = np.exp(-1j * dt * np.diag(electric_hamiltonian(g2)).real)
    got = trotter_unitary(g2, dt)[np.ix_(moved, moved)]
    assert got.tobytes() == (want * phases[moved, None]).tobytes()


def test_magnetic_hermitian_real():
    hb = magnetic_hamiltonian(1.0)
    assert np.max(np.abs(hb - hb.conj().T)) < 1e-12
    assert np.max(np.abs(hb.imag)) < 1e-12


def test_magnetic_commutes_with_casimirs():
    hb = magnetic_hamiltonian(1.0)
    for v in range(4):
        c = gauge_casimir(v)
        assert np.max(np.abs(hb @ c - c @ hb)) < 1e-10


def test_magnetic_scaling():
    hb1 = magnetic_hamiltonian(1.0)
    hb4 = magnetic_hamiltonian(4.0)
    assert np.max(np.abs(hb4 - hb1 / 4.0)) < 1e-14
    for g2 in (0.0, float("nan"), float("inf")):
        for build in (magnetic_hamiltonian, electric_hamiltonian, electric_edge_term):
            with pytest.raises(ValueError):
                build(g2)


def test_plaquette_flips_every_edge_spin():
    """The plaquette operator changes the spin of all four edges at once."""
    p = magnetic_plaquette_matrix()
    spins = np.array(
        [
            [int(i > 0) for i in (i0, i1, i2, i3)]
            for i0 in range(5)
            for i1 in range(5)
            for i2 in range(5)
            for i3 in range(5)
        ]
    )
    same = spins[:, None, :] == spins[None, :, :]
    allowed = ~same.any(axis=2)
    assert np.max(np.abs(p[~allowed])) == 0.0


def test_plaquette_vacuum_column():
    p = magnetic_plaquette_matrix()
    col = p[:, 0]
    nz = np.nonzero(col)[0]
    assert len(nz) == 16
    assert np.allclose(col[nz], 0.25)
    assert abs(np.linalg.norm(col) - 1.0) < 1e-12
    assert p[0, 0] == 0.0


def test_mc_oracle_matches_contraction():
    rng = np.random.default_rng(2024)
    est = haar_mc_oracle(20000, rng)
    dev = np.max(np.abs(est - magnetic_plaquette_matrix()))
    assert dev < 0.2


def test_mc_oracle_deviation_shrinks():
    exact = magnetic_plaquette_matrix()
    dev_small = np.max(np.abs(haar_mc_oracle(10000, np.random.default_rng(5)) - exact))
    dev_large = np.max(np.abs(haar_mc_oracle(40000, np.random.default_rng(5)) - exact))
    assert dev_large < dev_small


def test_mc_oracle_input_validation():
    with pytest.raises(ValueError):
        haar_mc_oracle(0, np.random.default_rng(0))
