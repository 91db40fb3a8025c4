import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Rational, S
from sympy.physics.quantum.cg import CG

from gaugecool.klaudit import (
    PAIR_KL_REFERENCE,
    SINGLET_LABELS,
    TRIPLET_LABELS,
    ResidualTable,
    convention_audit,
    coord4_cg_basis,
    detection_check,
    edge_operator,
    kl_product,
    multiplicity_map,
    residual_pauli_weights,
    wigner_eckart_residual,
)
from gaugecool.su2 import pauli_matrices

PAULIS = ("X", "Y", "Z")
EDGES = range(4)


def oracle_vector(j12, j34, J, M):
    """|(j12,j34) J M> via explicit sympy CG sums, independent of the package.

    Components follow kron(e0, e1, e2, e3) with each factor in the
    ascending-m qubit basis (index 0 <-> m = -1/2).
    """
    halves = (Rational(-1, 2), Rational(1, 2))
    vec = np.zeros(16)
    for i, (m0, m1, m2, m3) in enumerate(itertools.product(halves, repeat=4)):
        amp = (
            CG(S.Half, m0, S.Half, m1, j12, m0 + m1)
            * CG(S.Half, m2, S.Half, m3, j34, m2 + m3)
            * CG(j12, m0 + m1, j34, m2 + m3, J, M)
        ).doit()
        vec[i] = float(amp.evalf())
    return vec


def test_basis_shape_and_labels():
    b = coord4_cg_basis()
    assert b.vectors.shape == (16, 16)
    assert len(b.labels) == 16
    assert b.sector(0).shape == (16, 2)
    assert b.sector(1).shape == (16, 9)
    assert b.sector(2).shape == (16, 5)
    singlet_labels = [lab for lab in b.labels if lab[2] == 0]
    assert singlet_labels == [(0, 0, 0, 0), (1, 1, 0, 0)]
    m0_triplets = [lab for lab in b.labels if lab[2] == 1 and lab[3] == 0]
    assert [(j12, j34) for j12, j34, _, _ in m0_triplets] == list(TRIPLET_LABELS)
    assert SINGLET_LABELS == ((0, 0), (1, 1))


def test_basis_orthonormal():
    b = coord4_cg_basis().vectors
    assert np.max(np.abs(b.conj().T @ b - np.eye(16))) < 1e-12


def test_basis_against_sympy_oracle():
    b = coord4_cg_basis()
    for i, (j12, j34, J, M) in enumerate(b.labels):
        ref = oracle_vector(j12, j34, J, M)
        assert np.max(np.abs(b.vectors[:, i] - ref)) < 1e-12, (j12, j34, J, M)


def test_top_spin_highest_weight_is_all_up():
    b = coord4_cg_basis()
    col = b.vectors[:, b.index(1, 1, 2, 2)]
    expected = np.zeros(16)
    expected[15] = 1.0  # all four qubits in m = +1/2
    assert np.max(np.abs(col - expected)) < 1e-12


def test_projectors_resolve_identity():
    b = coord4_cg_basis()
    total = np.zeros((16, 16), dtype=complex)
    for J, dim in ((0, 2), (1, 9), (2, 5)):
        p = b.projector(J)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.trace(p).real == pytest.approx(dim, abs=1e-12)
        total += p
    assert np.max(np.abs(total - np.eye(16))) < 1e-12


def test_index_and_sector_validation():
    b = coord4_cg_basis()
    with pytest.raises(ValueError):
        b.index(0, 1, 0, 0)  # (0,1) is not a singlet channel
    with pytest.raises(ValueError):
        b.sector(3)
    with pytest.raises(ValueError):
        b.sector(1, 2)


def test_every_single_edge_pauli_is_detected():
    b = coord4_cg_basis()
    s = b.singlets
    top = b.sector(2)
    for p, k in itertools.product(PAULIS, EDGES):
        assert detection_check(p, k) < 1e-12, (p, k)
        reach_top = np.max(np.abs(top.conj().T @ edge_operator(p, k) @ s))
        assert reach_top < 1e-12, (p, k)


def test_identity_is_not_an_error():
    for k in EDGES:
        assert detection_check("I", k) == pytest.approx(1.0, abs=1e-12)


def test_two_edge_error_evades_detection():
    zz = edge_operator("Z", 0) @ edge_operator("Z", 1)
    s = coord4_cg_basis().singlets
    block = s.conj().T @ zz @ s
    assert np.max(np.abs(block)) > 0.5
    # Z_0 Z_1 maps singlets to singlets through the J = 1 sector, so its
    # codespace block is exactly the Knill-Laflamme pair product.
    assert np.max(np.abs(block - PAIR_KL_REFERENCE)) < 1e-12


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=6, max_size=6))
@settings(max_examples=25, deadline=None)
def test_detection_extends_to_any_traceless_edge_operator(coeffs):
    x, y, z = pauli_matrices()
    c = np.array(coeffs[:3]) + 1j * np.array(coeffs[3:])
    op = c[0] * x + c[1] * y + c[2] * z
    b = coord4_cg_basis()
    s = b.singlets
    eye = np.eye(2, dtype=complex)
    for k in EDGES:
        mats = [op if e == k else eye for e in EDGES]
        full = np.kron(np.kron(mats[0], mats[1]), np.kron(mats[2], mats[3]))
        assert np.max(np.abs(s.conj().T @ full @ s)) < 1e-10
        assert np.max(np.abs(b.sector(2).conj().T @ full @ s)) < 1e-10


def test_spherical_maps_have_unit_singular_values():
    for q, k in itertools.product((-1, 0, 1), EDGES):
        a = multiplicity_map(q, k)
        assert a.m_target == q
        sv = np.linalg.svd(a.matrix, compute_uv=False)
        assert np.max(np.abs(sv - 1.0)) < 1e-10, (q, k)


def test_z_label_equals_q0_component():
    for k in EDGES:
        assert np.max(np.abs(multiplicity_map("Z", k).matrix - multiplicity_map(0, k).matrix)) < 1e-14


def test_cartesian_maps_split_weight_across_m_sectors():
    target = 1.0 / np.sqrt(2.0)
    for p, k, m in itertools.product(("X", "Y"), EDGES, (-1, 1)):
        sv = np.linalg.svd(multiplicity_map(p, k, m).matrix, compute_uv=False)
        assert np.max(np.abs(sv - target)) < 1e-10, (p, k, m)


def test_same_pair_edges_differ_only_by_signs():
    for pair in ((0, 1), (2, 3)):
        a = multiplicity_map("Z", pair[0]).matrix
        b = multiplicity_map("Z", pair[1]).matrix
        assert np.max(np.abs(np.abs(a) - np.abs(b))) < 1e-12
        assert np.max(np.abs(a - b)) > 0.5  # the sign flips are real
    # cross-pair maps have support in different positions
    support0 = np.abs(multiplicity_map("Z", 0).matrix) > 1e-12
    support2 = np.abs(multiplicity_map("Z", 2).matrix) > 1e-12
    assert not np.array_equal(support0, support2)


def test_multiplicity_map_validation():
    with pytest.raises(ValueError):
        multiplicity_map("I", 0)
    with pytest.raises(ValueError):
        multiplicity_map("Q", 0)
    with pytest.raises(ValueError):
        multiplicity_map(2, 0)
    with pytest.raises(ValueError):
        multiplicity_map("Z", 4)
    with pytest.raises(ValueError):
        multiplicity_map("X", 0)  # straddles M = -1 and +1
    with pytest.raises(ValueError):
        multiplicity_map("Z", 0, m_target=1)
    with pytest.raises(ValueError):
        multiplicity_map(1, 0, m_target=0)
    with pytest.raises(ValueError):
        multiplicity_map("X", 0, m_target=2)


def test_kl_diagonal_products_are_proportional_to_identity():
    cases = [multiplicity_map(q, k) for q in (-1, 0, 1) for k in EDGES]
    cases += [multiplicity_map(p, k, 1) for p in ("X", "Y") for k in EDGES]
    for a in cases:
        prod = kl_product(a, a)
        assert np.max(np.abs(prod - prod[0, 0] * np.eye(2))) < 1e-10, (a.error, a.edge)


def test_kl_pair_product_frozen_value():
    got = kl_product(multiplicity_map("Z", 0), multiplicity_map("Z", 1))
    assert np.max(np.abs(got - PAIR_KL_REFERENCE)) < 1e-10
    got23 = kl_product(multiplicity_map("Z", 2), multiplicity_map("Z", 3))
    assert np.max(np.abs(got23 - PAIR_KL_REFERENCE)) < 1e-10


def test_kl_cross_pair_product_has_off_diagonals():
    got = kl_product(multiplicity_map("Z", 0), multiplicity_map("Z", 2))
    assert abs(got[0, 1]) > 0.5
    assert abs(got[1, 0]) > 0.5


def test_kl_sector_mismatch_rejected():
    with pytest.raises(ValueError):
        kl_product(multiplicity_map(1, 0), multiplicity_map(0, 1))


def test_residual_weights_m0_frozen_table():
    table = residual_pauli_weights()
    assert table.reference_edge == 0
    assert table.m_target == 0
    assert [row[0] for row in table.rows] == ["Z_0", "Z_1", "Z_2", "Z_3"]
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.2, 0.0, 0.0, 0.8],
            [0.2, 0.6, 0.0, 0.2],
            [0.2, 0.6, 0.0, 0.2],
        ]
    )
    for k in EDGES:
        assert np.max(np.abs(table.weights(k) - expected[k])) < 1e-10, k
        assert table.weights(k)[2] == pytest.approx(0.0, abs=1e-12)  # no Y
        assert table.weights(k).sum() == pytest.approx(1.0, abs=1e-10)


def test_residual_weights_match_across_m_sectors():
    base = residual_pauli_weights(m_target=0)
    for m in (-1, 1):
        other = residual_pauli_weights(m_target=m)
        assert [row[0] for row in other.rows] == [f"O({m:+d})_{k}" for k in EDGES]
        for k in EDGES:
            assert np.max(np.abs(other.weights(k) - base.weights(k))) < 1e-10, (m, k)


def test_residual_reference_edge_is_fully_corrected():
    for ref in EDGES:
        table = residual_pauli_weights(reference_edge=ref)
        assert np.max(np.abs(table.weights(ref) - np.array([1.0, 0, 0, 0]))) < 1e-10


def test_residual_inputs_validated():
    with pytest.raises(ValueError):
        residual_pauli_weights(reference_edge=4)
    with pytest.raises(ValueError):
        residual_pauli_weights(m_target=2)


@pytest.mark.parametrize("m_target", [1.0, 0.0, -1.0])
def test_residual_weights_reject_a_float_m_target(m_target):
    with pytest.raises(ValueError, match="m_target must be -1, 0, or"):
        residual_pauli_weights(m_target=m_target)


@pytest.mark.parametrize("edge", [2.0, 0.0])
def test_edge_operator_rejects_a_float_edge(edge):
    with pytest.raises(ValueError, match="edge must be 0..3"):
        edge_operator("X", edge)


@pytest.mark.parametrize("error,m_target", [("Z", 0.0), ("X", 1.0), (-1, -1.0)])
def test_multiplicity_map_rejects_a_float_m_target(error, m_target):
    with pytest.raises(ValueError, match="cannot reach M"):
        multiplicity_map(error, 0, m_target)


_FLOAT_LABEL_CALLS = {
    "multiplicity_map": lambda q: multiplicity_map(q, 0),
    "multiplicity_map_edge2": lambda q: multiplicity_map(q, 2),
    "detection_check": lambda q: detection_check(q, 1),
    "edge_operator": lambda q: edge_operator(q, 1),
}


@pytest.mark.parametrize("q", [1.0, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(_FLOAT_LABEL_CALLS))
def test_a_float_error_label_is_unknown(name, q):
    with pytest.raises(ValueError, match="unknown error label"):
        _FLOAT_LABEL_CALLS[name](q)


@pytest.mark.parametrize("q", [1.0, 0.0, -1.0])
def test_wigner_eckart_residual_rejects_a_float_q(q):
    with pytest.raises(ValueError, match="q must be a spherical component"):
        wigner_eckart_residual(q, 0)


def test_a_bool_label_still_counts_as_an_integer():
    assert np.array_equal(edge_operator(True, 0), edge_operator(1, 0))
    assert np.array_equal(multiplicity_map(True, 0).matrix, multiplicity_map(1, 0).matrix)


def test_residual_table_row_validation():
    with pytest.raises(ValueError):
        ResidualTable(0, 0, (("Z_0", 0.5, 0.0, 0.0, 0.0),))
    with pytest.raises(ValueError):
        ResidualTable(0, 0, (("Z_0", 1.3, -0.3, 0.0, 0.0),))


def test_wigner_eckart_factorization():
    for q, k in itertools.product((-1, 0, 1), EDGES):
        assert wigner_eckart_residual(q, k) < 1e-10, (q, k)
    with pytest.raises(ValueError):
        wigner_eckart_residual(2, 0)


def test_convention_audit_reports_exact_match():
    report = convention_audit()
    assert report.matches_reference
    assert report.permutation == (0, 1)
    assert report.signs == (1, 1)
    assert np.max(np.abs(report.pair_product - PAIR_KL_REFERENCE)) < 1e-10
