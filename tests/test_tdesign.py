import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gaugecool.lattice import edge_basis, singlet_projector
from gaugecool.reference import gauge_action
from gaugecool.tdesign import (
    DesignSet,
    TruncatedQFT,
    binary_octahedral_design,
    discrete_syndrome_check,
    embed_unitary,
    qft_kernel_check,
    read_design,
    required_design_strength,
    tdesign_deviations,
    truncated_qft,
    verify_tdesign,
)


def su2_from_quad(a, b, c, d):
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def hurwitz_units():
    """The 24-element binary tetrahedral group, an exact 2-design."""
    quads = []
    for pos in range(4):
        for s in (1.0, -1.0):
            q = [0.0] * 4
            q[pos] = s
            quads.append(tuple(q))
    for signs in itertools.product((0.5, -0.5), repeat=4):
        quads.append(signs)
    return DesignSet(tuple(su2_from_quad(*q) for q in quads), claimed_t=2)


def haar_random_set(n=48, seed=7):
    rng = np.random.default_rng(seed)
    vs = rng.standard_normal((n, 4))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    return DesignSet(tuple(su2_from_quad(*v) for v in vs), claimed_t=1)


def test_octahedral_set_is_a_group():
    d = binary_octahedral_design()
    assert d.size == 48
    assert d.claimed_t == 3
    keys = {tuple(np.round(g, 9).ravel()) for g in d.elements}
    assert len(keys) == 48
    for g in d.elements:
        assert tuple(np.round(g.conj().T, 9).ravel()) in keys  # inverses
    for g in d.elements[:12]:
        for h in d.elements:
            assert tuple(np.round(g @ h, 9).ravel()) in keys  # closure


def test_octahedral_contains_identity_and_pi_rotations():
    d = binary_octahedral_design()
    expected = [np.eye(2), -np.eye(2)]
    for pos in (1, 2, 3):  # lifts of the X, Y, Z pi-rotations, both signs
        for s in (1.0, -1.0):
            q = [0.0] * 4
            q[pos] = s
            expected.append(su2_from_quad(*q))
    for target in expected:
        assert min(np.max(np.abs(g - target)) for g in d.elements) < 1e-12


def test_octahedral_reproduces_haar_moments_of_entry_modulus():
    # |g_00|^2 is uniform on [0,1] under Haar, so E[|g_00|^(2s)] = 1/(s+1);
    # an independent check of design strength 3 that bypasses verify_tdesign.
    d = binary_octahedral_design()
    x = np.array([abs(g[0, 0]) ** 2 for g in d.elements])
    assert x.mean() == pytest.approx(1 / 2, abs=1e-12)
    assert (x**2).mean() == pytest.approx(1 / 3, abs=1e-12)
    assert (x**3).mean() == pytest.approx(1 / 4, abs=1e-12)
    # degree 4 breaks: the set average is 5/24, not the Haar value 1/5
    assert (x**4).mean() == pytest.approx(5 / 24, abs=1e-12)
    assert abs((x**4).mean() - 1 / 5) > 5e-3


def test_verify_octahedral_strength_three():
    d = binary_octahedral_design()
    assert verify_tdesign(d, 3) < 1e-12


def test_verify_octahedral_fails_at_four_only_at_top_bidegree():
    d = binary_octahedral_design()
    assert verify_tdesign(d, 4) > 0.01
    devs = tdesign_deviations(d, 4)
    assert devs[(Fraction(2), Fraction(2))] == pytest.approx(0.3, abs=1e-10)
    for pair, gap in devs.items():
        if pair != (Fraction(2), Fraction(2)):
            assert gap < 1e-12


def test_verify_deviation_monotone_in_strength():
    for d in (binary_octahedral_design(), haar_random_set()):
        gaps = [verify_tdesign(d, t) for t in (1, 2, 3)]
        assert gaps[0] <= gaps[1] + 1e-15
        assert gaps[1] <= gaps[2] + 1e-15


def test_single_identity_element_fails_strength_one():
    d = DesignSet((np.eye(2),), claimed_t=1)
    assert verify_tdesign(d, 1) >= 0.5


def test_tetrahedral_group_is_a_two_design_but_not_three():
    tet = hurwitz_units()
    assert tet.size == 24
    assert verify_tdesign(tet, 2) < 1e-12
    assert verify_tdesign(tet, 3) == pytest.approx(0.25, abs=1e-10)
    devs = tdesign_deviations(tet, 3)
    for pair, gap in devs.items():
        if pair != (Fraction(3, 2), Fraction(3, 2)):
            assert gap < 1e-12


def test_design_set_validation():
    with pytest.raises(ValueError):
        DesignSet((), claimed_t=1)
    with pytest.raises(ValueError):
        DesignSet((np.eye(2),), claimed_t=0)
    with pytest.raises(ValueError):
        DesignSet((np.diag([1.0, 2.0]),), claimed_t=1)  # not unitary
    with pytest.raises(ValueError):
        DesignSet((np.diag([1.0, -1.0]),), claimed_t=1)  # determinant -1
    with pytest.raises(ValueError):
        DesignSet((np.eye(3),), claimed_t=1)
    d = DesignSet((np.eye(2),), claimed_t=1)
    with pytest.raises(ValueError):
        d.elements[0][0, 0] = 5.0  # stored matrices are frozen


def test_required_strength_reference_points():
    assert required_design_strength(2, 1, Fraction(1, 2)) == 3
    assert required_design_strength(4, 2, Fraction(1, 2)) == 6
    for k in (1, 2, 5):
        assert required_design_strength(k, 0, Fraction(1, 2)) == k
    assert required_design_strength(2, 1, 1) == 6
    with pytest.raises(ValueError):
        required_design_strength(0, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        required_design_strength(2, 3, Fraction(1, 2))
    with pytest.raises(ValueError):
        required_design_strength(2, 1, 0.3)


@pytest.mark.parametrize("k,k_out,message", [
    (2.5, 1, "k must be at least 1"),
    (2.0, 1, "k must be at least 1"),
    (2, 1.0, "k_out must lie between 0 and k"),
    (2, 0.5, "k_out must lie between 0 and k"),
])
def test_required_strength_rejects_float_counts(k, k_out, message):
    with pytest.raises(ValueError, match=message):
        required_design_strength(k, k_out, Fraction(1, 2))


def test_truncated_qft_shape_and_labels():
    d = binary_octahedral_design()
    q = truncated_qft(d, Fraction(1, 2))
    assert q.d_out == 5 and q.n_t == 48
    halves = [
        (int(2 * j), int(2 * m), int(2 * n)) for (j, m, n) in q.labels
    ]
    assert halves == edge_basis(1)  # same (j, m, n) enumeration as the edges
    assert np.max(np.abs(q.w[0] - 1 / math.sqrt(48))) < 1e-15
    assert truncated_qft(d, 1).d_out == 14
    with pytest.raises(ValueError):
        truncated_qft(DesignSet((np.eye(2), -np.eye(2)), claimed_t=1), Fraction(1, 2))


def test_qft_rows_orthonormal_for_octahedral():
    d = binary_octahedral_design()
    for j_cut in (Fraction(1, 2), 1):
        q = truncated_qft(d, j_cut)
        gap = np.max(np.abs(q.w @ q.w.conj().T - np.eye(q.d_out)))
        assert gap < 1e-12


def test_kernel_identity_holds_for_any_element_set():
    assert qft_kernel_check(binary_octahedral_design(), Fraction(1, 2)) < 1e-12
    assert qft_kernel_check(binary_octahedral_design(), 1) < 1e-12
    # not a design at all, yet the identity is algebraic
    assert qft_kernel_check(haar_random_set(n=20, seed=3), 1) < 1e-12
    # j_cut = 2 reaches chi_3/2 and chi_2 of the recurrence; 55 rows need 55 elements
    assert qft_kernel_check(haar_random_set(n=60, seed=3), 2) < 1e-12


def test_kernel_diagonal_value():
    d = binary_octahedral_design()
    q = truncated_qft(d, 1)
    diag = np.diag(q.w.conj().T @ q.w)
    assert np.max(np.abs(diag - q.d_out / q.n_t)) < 1e-12


def test_embed_unitary_extends_the_rows():
    q = truncated_qft(binary_octahedral_design(), 1)
    u = embed_unitary(q)
    assert u.shape == (48, 48)
    assert np.max(np.abs(u @ u.conj().T - np.eye(48))) < 1e-9
    assert np.array_equal(u[:14], q.w)


def test_embed_unitary_deterministic():
    q = truncated_qft(binary_octahedral_design(), Fraction(1, 2))
    a = embed_unitary(q)
    b = embed_unitary(q)
    assert a.tobytes() == b.tobytes()


def test_embed_unitary_rejects_non_isometry():
    q = truncated_qft(haar_random_set(), Fraction(1, 2))
    with pytest.raises(ValueError):
        embed_unitary(q)


def test_discrete_syndrome_operators_exact_at_every_vertex():
    d = binary_octahedral_design()
    for v in range(4):
        assert discrete_syndrome_check(d, v) < 1e-10


def test_group_average_of_identity_label_is_the_singlet_projector():
    d = binary_octahedral_design()
    avg = sum(gauge_action(1, g) for g in d.elements) / d.size
    assert np.max(np.abs(avg - singlet_projector(1))) < 1e-10


def test_tetrahedral_set_suffices_for_these_syndromes():
    # The scalar strength bound is sufficient, not necessary: the syndrome
    # integrands only reach mixed degree (1, 3), which a 2-design whose
    # elements come in +-g pairs already averages exactly.
    tet = hurwitz_units()
    assert discrete_syndrome_check(tet, 0) < 1e-10


def test_random_set_breaks_the_syndrome_operators():
    assert discrete_syndrome_check(haar_random_set(), 0) > 1e-3


def test_read_design_roundtrip(tmp_path):
    d = binary_octahedral_design()
    lines = ["# binary octahedral elements", ""]
    for g in d.elements:
        a, b = g[0, 0].real, g[0, 0].imag
        c, e = g[0, 1].real, g[0, 1].imag
        lines.append(f"{a:.17g} {b:.17g} {c:.17g} {e:.17g}")
    path = tmp_path / "octahedral.txt"
    path.write_text("\n".join(lines) + "\n")
    loaded = read_design(path)
    assert loaded.size == 48
    assert loaded.claimed_t == 3
    for g, h in zip(loaded.elements, d.elements):
        assert np.max(np.abs(g - h)) < 1e-15
    assert verify_tdesign(loaded, 3) < 1e-12


def test_read_design_rejects_malformed_files(tmp_path):
    bad_cases = {
        "three.txt": "0.5 0.5 0.5\n",
        "words.txt": "one two three four\n",
        "norm.txt": "1 1 0 0\n",
        "empty.txt": "# only a comment\n",
        "nan.txt": "nan nan nan nan\n",
    }
    for name, content in bad_cases.items():
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(ValueError):
            read_design(path)


def test_truncated_qft_dataclass_is_frozen():
    q = truncated_qft(binary_octahedral_design(), Fraction(1, 2))
    assert isinstance(q, TruncatedQFT)
    with pytest.raises(ValueError):
        q.w[0, 0] = 1.0
