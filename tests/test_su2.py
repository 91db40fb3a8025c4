import itertools

import numpy as np
import pytest
from sympy import Rational, S
from sympy.physics.quantum.cg import CG

from gaugecool.cooling import Syndrome
from gaugecool.su2 import (
    cg_isometry,
    clebsch_gordan,
    coupled_spins,
    haar_sample,
    m_values,
    pauli_matrices,
    spherical_pauli,
    spin_matrices,
    wigner_d,
)
from gaugecool.tdesign import (
    binary_octahedral_design,
    required_design_strength,
    truncated_qft,
)


def sym_power_rep(g, n):
    """Independent spin-(n/2) representation: g^(x n) on the symmetric subspace.

    Basis vector k (k = number of '+' tensor factors, ascending k <-> ascending m)
    is the normalized sum over bitstrings of weight k.
    """
    if n == 0:
        return np.ones((1, 1), dtype=complex)
    dim = 2**n
    s = np.zeros((dim, n + 1), dtype=complex)
    for bits in range(dim):
        k = bin(bits).count("1")
        s[bits, k] = 1.0
    s /= np.sqrt(np.sum(np.abs(s) ** 2, axis=0, keepdims=True))
    gn = np.array([[1.0 + 0j]])
    for _ in range(n):
        gn = np.kron(gn, g)
    return s.conj().T @ gn @ s


def test_spin_dim_and_m_values():
    assert [len(m_values(tj)) for tj in (0, 1, 4)] == [1, 2, 5]
    assert np.allclose(m_values(3), [-1.5, -0.5, 0.5, 1.5])


def test_spin_matrices_j0_trivial():
    jx, jy, jz = spin_matrices(0)
    for a in (jx, jy, jz):
        assert a.shape == (1, 1)
        assert np.allclose(a, 0.0)


def test_spin_matrices_half():
    jx, jy, jz = spin_matrices(1)
    assert np.allclose(jz, np.diag([-0.5, 0.5]))
    x, y, z = pauli_matrices()
    assert np.allclose(2 * jx, x)
    assert np.allclose(2 * jy, y)
    assert np.allclose(2 * jz, z)


def test_spin_one_eigenvalues():
    _, _, jz = spin_matrices(2)
    assert np.allclose(np.sort(np.linalg.eigvalsh(jz)), [-1.0, 0.0, 1.0])


@pytest.mark.parametrize("tj", [0, 1, 2, 3, 4])
def test_su2_algebra_and_casimir(tj):
    jx, jy, jz = spin_matrices(tj)
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12
    assert np.max(np.abs(jy @ jz - jz @ jy - 1j * jx)) < 1e-12
    assert np.max(np.abs(jz @ jx - jx @ jz - 1j * jy)) < 1e-12
    j = tj / 2
    cas = jx @ jx + jy @ jy + jz @ jz
    assert np.max(np.abs(cas - j * (j + 1) * np.eye(tj + 1))) < 1e-12


def test_ladder_plus_action():
    jx, jy, _ = spin_matrices(2)
    jp = jx + 1j * jy
    # J+ |1,-1> = sqrt(2) |1,0>
    v = np.zeros(3)
    v[0] = 1.0
    assert np.allclose(jp @ v, np.sqrt(2) * np.eye(3)[:, 1])


def test_cg_frozen_values():
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0)
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / np.sqrt(2))
    assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-1 / np.sqrt(2))
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 0, 0) == 0.0
    assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1 / np.sqrt(3))


def test_cg_input_errors():
    with pytest.raises(ValueError):
        clebsch_gordan(0.5, 0.3, 0.5, 0.2, 1, 0.5)
    with pytest.raises(ValueError):
        clebsch_gordan(0.5, 1.5, 0.5, -0.5, 1, 1)
    with pytest.raises(ValueError):
        clebsch_gordan(1, 0.5, 1, -0.5, 2, 0)  # m parity inconsistent with j


@pytest.mark.parametrize("x", [float("inf"), float("nan")])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: clebsch_gordan(x, 0, 0.5, 0.5, 0.5, 0.5),
        lambda x: Syndrome(x, 0, 0),
        lambda x: truncated_qft(binary_octahedral_design(), x),
        lambda x: required_design_strength(2, 1, x),
    ],
    ids=["clebsch_gordan", "Syndrome", "truncated_qft", "required_design_strength"],
)
def test_non_finite_spin_label_is_not_a_half_integer(call, x):
    with pytest.raises(ValueError, match="not a half-integer"):
        call(x)


def test_cg_selection_rules():
    assert clebsch_gordan(1, 0, 1, 1, 2, 0) == 0.0  # M != m1+m2
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 2, 0) == 0.0  # J out of range


def test_cg_against_sympy():
    halves = [0, 1, 2, 3]
    for tj1, tj2 in itertools.product(halves, repeat=2):
        for tJ in coupled_spins(tj1, tj2):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    tM = tm1 + tm2
                    if abs(tM) > tJ:
                        continue
                    ours = clebsch_gordan(
                        tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, tJ / 2, tM / 2
                    )
                    ref = float(
                        CG(
                            Rational(tj1, 2), Rational(tm1, 2),
                            Rational(tj2, 2), Rational(tm2, 2),
                            Rational(tJ, 2), Rational(tM, 2),
                        ).doit().evalf()
                    )
                    assert ours == pytest.approx(ref, abs=1e-12), (
                        tj1, tm1, tj2, tm2, tJ, tM,
                    )


@pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 1), (2, 2), (0, 2)])
def test_cg_isometry_orthogonal(tj1, tj2):
    full = np.hstack([cg_isometry(tj1, tj2, tJ) for tJ in coupled_spins(tj1, tj2)])
    d = (tj1 + 1) * (tj2 + 1)
    assert full.shape == (d, d)
    assert np.max(np.abs(full.T @ full - np.eye(d))) < 1e-12


def test_wigner_d_trivial_and_defining():
    rng = np.random.default_rng(7)
    g = haar_sample(rng)
    assert np.allclose(wigner_d(0, g), [[1.0]])
    assert np.allclose(wigner_d(1, g), g)
    assert np.allclose(wigner_d(2, np.eye(2)), np.eye(3))


@pytest.mark.parametrize("tj", [1, 2, 3, 4])
def test_wigner_d_matches_symmetric_power(tj):
    rng = np.random.default_rng(11 + tj)
    for _ in range(5):
        g = haar_sample(rng)
        assert np.max(np.abs(wigner_d(tj, g) - sym_power_rep(g, tj))) < 1e-12


def test_wigner_d_unitary_and_homomorphism():
    rng = np.random.default_rng(3)
    for tj in (1, 2, 3):
        d = tj + 1
        for _ in range(100):
            g, h = haar_sample(rng), haar_sample(rng)
            dg, dh, dgh = wigner_d(tj, g), wigner_d(tj, h), wigner_d(tj, g @ h)
            assert np.max(np.abs(dg @ dg.conj().T - np.eye(d))) < 1e-10
            assert np.max(np.abs(dg @ dh - dgh)) < 1e-10


def test_wigner_d_character_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = haar_sample(rng)
        tr1 = np.trace(wigner_d(2, g))
        assert abs(tr1 - (abs(np.trace(g)) ** 2 - 1)) < 1e-12


def test_haar_sample_group_invariants():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = haar_sample(rng)
        assert np.max(np.abs(g @ g.conj().T - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


def test_haar_sample_character_moments():
    rng = np.random.default_rng(42)
    n = 10**5
    chis = np.empty(n, dtype=complex)
    for i in range(n):
        chis[i] = np.trace(haar_sample(rng))
    bound = 5 / np.sqrt(n)
    assert abs(np.mean(chis)) < bound
    assert abs(np.mean(np.abs(chis) ** 2) - 1.0) < 5 * bound


def test_spherical_pauli_values():
    x, y, z = pauli_matrices()
    assert np.allclose(spherical_pauli(0), z)
    assert np.allclose(spherical_pauli(1), -(x + 1j * y) / np.sqrt(2))
    assert np.allclose(spherical_pauli(-1), (x - 1j * y) / np.sqrt(2))
    with pytest.raises(ValueError):
        spherical_pauli(2)


@pytest.mark.parametrize("q", [1.0, 0.0, -1.0])
def test_spherical_pauli_rejects_a_non_integer_component(q):
    with pytest.raises(ValueError, match="spherical component q must be"):
        spherical_pauli(q)


def test_spherical_pauli_is_rank1_tensor():
    jx, jy, jz = spin_matrices(1)
    jp = jx + 1j * jy
    for q in (-1, 0, 1):
        oq = spherical_pauli(q)
        assert np.max(np.abs(jz @ oq - oq @ jz - q * oq)) < 1e-12
    # [J+, O_q] = sqrt(2 - q(q+1)) O_{q+1}
    for q in (-1, 0):
        lhs = jp @ spherical_pauli(q) - spherical_pauli(q) @ jp
        rhs = np.sqrt(2 - q * (q + 1)) * spherical_pauli(q + 1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_spherical_pauli_completeness():
    total = sum(
        spherical_pauli(q).conj().T @ spherical_pauli(q) for q in (-1, 0, 1)
    )
    assert np.max(np.abs(total - 3 * np.eye(2))) < 1e-14
