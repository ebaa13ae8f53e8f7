"""Determinants and eigensolvers against closed forms and each other."""

import numpy as np
import pytest

from graphscatter.errors import NonFiniteMatrixError, NonSquareMatrixError, SymmetryError
from graphscatter.linalg import (
    determinant,
    eig_general,
    eig_symmetric,
    matrix_power_trace,
)
from reference import multiplicities


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert determinant(np.diag([2.0, 3.0j])) == pytest.approx(6.0j)

    def test_antidiagonal_closed_form(self):
        a, b = 2.5 + 1.0j, -0.75 + 0.5j
        m = np.array([[0.0, a], [b, 0.0]])
        assert determinant(m) == pytest.approx(-a * b)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareMatrixError):
            determinant(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteMatrixError):
            determinant(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_stack_is_one_determinant_per_matrix(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(2, 3, 9, 9)) + 1j * rng.normal(size=(2, 3, 9, 9))
        got = determinant(stack)
        assert got.shape == (2, 3)
        want = [determinant(m) for m in stack.reshape(6, 9, 9)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_non_square_stack_rejected(self):
        with pytest.raises(NonSquareMatrixError):
            determinant(np.ones((4, 2, 3)))
        with pytest.raises(NonFiniteMatrixError):
            determinant(np.array([np.eye(2), [[1.0, np.inf], [0.0, 1.0]]]))

    def test_multiplicativity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            lhs = determinant(a @ b)
            rhs = determinant(a) * determinant(b)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


class TestEigSymmetric:
    def test_p2_laplacian_by_hand(self):
        res = eig_symmetric(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(res.eigenvalues, [0.0, 2.0], atol=1e-12)
        assert not np.iscomplexobj(res.eigenvalues)

    def test_k4_laplacian(self):
        lap = 4.0 * np.eye(4) - np.ones((4, 4))
        res = eig_symmetric(lap)
        np.testing.assert_allclose(res.eigenvalues, [0.0, 4.0, 4.0, 4.0], atol=1e-12)

    def test_c3_laplacian(self):
        c = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        res = eig_symmetric(2.0 * np.eye(3) - c)
        np.testing.assert_allclose(res.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)

    def test_symmetry_violation(self):
        with pytest.raises(SymmetryError):
            eig_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(SymmetryError):
            eig_symmetric(np.array([[0.0, 1.0j], [-1.0j, 0.0]]))

    def test_multiplicity_clustering(self):
        lap = 4.0 * np.eye(4) - np.ones((4, 4))
        clusters = multiplicities(eig_symmetric(lap).eigenvalues)
        assert [(round(v, 6), c) for v, c in clusters] == [(0.0, 1), (4.0, 3)]


def test_eigensolvers_take_one_matrix_only():
    stack = np.array([np.eye(3), 2.0 * np.eye(3)])
    for solve in (eig_general, eig_symmetric):
        with pytest.raises(NonSquareMatrixError):
            solve(stack)


class TestEigGeneral:
    def test_swap_matrix(self):
        res = eig_general(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sorted(res.eigenvalues.real), [-1.0, 1.0], atol=1e-12)

    def test_rotation_matrix(self):
        res = eig_general(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        got = sorted(res.eigenvalues, key=lambda z: z.imag)
        np.testing.assert_allclose(got, [-1.0j, 1.0j], atol=1e-12)

    def test_companion_matrix_roots(self):
        # z^2 - 3z + 2 = (z - 1)(z - 2)
        comp = np.array([[3.0, -2.0], [1.0, 0.0]])
        res = eig_general(comp)
        np.testing.assert_allclose(sorted(res.eigenvalues.real), [1.0, 2.0], atol=1e-10)
        # sorted by modulus descending
        assert abs(res.eigenvalues[0]) >= abs(res.eigenvalues[1])

    def test_unitary_spectrum_on_circle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        q, _ = np.linalg.qr(a)
        vals = eig_general(q).eigenvalues
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-9

    def test_eigenvalue_product_matches_determinant(self):
        rng = np.random.default_rng(3)
        for n in (4, 16, 32):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            prod = np.prod(eig_general(a).eigenvalues)
            det = determinant(a)
            assert abs(prod - det) <= 1e-8 * abs(det)

    def test_vectors_follow_the_sorted_eigenvalues(self):
        # the path mixing_gap reads: column k of the eigenvectors belongs to
        # eigenvalue k after the (modulus desc, argument asc) sort
        rng = np.random.default_rng(0)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        res = eig_general(a, vectors=True)
        vecs, vals = res.eigenvectors, res.eigenvalues
        assert vecs.shape == (12, 12)
        assert np.all(np.diff(np.abs(vals)) <= 0.0)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-12)
        assert np.max(np.abs(a @ vecs - vecs * vals)) < 1e-10 * np.abs(a).max() * 12

    def test_sort_order(self):
        vals = eig_general(np.diag([1.0, -2.0, 2.0])).eigenvalues
        assert abs(vals[0]) == pytest.approx(2.0)
        assert abs(vals[2]) == pytest.approx(1.0)
        # equal modulus: argument ascending (pi for -2 after 0 for +2)
        assert np.angle(vals[0]) <= np.angle(vals[1])


def test_matrix_power_trace():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert matrix_power_trace(m, 2) == pytest.approx(2.0)
    assert matrix_power_trace(m, 3) == pytest.approx(0.0)


def test_matrix_power_trace_of_a_stack():
    rng = np.random.default_rng(6)
    stack = rng.normal(size=(4, 12, 12)) + 1j * rng.normal(size=(4, 12, 12))
    for n in (1, 2, 3, 4, 7):
        got = matrix_power_trace(stack, n)
        assert got.shape == (4,)
        assert got.tobytes() == np.array([matrix_power_trace(m, n) for m in stack]).tobytes()
