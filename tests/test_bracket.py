import warnings

import numpy as np
import pytest

from contactflow import geometry
from contactflow.bracket import (
    DROP_TOL,
    _brackets,
    ad_invariance_residual,
    basis_function,
    basis_index,
    basis_lm,
    basis_size,
    jacobi_residual,
    lagrange_bracket,
    structure_constants,
    verify_homomorphism,
)
from contactflow.curvature import k_structural
from contactflow.harmonics import SpectralFunction, inner_M, product


def test_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(0)
    f = SpectralFunction.random(3, rng)
    h = SpectralFunction.random(3, rng)
    k = SpectralFunction.random(3, rng)
    b_fh = lagrange_bracket(f, h)
    b_hf = lagrange_bracket(h, f)
    assert (b_fh + b_hf).norm_M() < 1e-13
    lin = lagrange_bracket(f, 2.0 * h - k)
    want = 2.0 * b_fh - lagrange_bracket(f, k)
    assert (lin - want).norm_M() < 1e-12


def test_bracket_is_directional_derivative():
    # [f, h](q) = dh(X_f)(q), checked by finite differences
    rng = np.random.default_rng(1)
    f = SpectralFunction.random(2, rng)
    h = SpectralFunction.random(2, rng)
    b = lagrange_bracket(f, h)
    from contactflow.fields import contact_field_at
    for _ in range(6):
        raw = rng.standard_normal(4)
        q = raw / np.linalg.norm(raw)
        v = contact_field_at(f, q)
        fd = geometry.directional_derivative(h, q, v)
        assert abs(fd - b.pullback(q)) < 1e-9


def test_leibniz_rule():
    rng = np.random.default_rng(2)
    f = SpectralFunction.random(2, rng)
    h = SpectralFunction.random(2, rng)
    k = SpectralFunction.random(2, rng)
    lhs = lagrange_bracket(f, product(h, k))
    rhs = product(lagrange_bracket(f, h), k) + product(h, lagrange_bracket(f, k))
    assert (lhs - rhs).norm_M() < 1e-12


def test_negative_L_out_rejected():
    rng = np.random.default_rng(3)
    f, h = (SpectralFunction.random(2, rng) for _ in range(2))
    with pytest.raises(ValueError, match="L_out"):
        lagrange_bracket(f, h, L_out=-1)
    with pytest.raises(ValueError, match="L_out"):
        _brackets([(f, h), (h, f)], L_out=-2)
    # a count, not a size: no float or bool stands in for it
    for bad in (2.5, True, 2.0):
        with pytest.raises(ValueError, match="L_out to be an integer >= 0"):
            lagrange_bracket(f, h, L_out=bad)
    assert lagrange_bracket(f, h, L_out=np.int64(0)).L == 0


def test_constants_are_central():
    rng = np.random.default_rng(3)
    f = SpectralFunction.random(3, rng)
    c = SpectralFunction.constant(4.2)
    assert lagrange_bracket(c, f).norm_M() < 1e-13
    assert lagrange_bracket(f, c).norm_M() < 1e-13
    # a float operand is that constant Hamiltonian
    assert np.array_equal(lagrange_bracket(f, 4.2).coeffs, lagrange_bracket(f, c).coeffs)
    assert np.array_equal(lagrange_bracket(4.2, f, 2).coeffs, lagrange_bracket(c, f, 2).coeffs)


def test_homomorphism_fd_residual():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(3):
        f = SpectralFunction.random(2, rng)
        h = SpectralFunction.random(2, rng)
        worst = max(worst, verify_homomorphism(f, h, n_points=4, seed=11))
    assert worst < 1e-6
    f = SpectralFunction.random(2, rng)
    with pytest.raises(ValueError, match="n_points >= 1"):
        verify_homomorphism(f, f, n_points=0)


def test_jacobi_identity():
    rng = np.random.default_rng(5)
    for _ in range(4):
        f = SpectralFunction.random(2, rng)
        h = SpectralFunction.random(2, rng)
        k = SpectralFunction.random(2, rng)
        assert jacobi_residual(f, h, k) < 1e-10


def test_ad_invariance_of_flat_pairing():
    rng = np.random.default_rng(6)
    for _ in range(4):
        f = SpectralFunction.random(2, rng)
        h = SpectralFunction.random(2, rng)
        k = SpectralFunction.random(2, rng)
        assert ad_invariance_residual(k, f, h) < 1e-11


def test_basis_indexing():
    assert basis_size(2) == 9
    for i in range(25):
        l, m = basis_lm(i)
        assert basis_index(l, m) == i
    f = basis_function(3)
    assert abs(inner_M(f, f) - 1.0) < 1e-13


@pytest.mark.parametrize("call", [basis_lm, basis_function])
@pytest.mark.parametrize("i", [-1, -3, 2.5, True])
def test_bad_basis_index_rejected(call, i):
    # a negative index used to reach sqrt and fail on NaN after a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="basis index needs i to be an integer >= 0"):
            call(i)


def test_basis_index_takes_numpy_integers():
    assert basis_lm(np.int64(5)) == (2, -1)
    assert basis_lm(0) == (0, 0)


def test_structure_constants_frozen_value():
    table = structure_constants(1)
    # [f_1, f_2] = c f_3 with c = -sqrt(3)/pi in the unit-norm basis
    want = -np.sqrt(3.0) / np.pi
    assert abs(table.coefficient(3, 1, 2) - want) < 1e-12
    # antisymmetry in the lower pair
    assert abs(table.coefficient(3, 2, 1) + want) < 1e-12
    assert table.coefficient(3, 1, 1) == 0.0


def test_structure_constants_match_bracket_pairing():
    # every pair at L <= 4 against its own bracket: the same (i, j, k) rows
    # above DROP_TOL, in iter_rows order, and the same values
    for L in range(1, 5):
        want = []
        for j in range(basis_size(L)):
            for k in range(j + 1, basis_size(L)):
                b = lagrange_bracket(basis_function(j), basis_function(k))
                for i in range(1, basis_size(b.L)):
                    c = inner_M(b, basis_function(i))
                    if abs(c) > DROP_TOL:
                        want.append((i, j, k, c))
        table = structure_constants(L)
        got = list(table.iter_rows())
        assert [r[:3] for r in got] == [r[:3] for r in want]
        assert max(abs(g[3] - w[3]) for g, w in zip(got, want)) < 1e-12
        for i, j, k, c in want[::7]:
            assert abs(table.coefficient(i, j, k) - c) < 1e-12
            assert abs(table.coefficient(i, k, j) + c) < 1e-12


def test_structure_constants_keep_the_selection_rule():
    rows = np.array([r[:3] for r in structure_constants(8).iter_rows()])
    deg = np.floor(np.sqrt(rows))        # degrees of i, j, k
    assert len(rows) > 0 and np.all(deg[:, 0] >= 1)
    assert np.all(deg[:, 0] <= deg[:, 1] + deg[:, 2])


def test_lookups_reject_a_pair_beyond_the_table():
    table = structure_constants(1)
    for j, k in [(1, 8), (8, 1), (4, 4), (-1, 2)]:
        with pytest.raises(ValueError):
            table.coefficient(3, j, k)
        with pytest.raises(ValueError):
            table.row(j, k)
        with pytest.raises(ValueError):
            k_structural(table, j, k)


def test_degree_zero_rows_are_empty():
    table = structure_constants(2)
    for k in range(1, basis_size(2)):
        assert table.row(0, k) == []
