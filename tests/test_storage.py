"""Every SpectralFunction the package makes owns its coefficients: a float
array of shape (L+1, 2L+1) that shares no memory with its operands or with
the other results of the same call, and is no view of a batched array
(brackets, analyses, curls), which it would keep alive.  Its values are bit for bit the
reference's, which builds each result by plain array arithmetic and the
validating constructor."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactflow import geometry
from contactflow.bracket import _brackets
from contactflow.fields import FrameField
from contactflow.harmonics import (
    GridFunction,
    SpectralFunction,
    SphereGrid,
    adjoint_analyze,
    analyze,
)
from contactflow.rot3d import curl

import reference

DEGREE = st.integers(0, 7)
SEED = st.integers(0, 2 ** 32 - 1)


def assert_owned(results, operands=()):
    """Each result's coeffs: a writeable float (L+1, 2L+1) array that owns
    its data (not a view, such as a row of a batch, nor a cached read-only
    array) and shares no memory with an operand's coeffs or with another
    result's."""
    seen = [g.coeffs for g in operands]
    for r in results:
        c = r.coeffs
        assert c.dtype == float and c.shape == (r.L + 1, 2 * r.L + 1)
        assert c.flags.owndata and c.flags.writeable
        assert not any(np.shares_memory(c, other) for other in seen)
        seen.append(c)


def assert_bits(got, want):
    assert got.L == want.L and got.coeffs.tobytes() == want.coeffs.tobytes()


@settings(max_examples=60, deadline=None)
@given(Lf=DEGREE, Lh=DEGREE, L=DEGREE, seed=SEED,
       c=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
def test_operations_own_their_results(Lf, Lh, L, seed, c):
    rng = np.random.default_rng(seed)
    f, h = SpectralFunction.random(Lf, rng), SpectralFunction.random(Lh, rng)
    g = f.mean_free()
    calls = {"add": lambda: f + h, "sub": lambda: f - h, "mul": lambda: f * c,
             "rmul": lambda: c * f, "neg": lambda: -f,
             "padded": lambda: f.padded(max(L, f.L)), "truncated": lambda: f.truncated(L),
             "laplacian": f.laplacian, "helmholtz": f.helmholtz,
             "inverse_helmholtz": f.inverse_helmholtz, "inverse_laplacian": g.inverse_laplacian,
             "mean_free": f.mean_free, "zeros": lambda: SpectralFunction.zeros(L),
             "constant": lambda: SpectralFunction.constant(c),
             "mode": lambda: SpectralFunction.mode(L, -L, value=c, L=L)}
    want = reference.operations(f, h, c, L)
    assert calls.keys() == want.keys()
    for name, call in calls.items():
        got = call()
        assert_owned([got], [f, h, g])
        assert_bits(got, want[name])
    # the same degree, as the operands of a sum: the sum is a new array
    f2 = SpectralFunction.random(Lf, rng)
    assert_owned([f + f2, f - f2, f + f], [f, f2])


@settings(max_examples=30, deadline=None)
@given(L=DEGREE, lmin=DEGREE, seed=SEED, scale=st.floats(-10.0, 10.0))
@example(L=5, lmin=0, seed=1, scale=1.0)    # the draw without a scale pass
@example(L=5, lmin=1, seed=2, scale=1.0)
@example(L=5, lmin=1, seed=3, scale=1)
def test_random_owns_its_draw(L, lmin, seed, scale):
    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = [SpectralFunction.random(L, rng, lmin, scale) for _ in range(2)]
    assert_owned(draws)
    for got in draws:
        assert_bits(got, SpectralFunction(reference.random_coeffs(L, want_rng, lmin, scale)))


@settings(max_examples=30, deadline=None)
@given(L=DEGREE, seed=SEED)
def test_norm_and_qmul_are_the_reference(L, seed):
    # norm_base takes np.linalg.norm's steps without its dispatch; qmul fills
    # one array by component with the stacked expressions
    rng = np.random.default_rng(seed)
    f = SpectralFunction.random(L, rng)
    assert f.norm_base() == float(np.linalg.norm(f.coeffs))
    a, b = rng.standard_normal((2, L + 1, 4))
    for x, y in ((a, b), (a, b[0]), (a[0], b), (a[0], b[0])):
        got, want = geometry.qmul(x, y), reference.qmul(x, y)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.flags.owndata and got.flags.writeable and got.flags.c_contiguous


def test_instances_take_no_unknown_attribute():
    # __slots__: a mistyped attribute raises instead of being set unnoticed
    f = SpectralFunction.constant(1.0)
    X = FrameField(f)
    for obj, name in ((f, "coefs"), (X, "b")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        assert not hasattr(obj, "__dict__")


@settings(max_examples=40, deadline=None)
@given(degrees=st.lists(st.tuples(DEGREE, DEGREE), min_size=1, max_size=5),
       L_out=st.none() | st.integers(0, 16), seed=SEED)
def test_batched_brackets_own_their_rows(degrees, L_out, seed):
    # pairs of one (D, L, L_in) group are rows of one analysis
    rng = np.random.default_rng(seed)
    pairs = [(SpectralFunction.random(a, rng), SpectralFunction.random(b, rng))
             for a, b in degrees + degrees]
    got = _brackets(pairs, L_out)
    assert_owned(got, [w for pair in pairs for w in pair])
    for b, (f, h) in zip(got, pairs):
        assert_bits(b, reference.bracket(f, h, L_out))


@settings(max_examples=20, deadline=None)
@given(L=DEGREE, seed=SEED)
def test_analysis_owns_its_result(L, seed):
    grid = SphereGrid.for_degree(L)
    g = GridFunction(grid, np.random.default_rng(seed).standard_normal((grid.nlat, grid.nlon)))
    got = [analyze(g, L), analyze(g, L)]
    assert_owned(got)
    assert not any(np.shares_memory(f.coeffs, g.values) for f in got)
    for f in got:
        assert_bits(f, SpectralFunction(adjoint_analyze(g.values, grid, L, None)))


@settings(max_examples=30, deadline=None)
@given(degrees=st.lists(st.tuples(DEGREE, DEGREE, DEGREE), min_size=1, max_size=5), seed=SEED)
def test_curls_of_a_field_list_own_their_potentials(degrees, seed):
    # fields of one degree share one stacked analysis; every potential of
    # every curl is its own array
    rng = np.random.default_rng(seed)
    fields = [FrameField(*(SpectralFunction.random(L, rng) for L in d)) for d in degrees + degrees]
    got = curl(fields)
    operands = [getattr(X, name) for X in fields for name in "auw"]
    assert_owned([getattr(Z, name) for Z in got for name in "auw"], operands)
    for X, Z in zip(fields, got):
        want = reference.curl(X)
        for name in "auw":
            assert_bits(getattr(Z, name), getattr(want, name))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_user_coefficients_must_be_finite(bad):
    c = np.zeros((2, 3))
    c[1, 2] = bad
    with pytest.raises(ValueError, match="^coeffs must be finite"):
        SpectralFunction(c)
    for call, name in [(lambda: SpectralFunction.constant(bad), "constant c"),
                       (lambda: SpectralFunction.mode(1, 0, value=bad), "mode value"),
                       (lambda: SpectralFunction.random(2, np.random.default_rng(0), scale=bad),
                        "random scale")]:
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            call()
