"""Property tests for lagrange_bracket over random band limits: the Lie
algebra identities, truncation to any L_out agreeing with the
full-degree bracket, and each batched bracket equal to its own call."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactflow.bracket import _brackets, lagrange_bracket
from contactflow.harmonics import (
    GridFunction,
    SphereGrid,
    SpectralFunction,
    analyze,
    product,
    synthesize,
)

seeds = st.integers(0, 2 ** 32 - 1)
fast = settings(max_examples=50, deadline=None)


def randoms(seed, *Ls):
    rng = np.random.default_rng(seed)
    return [SpectralFunction.random(L, rng) for L in Ls]


@fast
@given(Lf=st.integers(0, 10), Lh=st.integers(0, 10), seed=seeds)
@example(Lf=0, Lh=3, seed=0)
def test_antisymmetry(Lf, Lh, seed):
    f, h = randoms(seed, Lf, Lh)
    fh = lagrange_bracket(f, h)
    assert fh.L == Lf + Lh
    assert (fh + lagrange_bracket(h, f)).norm_base() <= 1e-13 * fh.norm_base()


@fast
@given(Lf=st.integers(0, 4), Lg=st.integers(0, 4), Lh=st.integers(0, 4),
       seed=seeds)
@example(Lf=1, Lg=0, Lh=2, seed=0)
def test_leibniz(Lf, Lg, Lh, seed):
    f, g, h = randoms(seed, Lf, Lg, Lh)
    lhs = lagrange_bracket(f, product(g, h))
    rhs = (product(lagrange_bracket(f, g), h)
           + product(g, lagrange_bracket(f, h)))
    assert (lhs - rhs).norm_base() <= 1e-12 * max(lhs.norm_base(), 1.0)


@fast
@given(Lf=st.integers(0, 4), Lg=st.integers(0, 4), Lh=st.integers(0, 4),
       seed=seeds)
def test_jacobi(Lf, Lg, Lh, seed):
    f, g, h = randoms(seed, Lf, Lg, Lh)
    terms = [lagrange_bracket(f, lagrange_bracket(g, h)),
             lagrange_bracket(g, lagrange_bracket(h, f)),
             lagrange_bracket(h, lagrange_bracket(f, g))]
    scale = max(t.norm_base() for t in terms)
    assert (terms[0] + terms[1] + terms[2]).norm_base() <= 1e-12 * max(scale, 1.0)


@fast
@given(Lf=st.integers(0, 10), Lh=st.integers(0, 10),
       excess=st.integers(-20, 3), seed=seeds)
@example(Lf=4, Lh=4, excess=-4, seed=0)   # the flow's L_out = h.L = D / 2
@example(Lf=3, Lh=5, excess=-8, seed=0)   # L_out = 0
@example(Lf=0, Lh=0, excess=2, seed=0)
def test_truncated_bracket_matches_full_degree(Lf, Lh, excess, seed):
    f, h = randoms(seed, Lf, Lh)
    D = Lf + Lh
    L_out = max(D + excess, 0)
    full = lagrange_bracket(f, h)
    got = lagrange_bracket(f, h, L_out)
    assert got.L == L_out
    want = full.truncated(L_out)
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * full.norm_base()


def unbatched_bracket(f, h, L_out=None):
    """lagrange_bracket as one pair on its own grid, analyzed by analyze."""
    D = f.L + h.L
    L = D if L_out is None else min(L_out, D)
    L_in = max(f.L, h.L)
    grid = SphereGrid.for_integration(D + L, L_in)
    fh = np.stack([f.padded(L_in).coeffs, h.padded(L_in).coeffs])
    (f_th, f_lm), (h_th, h_lm) = synthesize(fh, grid, deriv=("dtheta", "dlambda_over_sin"))
    out = analyze(GridFunction(grid, -2.0 * (f_th * h_lm - f_lm * h_th)), L)
    return out if L_out is None else out.padded(L_out)


@fast
@given(degrees=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                        min_size=1, max_size=6),
       L_out=st.one_of(st.none(), st.integers(0, 14)), seed=seeds)
@example(degrees=[(2, 2), (1, 3), (2, 2), (3, 1), (0, 4)], L_out=None, seed=0)
@example(degrees=[(3, 3), (3, 6), (6, 3), (3, 3)], L_out=3, seed=0)  # flow-like
def test_batched_brackets_are_their_own_calls(degrees, L_out, seed):
    rng = np.random.default_rng(seed)
    pairs = [(SpectralFunction.random(a, rng), SpectralFunction.random(b, rng))
             for a, b in degrees]
    for (f, h), got in zip(pairs, _brackets(pairs, L_out)):
        want = unbatched_bracket(f, h, L_out)
        assert got.L == want.L
        assert np.array_equal(got.coeffs, want.coeffs)
        assert np.array_equal(lagrange_bracket(f, h, L_out).coeffs, want.coeffs)
