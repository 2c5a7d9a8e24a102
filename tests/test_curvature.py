import numpy as np
import pytest

from contactflow import geometry
from contactflow.bracket import (
    basis_function,
    basis_size,
    lagrange_bracket,
    structure_constants,
)
from contactflow.curvature import (
    STRUCTURAL_SIGN,
    SectionPlane,
    k_biinvariant,
    k_eigen,
    k_right_invariant,
    k_structural,
    projected_covariant,
    structural_sign,
)
from contactflow.harmonics import (
    LAPLACE_SCALE,
    SpectralFunction,
    SphereGrid,
    eigenvalue,
    laplace_scale,
    synthesize,
)
from contactflow.metrics import MetricKind, energy_inner, inner


def single_degree(l, rng):
    f = SpectralFunction.zeros(l)
    f.coeffs[l, :] = rng.standard_normal(2 * l + 1)
    return f


def test_section_plane_orthonormalizes():
    rng = np.random.default_rng(0)
    f = SpectralFunction.random(2, rng)
    h = SpectralFunction.random(2, rng)
    for kind in MetricKind:
        sig = SectionPlane(f, h, kind)
        assert abs(inner(kind, sig.f, sig.f) - 1.0) < 1e-12
        assert abs(inner(kind, sig.h, sig.h) - 1.0) < 1e-12
        assert abs(inner(kind, sig.f, sig.h)) < 1e-12


def test_section_plane_normalizes_kind():
    f, h = basis_function(2), basis_function(3)
    sig = SectionPlane(f, h, "right_invariant_L2")
    assert sig.kind is MetricKind.RIGHT_INVARIANT
    assert k_right_invariant(sig) == k_right_invariant(
        SectionPlane(f, h, MetricKind.RIGHT_INVARIANT))
    with pytest.raises(ValueError):
        SectionPlane(f, h, "sobolev")


def test_section_plane_degenerate_rejected():
    f = SpectralFunction.mode(1, 0)
    with pytest.raises(ValueError):
        SectionPlane(f, 3.0 * f, MetricKind.RIGHT_INVARIANT)
    with pytest.raises(ValueError):
        SectionPlane(SpectralFunction.zeros(2), f, MetricKind.BI_INVARIANT)


def test_frozen_degree_one_values():
    f, h = basis_function(2), basis_function(3)
    kb = k_biinvariant(SectionPlane(f, h, MetricKind.BI_INVARIANT))
    assert abs(kb - 3.0 / (4.0 * np.pi ** 2)) < 1e-13
    sig = SectionPlane(f, h, MetricKind.RIGHT_INVARIANT)
    want = 3.0 / (20.0 * np.pi ** 2)
    assert abs(k_right_invariant(sig, "direct") - want) < 1e-13
    assert abs(k_right_invariant(sig, "assembled") - want) < 1e-13
    assert abs(k_eigen(f, h) - want) < 1e-13


def test_three_paths_agree_on_eigen_pairs():
    rng = np.random.default_rng(1)
    for _ in range(6):
        lf, lh = rng.integers(1, 4, size=2)
        f, h = single_degree(int(lf), rng), single_degree(int(lh), rng)
        sig = SectionPlane(f, h, MetricKind.RIGHT_INVARIANT)
        kd = k_right_invariant(sig, "direct")
        ka = k_right_invariant(sig, "assembled")
        ke = k_eigen(f, h)
        assert abs(kd - ka) < 1e-12 * max(1.0, abs(kd))
        assert abs(kd - ke) < 1e-12 * max(1.0, abs(kd))


def test_biinvariant_curvature_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(8):
        f = SpectralFunction.random(3, rng)
        h = SpectralFunction.random(3, rng)
        sig = SectionPlane(f, h, MetricKind.BI_INVARIANT)
        assert k_biinvariant(sig) >= 0.0


def test_reeb_planes_are_flat():
    rng = np.random.default_rng(3)
    c = SpectralFunction.constant(1.0)
    for _ in range(4):
        h = SpectralFunction.random(3, rng)
        sig_bi = SectionPlane(c, h, MetricKind.BI_INVARIANT)
        sig_e = SectionPlane(c, h, MetricKind.RIGHT_INVARIANT)
        assert abs(k_biinvariant(sig_bi)) < 1e-14
        assert abs(k_right_invariant(sig_e, "direct")) < 1e-14
        assert abs(k_right_invariant(sig_e, "assembled")) < 1e-14


def test_plane_invariance_under_respanning():
    # curvature depends on the plane, not the spanning pair
    rng = np.random.default_rng(4)
    f = single_degree(2, rng)
    h = single_degree(2, rng)
    sig1 = SectionPlane(f, h, MetricKind.RIGHT_INVARIANT)
    sig2 = SectionPlane(2.0 * h, f - 0.3 * h, MetricKind.RIGHT_INVARIANT)
    k1 = k_right_invariant(sig1, "direct")
    k2 = k_right_invariant(sig2, "direct")
    assert abs(k1 - k2) < 1e-11 * max(1.0, abs(k1))


def test_k_eigen_rejects_mixed_degree():
    rng = np.random.default_rng(5)
    f = SpectralFunction.random(2, rng)  # mixes degrees 0..2
    h = single_degree(1, rng)
    with pytest.raises(ValueError):
        k_eigen(f, h)


def test_structural_sign_resolved_positive():
    assert structural_sign() == 1


def test_calibration_constants_match_oracles():
    assert laplace_scale() == LAPLACE_SCALE
    assert structural_sign() == STRUCTURAL_SIGN


def test_structural_matches_eigen_on_basis_pairs():
    table = structure_constants(3)
    rng = np.random.default_rng(6)
    for _ in range(8):
        j, k = rng.choice(np.arange(1, basis_size(3)), size=2, replace=False)
        ks = k_structural(table, int(j), int(k))
        ke = k_eigen(basis_function(int(j)), basis_function(int(k)))
        assert abs(ks - ke) < 1e-12


def test_structural_needs_table():
    with pytest.raises(TypeError):
        k_structural({}, 1, 2)


def test_structural_rejects_a_degenerate_pair():
    with pytest.raises(ValueError, match="degenerate"):
        k_structural(structure_constants(2), 3, 3)


def test_projected_covariant_symmetric_part():
    # D q = [f, D h] + [h, D f] is the defining property of q
    rng = np.random.default_rng(7)
    f = single_degree(1, rng)
    h = single_degree(2, rng)
    rec = projected_covariant(f, h)
    want = lagrange_bracket(f, h.helmholtz()) + lagrange_bracket(h, f.helmholtz())
    assert (rec.q.helmholtz() - want).norm_M() < 1e-12


def test_eigen_mixture_curvature_uses_resolved_sign():
    # k_structural sums nontrivially across output degrees
    table = structure_constants(2)
    val = k_structural(table, 1, 8)
    ref = k_eigen(basis_function(1), basis_function(8))
    assert abs(val - ref) < 1e-12



# The route formulas with one lagrange_bracket call per bracket and one
# synthesize call per quadrature operand: the batched routes give the same
# floats.

def unbatched_quad(u, v):
    grid = SphereGrid.for_integration(u.L + v.L, max(u.L, v.L))
    return geometry.FIBER_FACTOR * grid.integrate(synthesize(u, grid) * synthesize(v, grid))


def unbatched_covariant(f, h):
    b = lagrange_bracket(f, h)
    fh = lagrange_bracket(f, h.helmholtz())
    hf = lagrange_bracket(h, f.helmholtz())
    return ((0.5 * (b.helmholtz() + fh + hf)).inverse_helmholtz(),
            (fh + hf).inverse_helmholtz())


def unbatched_direct(f, h):
    b = lagrange_bracket(f, h)
    lap_f, lap_h = f.laplacian(), h.laplacian()
    t_sym = lagrange_bracket(lap_f, h) + lagrange_bracket(f, lap_h)
    q_tilde = lagrange_bracket(f, lap_h) - lagrange_bracket(lap_f, h)
    ff = lagrange_bracket(f, lap_f)
    hh = lagrange_bracket(h, lap_h)
    return (0.25 * unbatched_quad(b, b)
            - 0.75 * unbatched_quad(b, b.laplacian())
            + 0.5 * unbatched_quad(b, t_sym)
            - unbatched_quad(ff, hh.inverse_helmholtz())
            + 0.25 * unbatched_quad(q_tilde, q_tilde.inverse_helmholtz()))


def unbatched_assembled(f, h):
    b = lagrange_bracket(f, h)
    q = unbatched_covariant(f, h)[1]
    return (-0.75 * energy_inner(b, b)
            - 0.5 * energy_inner(lagrange_bracket(f, b), h)
            - 0.5 * energy_inner(lagrange_bracket(h, -1.0 * b), f)
            - energy_inner(unbatched_covariant(f, f)[0], unbatched_covariant(h, h)[0])
            + 0.25 * energy_inner(q, q))


def unbatched_eigen(f, h, lf, lh):
    alpha, beta = eigenvalue(lf), eigenvalue(lh)
    sig = SectionPlane(f, h, MetricKind.RIGHT_INVARIANT)
    b = lagrange_bracket(sig.f, sig.h)
    return (-0.75 * unbatched_quad(b, b.laplacian())
            + 0.25 * (1.0 + 2.0 * (alpha + beta)) * unbatched_quad(b, b)
            + 0.25 * (alpha - beta) ** 2 * unbatched_quad(b, b.inverse_helmholtz()))


def test_batched_routes_match_unbatched_formulas():
    rng = np.random.default_rng(8)
    # (f, h, (lf, lh) for single-degree pairs, else None)
    planes = [(basis_function(5), basis_function(7), (2, 2)),
              (basis_function(3), basis_function(10), (1, 3)),
              (basis_function(14), basis_function(2), (3, 1)),
              (single_degree(2, rng), single_degree(2, rng), (2, 2)),
              (single_degree(3, rng), single_degree(1, rng), (3, 1)),
              (SpectralFunction.random(2, rng), SpectralFunction.random(3, rng), None)]
    for f, h, degrees in planes:
        sig_bi = SectionPlane(f, h, MetricKind.BI_INVARIANT)
        b = lagrange_bracket(sig_bi.f, sig_bi.h)
        assert k_biinvariant(sig_bi) == 0.25 * unbatched_quad(b, b)
        sig = SectionPlane(f, h, MetricKind.RIGHT_INVARIANT)
        assert k_right_invariant(sig, "direct") == unbatched_direct(sig.f, sig.h)
        assert k_right_invariant(sig, "assembled") == unbatched_assembled(sig.f, sig.h)
        if degrees is not None:
            assert k_eigen(f, h) == unbatched_eigen(f, h, *degrees)
