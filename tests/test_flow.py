import numpy as np
import pytest

from contactflow import flow, geometry
from contactflow.flow import (
    BlowUpError,
    FlowState,
    IntegratorConfig,
    casimirs,
    evolve,
    kinetic_energy,
    momentum_form_identity_residual,
    relative_drift,
    rhs,
    stationarity_residual,
)
from contactflow.harmonics import SpectralFunction

SQRT_4PI = np.sqrt(4.0 * np.pi)


def test_momentum_form_identity():
    # [Df, D^-1(Df)] = [Delta f, f] for any f
    rng = np.random.default_rng(0)
    for _ in range(4):
        f = SpectralFunction.random(3, rng)
        assert momentum_form_identity_residual(f) < 1e-12


def test_single_eigenmode_is_equilibrium():
    for l, m in [(1, 1), (2, 0), (3, -2)]:
        h = 2.0 * SpectralFunction.mode(l, m)
        assert stationarity_residual(h) < 1e-12


def test_same_degree_mixtures_are_equilibria():
    rng = np.random.default_rng(1)
    h = SpectralFunction.zeros(2)
    h.coeffs[2, :] = rng.standard_normal(5)
    assert stationarity_residual(h) < 1e-12


def test_casimir_values():
    rng = np.random.default_rng(2)
    h = SpectralFunction.random(2, rng)
    vals = casimirs(h, 3)
    assert abs(vals[0] - geometry.FIBER_FACTOR * h.coeffs[0, h.L] * SQRT_4PI) < 1e-13
    # I_2 is the flat pairing of h with itself
    from contactflow.harmonics import inner_M
    assert abs(vals[1] - inner_M(h, h)) < 1e-10


@pytest.mark.parametrize("L", [0, 1, 4])
def test_first_casimir_alone_is_the_first_of_several(L):
    h = SpectralFunction.random(L, np.random.default_rng(L))
    got = casimirs(h, 1)
    assert got.shape == (1,) and np.array_equal(got, casimirs(h, 3)[:1])


def test_short_run_conserves_invariants():
    rng = np.random.default_rng(3)
    # moderate amplitude: RK4 error on I_3 grows steeply with the norm
    base = SpectralFunction.random(2, rng, lmin=1)
    f = base * (4.0 / base.norm_M())
    h0 = f.helmholtz().padded(8)
    cfg = IntegratorConfig(dt=2e-3, t_end=0.1, invariant_sample_stride=10)
    result = evolve(FlowState(h0, 0.0), cfg)
    assert relative_drift(result.energy) < 1e-9
    assert relative_drift(result.casimirs[:, 1]) < 1e-9
    assert relative_drift(result.casimirs[:, 2]) < 1e-9


def test_eigenmode_evolves_unchanged():
    h0 = SpectralFunction.mode(2, 1).padded(4)
    cfg = IntegratorConfig(dt=1e-2, t_end=0.05)
    result = evolve(FlowState(h0, 0.0), cfg)
    final = result.states[-1].h
    assert np.max(np.abs(final.coeffs - h0.coeffs)) < 1e-13


def test_blow_up_raises_with_time():
    # huge data drives the quadratic term past the norm threshold
    rng = np.random.default_rng(4)
    h0 = SpectralFunction.random(2, rng, lmin=1) * 1e9
    cfg = IntegratorConfig(dt=0.5, t_end=5.0)
    with pytest.raises(BlowUpError) as err:
        evolve(FlowState(h0, 0.0), cfg)
    assert err.value.t > 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.003, t_end=0.01)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, t_end=np.inf)
    for bad in ({"invariant_sample_stride": 1.5}, {"invariant_sample_stride": 0},
                {"k_max": True}, {"k_max": 0}, {"k_max": 2.0}):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name + " to be an integer >= 1"):
            IntegratorConfig(dt=1e-2, t_end=0.02, **bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_momentum_is_rejected_before_a_step(bad, monkeypatch):
    # not a blow-up at t = dt: the state is bad before the flow starts
    h0 = SpectralFunction.random(2, np.random.default_rng(7))
    h0.coeffs[1, 2] = bad
    monkeypatch.setattr(flow, "step", lambda *a: pytest.fail("evolve took a step"))
    with pytest.raises(ValueError, match="state0"):
        evolve(FlowState(h0, 0.0), IntegratorConfig(dt=1e-2, t_end=0.02))


def test_rhs_matches_velocity_form():
    # d/dt h = [h, D^-1 h] = [Delta f, f] with h = D f
    rng = np.random.default_rng(5)
    f = SpectralFunction.random(2, rng)
    h = f.helmholtz()
    from contactflow.bracket import lagrange_bracket
    want = lagrange_bracket(f.laplacian(), f)
    got = rhs(h)
    assert (got - want.truncated(got.L)).norm_M() < 1e-12


def test_energy_log_matches_kinetic():
    rng = np.random.default_rng(6)
    h0 = SpectralFunction.random(2, rng).helmholtz()
    cfg = IntegratorConfig(dt=1e-2, t_end=0.02)
    result = evolve(FlowState(h0, 0.0), cfg)
    assert abs(result.energy[0] - kinetic_energy(h0)) < 1e-13


@pytest.mark.parametrize("field, bad, error", [
    ("h", 3.0, TypeError), ("h", None, TypeError), ("h", np.zeros((2, 3)), TypeError),
    ("t", np.nan, ValueError), ("t", -np.inf, ValueError), ("t", "0", ValueError)])
def test_flow_state_rejects_a_bad_field_at_construction(field, bad, error):
    # caught at construction, not later inside a step
    good = {"h": SpectralFunction.mode(1, 0), "t": 0.0}
    with pytest.raises(error, match="FlowState needs %s to be" % field):
        FlowState(**{**good, field: bad})
