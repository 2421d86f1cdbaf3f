import math

import numpy as np
import pytest

import sawkit as sk
from sawkit.errors import FitError
from sawkit.inversion import (
    WEAKLY_DETERMINED,
    WELL_DETERMINED,
    format_fit_report,
    write_estimates_csv,
)

from conftest import make_stack_1a, make_stack_2, make_stack_3


def two_param_free(c0=0.25, d0=0.9e-6):
    return (
        sk.FreeParam("c_ge", c0, 0.0, 1.0),
        sk.FreeParam("layer0.thickness", d0, 0.3e-6, 3e-6),
    )


@pytest.fixture(scope="module")
def problem_1a(silicon, oxide, geom, curve_1a):
    return sk.FitProblem(
        template=make_stack_1a(silicon, oxide, geom),
        free=two_param_free(),
        measured=curve_1a,
        coupling=sk.SiGeCoupling(layer_index=0),
    )


# --- coupling ---------------------------------------------------------------


def test_apply_coupling_film_values():
    e, rho = sk.apply_coupling(0.179)
    assert e == pytest.approx(155e9, abs=0.5e9)
    assert rho == pytest.approx(2865.21, rel=1e-9)
    assert abs(rho - 2860.0) < 10.0


def test_apply_coupling_sample3_value():
    e, _ = sk.apply_coupling(0.416)
    assert e == pytest.approx(148.4e9, abs=0.1e9)


def test_apply_coupling_endpoints():
    e, rho = sk.apply_coupling(0.0)
    assert e == sk.mix_young_modulus(0.0)
    assert rho == sk.mix_density(0.0)


# --- problem validation --------------------------------------------------------


def test_problem_rejects_duplicate_names(silicon, oxide, geom, curve_1a):
    with pytest.raises(FitError):
        sk.FitProblem(
            template=make_stack_1a(silicon, oxide, geom),
            free=(sk.FreeParam("c_ge", 0.2, 0, 1), sk.FreeParam("c_ge", 0.3, 0, 1)),
            measured=curve_1a,
            coupling=sk.SiGeCoupling(0),
        )


def test_problem_rejects_unknown_name(silicon, oxide, geom, curve_1a):
    with pytest.raises(FitError):
        sk.FitProblem(
            template=make_stack_1a(silicon, oxide, geom),
            free=(sk.FreeParam("layer9.thickness", 1e-6, 1e-7, 1e-5),),
            measured=curve_1a,
        )


def test_problem_requires_coupling_for_c_ge(silicon, oxide, geom, curve_1a):
    with pytest.raises(FitError):
        sk.FitProblem(
            template=make_stack_1a(silicon, oxide, geom),
            free=(sk.FreeParam("c_ge", 0.2, 0, 1),),
            measured=curve_1a,
        )


def test_free_param_validation():
    with pytest.raises(FitError):
        sk.FreeParam("c_ge", 0.5, 1.0, 0.0)
    with pytest.raises(FitError):
        sk.FreeParam("c_ge", 2.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "initial, lower, upper",
    [(1e-6, 0.3e-6, math.inf), (1e-6, -math.inf, 3e-6), (math.nan, 0.3e-6, 3e-6),
     (1e-6, math.nan, 3e-6), (math.inf, 0.3e-6, math.inf)],
)
def test_free_param_rejects_non_finite_numbers(initial, lower, upper):
    # an infinite upper bound once let the first Jacobian stencil step a
    # layer's thickness to inf, which then had no surface mode
    with pytest.raises(FitError, match="finite"):
        sk.FreeParam("layer0.thickness", initial, lower, upper)


# --- residuals -------------------------------------------------------------------


def test_residuals_zero_at_truth(problem_1a):
    r = sk.residuals(problem_1a, {"c_ge": 0.179, "layer0.thickness": 1.02e-6})
    assert np.abs(r).max() < 1e-6


def test_residuals_weighting_linearity(silicon, oxide, geom, curve_1a):
    def residuals_at_sigma(sigma):
        sigmas = None if sigma is None else tuple(sigma for _ in curve_1a.frequencies)
        measured = sk.DispersionCurve(curve_1a.frequencies, curve_1a.velocities, sigmas)
        problem = sk.FitProblem(
            template=make_stack_1a(silicon, oxide, geom),
            free=two_param_free(),
            measured=measured,
            coupling=sk.SiGeCoupling(0),
        )
        return sk.residuals(problem, {"c_ge": 0.22, "layer0.thickness": 0.95e-6})

    r1 = residuals_at_sigma(1.0)
    assert np.allclose(residuals_at_sigma(2.0), 0.5 * r1, rtol=1e-12)
    # a curve without sigmas is weighted as sigma = 1 m/s
    assert np.array_equal(residuals_at_sigma(None), r1)


def test_residuals_positive_for_stiffer_film(silicon, oxide, geom, curve_1a):
    prob = sk.FitProblem(
        template=make_stack_1a(silicon, oxide, geom),
        free=(sk.FreeParam("layer0.young_modulus", 155e9, 50e9, 400e9),),
        measured=curve_1a,
    )
    truth_e = sk.mix_young_modulus(0.179)
    r = sk.residuals(prob, {"layer0.young_modulus": truth_e * 1.05})
    assert (r > 0).all()


def test_residuals_reject_out_of_bounds(problem_1a):
    with pytest.raises(FitError):
        sk.residuals(problem_1a, {"c_ge": 1.5, "layer0.thickness": 1e-6})


# --- fitting ----------------------------------------------------------------------


def test_noise_free_recovery_1a(problem_1a):
    res = sk.fit_parameters(problem_1a)
    assert res.converged
    assert abs(res.estimates["c_ge"] - 0.179) / 0.179 < 1e-6
    assert abs(res.estimates["layer0.thickness"] - 1.02e-6) / 1.02e-6 < 1e-6
    assert res.residual_rms < 1e-3
    assert res.identifiability["c_ge"] == WELL_DETERMINED
    assert res.covariance.shape == (2, 2)
    assert res.covariance[0, 0] >= 0 and res.covariance[1, 1] >= 0


def test_noise_free_recovery_stack2(silicon, oxide, geom):
    freqs = np.linspace(50e6, 500e6, 16)
    truth = sk.dispersion_curve(make_stack_2(silicon, oxide, geom), freqs)
    prob = sk.FitProblem(
        template=make_stack_2(silicon, oxide, geom, c_ge=0.55, d=0.8e-6),
        free=two_param_free(c0=0.55, d0=0.8e-6),
        measured=truth,
        coupling=sk.SiGeCoupling(0),
    )
    res = sk.fit_parameters(prob)
    assert res.converged
    assert abs(res.estimates["c_ge"] - 0.624) / 0.624 < 1e-6
    assert abs(res.estimates["layer0.thickness"] - 0.71e-6) / 0.71e-6 < 1e-6


def test_stationarity_at_solution(problem_1a):
    from sawkit.inversion import _jacobian, _model

    res = sk.fit_parameters(problem_1a)
    r = sk.residuals(problem_1a, res.estimates)
    start = {p.name: p.initial for p in problem_1a.free}
    r0 = sk.residuals(problem_1a, start)
    jac = _jacobian(problem_1a, res.estimates, _model(problem_1a, r))
    jac0 = _jacobian(problem_1a, start, _model(problem_1a, r0))
    scales = np.array([0.179, 1.02e-6])
    g_end = np.abs((jac * scales).T @ r).max()
    g_start = np.abs((jac0 * scales).T @ r0).max()
    assert g_end < 1e-6 * g_start


def test_curve_solves_after_the_loop_are_one_jacobian(problem_1a, monkeypatch):
    # Work-count guard: the Jacobian works at the model roots the fit already
    # holds, so every curve solve of a fit is a residual evaluation (the
    # start plus one per trial step) and none follows the loop; the report
    # reuses the residuals the fit holds instead of solving again.
    import sawkit.inversion as inv

    solves = {"total": 0, "in_jacobian": 0, "residual_calls": 0}
    jacobian_starts = []
    solve, jacobian, resid = inv.dispersion_curve, inv._jacobian, inv.residuals

    def counting_solve(*args, **kwargs):
        solves["total"] += 1
        return solve(*args, **kwargs)

    def marking_jacobian(*args, **kwargs):
        jacobian_starts.append(solves["total"])
        jac = jacobian(*args, **kwargs)
        solves["in_jacobian"] += solves["total"] - jacobian_starts[-1]
        return jac

    def counting_residuals(*args, **kwargs):
        solves["residual_calls"] += 1
        return resid(*args, **kwargs)

    monkeypatch.setattr(inv, "dispersion_curve", counting_solve)
    monkeypatch.setattr(inv, "_jacobian", marking_jacobian)
    monkeypatch.setattr(inv, "residuals", counting_residuals)
    res = sk.fit_parameters(problem_1a)
    assert solves["in_jacobian"] == 0
    assert solves["total"] == jacobian_starts[-1]
    # one Jacobian per iteration plus the one at the solution
    assert len(jacobian_starts) == res.n_iterations + 1
    trial_steps = solves["residual_calls"] - 1
    assert solves["total"] == 1 + trial_steps
    # machine-independent ceiling: the finite-difference Jacobian of the
    # roots made 25 curve solves on this fit
    assert solves["total"] <= 8

    before = solves["total"]
    format_fit_report(problem_1a, res)
    assert solves["total"] == before


_FREQS_07 = np.linspace(50e6, 900e6, 35)
# (stack builder, criterion-7 start, truth) of the two criterion-7 stacks
_STACKS_07 = {
    "1A": (make_stack_1a, (0.25, 0.9e-6), (0.179, 1.02e-6)),
    "2": (make_stack_2, (0.5, 0.8e-6), (0.624, 0.71e-6)),
}


def _criterion_07_problem(silicon, oxide, geom, which, free=None):
    make, start, _ = _STACKS_07[which]
    template = make(silicon, oxide, geom)
    truth = sk.dispersion_curve(template, _FREQS_07)
    measured = sk.DispersionCurve(
        truth.frequencies, truth.velocities,
        sigmas=tuple(0.001 * v for v in truth.velocities),
    )
    return sk.FitProblem(
        template=template,
        free=free or two_param_free(*start),
        measured=measured,
        coupling=sk.SiGeCoupling(0),
    )


def _implicit_and_fallback(problem, values, monkeypatch):
    """(implicit Jacobian, finite-difference Jacobian of the roots) at values;
    fails if the implicit path fell back."""
    import sawkit.inversion as inv

    model = inv._model(problem, sk.residuals(problem, values))

    def no_fallback(*args):
        raise AssertionError("implicit Jacobian fell back to finite differences")

    with monkeypatch.context() as m:
        m.setattr(inv, "_fd_jacobian", no_fallback)
        implicit = inv._jacobian(problem, values, model)
    return implicit, inv._fd_jacobian(problem, values)


def _column_rel_diff(a, b):
    return np.linalg.norm(a - b, axis=0) / np.linalg.norm(b, axis=0)


@pytest.mark.parametrize("which", ["1A", "2"])
@pytest.mark.parametrize("at", ["start", "truth"])
def test_implicit_jacobian_matches_finite_differences(
    silicon, oxide, geom, monkeypatch, which, at
):
    _, start, truth = _STACKS_07[which]
    problem = _criterion_07_problem(silicon, oxide, geom, which)
    point = start if at == "start" else truth
    values = dict(zip(("c_ge", "layer0.thickness"), point))
    implicit, fd = _implicit_and_fallback(problem, values, monkeypatch)
    # single near-zero entries differ more, so compare whole columns
    assert _column_rel_diff(implicit, fd).max() <= 1e-6


def test_implicit_jacobian_direct_layer_field(silicon, oxide, geom, monkeypatch):
    free = (sk.FreeParam("layer0.young_modulus", 150e9, 50e9, 400e9),)
    problem = _criterion_07_problem(silicon, oxide, geom, "1A", free)
    values = {"layer0.young_modulus": sk.mix_young_modulus(0.179)}
    implicit, fd = _implicit_and_fallback(problem, values, monkeypatch)
    assert _column_rel_diff(implicit, fd).max() <= 1e-6


@pytest.mark.parametrize("fault", ["nan_in_v_stencil", "nan_in_theta_stencil", "off_root"])
def test_jacobian_fallback_is_finite_differences(problem_1a, monkeypatch, fault):
    import sawkit.inversion as inv

    values = {"c_ge": 0.2, "layer0.thickness": 1.0e-6}
    model = inv._model(problem_1a, sk.residuals(problem_1a, values))
    if fault.startswith("nan"):
        indicator = inv.pole_indicator_at
        batch = 2 * len(model) if fault == "nan_in_v_stencil" else len(model)

        def nan_at_one_stencil_point(stack, freqs, v):
            q = indicator(stack, freqs, v)
            if len(v) == batch:
                q[3] = np.nan
            return q

        monkeypatch.setattr(inv, "pole_indicator_at", nan_at_one_stencil_point)
    else:
        # 1e-5 off its root the stencil no longer brackets the root
        model[5] *= 1.0 + 1e-5
    calls = []
    fallback = inv._fd_jacobian
    monkeypatch.setattr(
        inv, "_fd_jacobian", lambda *a: calls.append(a) or fallback(*a)
    )
    jac = inv._jacobian(problem_1a, values, model)
    assert len(calls) == 1
    assert np.array_equal(jac, fallback(problem_1a, values))


def test_log_transform_matches_linear(silicon, oxide, geom, curve_1a):
    rng = np.random.default_rng(5)
    v = np.array(curve_1a.velocities)
    meas = sk.DispersionCurve(
        curve_1a.frequencies,
        tuple(v * (1 + rng.normal(0, 0.001, v.size))),
        sigmas=tuple(0.001 * v),
    )

    def fit_with(transform):
        prob = sk.FitProblem(
            template=make_stack_1a(silicon, oxide, geom),
            free=(
                sk.FreeParam("c_ge", 0.25, 0.0, 1.0),
                sk.FreeParam("layer0.thickness", 0.9e-6, 0.3e-6, 3e-6, transform),
            ),
            measured=meas,
            coupling=sk.SiGeCoupling(0),
        )
        # tight tolerances so both paths stop at the same minimum, not at
        # two points a default-tolerance step apart
        return sk.fit_parameters(prob, step_tol=1e-10, cost_tol=1e-14)

    lin = fit_with("linear")
    log = fit_with("log")
    assert lin.converged and log.converged
    for name in lin.estimates:
        assert log.estimates[name] == pytest.approx(lin.estimates[name], rel=1e-8)
        assert log.sigma(name) == pytest.approx(lin.sigma(name), rel=1e-8)
    assert log.identifiability == lin.identifiability


def test_sigma_scaling_invariance(silicon, oxide, geom, curve_1a):
    rng = np.random.default_rng(9)
    noisy = np.array(curve_1a.velocities) * (1 + rng.normal(0, 0.001, len(curve_1a)))
    sig = 0.001 * np.array(curve_1a.velocities)

    def fit_with(scale):
        meas = sk.DispersionCurve(
            curve_1a.frequencies, tuple(noisy), sigmas=tuple(scale * sig)
        )
        prob = sk.FitProblem(
            template=make_stack_1a(silicon, oxide, geom),
            free=two_param_free(),
            measured=meas,
            coupling=sk.SiGeCoupling(0),
        )
        return sk.fit_parameters(prob)

    a = fit_with(1.0)
    b = fit_with(3.0)
    assert a.estimates["c_ge"] == pytest.approx(b.estimates["c_ge"], rel=1e-6)
    assert a.estimates["layer0.thickness"] == pytest.approx(
        b.estimates["layer0.thickness"], rel=1e-6
    )
    assert a.identifiability == b.identifiability
    ratio = b.covariance[0, 0] / a.covariance[0, 0]
    assert ratio == pytest.approx(9.0, rel=1e-3)


def test_covariance_without_sigmas_scales_with_scatter(silicon, oxide, geom, curve_1a):
    # no sigmas: the covariance is scaled by chi^2/(N - p), so the reported
    # sigma follows the residual scatter instead of an assumed 1 m/s
    v = np.array(curve_1a.velocities)
    scatter = np.random.default_rng(11).normal(0, 1e-4, v.size) * v

    def fit_with(scale):
        prob = sk.FitProblem(
            template=make_stack_1a(silicon, oxide, geom),
            free=two_param_free(),
            measured=sk.DispersionCurve(curve_1a.frequencies, tuple(v + scale * scatter)),
            coupling=sk.SiGeCoupling(0),
        )
        return prob, sk.fit_parameters(prob)

    prob, a = fit_with(1.0)
    _, b = fit_with(2.0)
    assert a.converged and b.converged
    for name in a.estimates:
        assert b.sigma(name) == pytest.approx(2.0 * a.sigma(name), rel=1e-2)
    assert "covariance mode: scaled by chi^2/(N - p)" in format_fit_report(prob, a)


def test_fit_requires_enough_points(silicon, oxide, geom):
    meas = sk.DispersionCurve((100e6,), (4600.0,))
    prob = sk.FitProblem(
        template=make_stack_1a(silicon, oxide, geom),
        free=two_param_free(),
        measured=meas,
        coupling=sk.SiGeCoupling(0),
    )
    with pytest.raises(FitError):
        sk.fit_parameters(prob)


# --- identifiability -----------------------------------------------------------------


def test_sample3_thickness_weakly_determined(silicon, geom):
    freqs = np.linspace(50e6, 500e6, 16)
    truth = sk.dispersion_curve(make_stack_3(silicon, geom), freqs)
    prob = sk.FitProblem(
        template=make_stack_3(silicon, geom),
        free=two_param_free(c0=0.416, d0=0.9e-6),
        measured=truth,
        coupling=sk.SiGeCoupling(0),
    )
    rep = sk.identifiability_report(
        prob, {"c_ge": 0.416, "layer0.thickness": 0.9e-6}
    )
    assert rep.flags["layer0.thickness"] == WEAKLY_DETERMINED
    assert rep.flags["c_ge"] == WELL_DETERMINED
    assert "layer0.thickness" in rep.recommendation


def test_1a_both_well_determined(problem_1a):
    rep = sk.identifiability_report(
        problem_1a, {"c_ge": 0.179, "layer0.thickness": 1.02e-6}
    )
    assert rep.flags["c_ge"] == WELL_DETERMINED
    assert rep.flags["layer0.thickness"] == WELL_DETERMINED


def test_single_parameter_well_determined(silicon, geom):
    freqs = np.linspace(50e6, 500e6, 10)
    truth = sk.dispersion_curve(make_stack_3(silicon, geom), freqs)
    prob = sk.FitProblem(
        template=make_stack_3(silicon, geom),
        free=(sk.FreeParam("c_ge", 0.35, 0.0, 1.0),),
        measured=truth,
        coupling=sk.SiGeCoupling(0),
    )
    rep = sk.identifiability_report(prob, {"c_ge": 0.35})
    assert rep.flags["c_ge"] == WELL_DETERMINED


def test_sample3_fixed_thickness_fit_converges(silicon, geom):
    freqs = np.linspace(50e6, 500e6, 12)
    truth = sk.dispersion_curve(make_stack_3(silicon, geom), freqs)
    prob = sk.FitProblem(
        template=make_stack_3(silicon, geom, c_ge=0.35, d=0.9e-6),
        free=(sk.FreeParam("c_ge", 0.35, 0.0, 1.0),),
        measured=truth,
        coupling=sk.SiGeCoupling(0),
    )
    res = sk.fit_parameters(prob)
    assert res.converged
    assert abs(res.estimates["c_ge"] - 0.416) < 1e-4


# --- reporting ----------------------------------------------------------------------


def test_fit_report_and_estimates_csv(tmp_path, problem_1a):
    res = sk.fit_parameters(problem_1a)
    report = format_fit_report(problem_1a, res)
    assert "estimates" in report
    assert "c_ge" in report
    assert "covariance" in report
    p = tmp_path / "est.csv"
    write_estimates_csv(res, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "parameter,estimate,sigma,flag"
    assert lines[1].startswith("c_ge,")
