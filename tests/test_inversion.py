import importlib.util
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sawkit as sk
from sawkit.errors import FitError, StackJoinError
from sawkit.inversion import (
    WEAKLY_DETERMINED,
    WELL_DETERMINED,
    format_fit_report,
    write_estimates_csv,
)

import joined_oracle
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


@pytest.mark.parametrize(
    "param, reason",
    [(sk.FreeParam("c_ge", 0.0, -0.5, 1.0), "germanium fraction must be in [0, 1], got -0.5"),
     (sk.FreeParam("c_ge", 1.0, 0.0, 1.5), "germanium fraction must be in [0, 1], got 1.5"),
     (sk.FreeParam("layer0.thickness", 0.9e-6, 0.0, 3e-6),
      "layer thickness must be finite and > 0, got 0.0"),
     (sk.FreeParam("layer0.young_modulus", 150e9, -1e9, 400e9),
      "young_modulus must be > 0, got -1000000000.0"),
     (sk.FreeParam("layer0.poisson_ratio", 0.22, -1.0, 0.4),
      "poisson_ratio must be in (-1, 0.5), got -1.0"),
     (sk.FreeParam("layer0.poisson_ratio", 0.22, 0.1, 0.5),
      "poisson_ratio must be in (-1, 0.5), got 0.5"),
     (sk.FreeParam("layer0.density", 2300.0, 0.0, 6000.0), "density must be > 0, got 0.0")],
    ids=["c_ge-lower", "c_ge-upper", "thickness", "young_modulus", "poisson_ratio-lower",
         "poisson_ratio-upper", "density"],
)
def test_problem_rejects_a_bound_that_makes_an_invalid_stack(silicon, oxide, geom, curve_1a,
                                                             param, reason):
    # each bound is realized when the problem is made, so a fit never meets
    # an invalid stack at a stencil point the user did not set; the fault
    # names its own parameter, not a valid one before it
    free = (sk.FreeParam("layer1.thickness", 2.4e-6, 1e-6, 4e-6), param)
    with pytest.raises(FitError) as info:
        sk.FitProblem(template=make_stack_1a(silicon, oxide, geom), free=free,
                      measured=curve_1a, coupling=sk.SiGeCoupling(0))
    assert (info.value.param, info.value.reason) == (param.name, reason)


def test_problem_requires_coupling_for_c_ge(silicon, oxide, geom, curve_1a):
    with pytest.raises(FitError):
        sk.FitProblem(
            template=make_stack_1a(silicon, oxide, geom),
            free=(sk.FreeParam("c_ge", 0.2, 0, 1),),
            measured=curve_1a,
        )


def test_problem_rejects_c_ge_on_an_anisotropic_layer(silicon, oxide, geom, curve_1a):
    # the mixing rules set an isotropic film's fields; a cubic coupled layer
    # was accepted, and the fit's start failed with a bare TypeError
    stack = make_stack_1a(silicon, oxide, geom)
    stack = stack.with_layer(1, replace(stack.layers[1], material=silicon))
    with pytest.raises(FitError, match="coupled layer 1 is not isotropic") as info:
        sk.FitProblem(template=stack, free=(sk.FreeParam("c_ge", 0.2, 0, 1),),
                      measured=curve_1a, coupling=sk.SiGeCoupling(1))
    assert info.value.param == "c_ge"


@pytest.mark.parametrize("field", ["young_modulus", "density"])
def test_problem_rejects_c_ge_with_a_field_it_sets(silicon, oxide, geom, curve_1a, field):
    # c_ge sets the coupled layer's modulus and density; with either field
    # free too, that field overrode c_ge's value (a stack-3 fit with the
    # modulus free set c_ge by the density alone)
    free = (sk.FreeParam("c_ge", 0.2, 0, 1),
            sk.FreeParam(f"layer0.{field}", 3000.0, 1000.0, 400e9))
    with pytest.raises(FitError, match="c_ge sets it too") as info:
        sk.FitProblem(template=make_stack_1a(silicon, oxide, geom), free=free,
                      measured=curve_1a, coupling=sk.SiGeCoupling(0))
    assert info.value.param == f"layer0.{field}"


def test_problem_rejects_no_free_parameters(silicon, oxide, geom, curve_1a):
    # fit_parameters and identifiability_report failed inside the Jacobian
    # with numpy's "need at least one array to concatenate"
    with pytest.raises(FitError, match="no free parameters"):
        sk.FitProblem(template=make_stack_1a(silicon, oxide, geom), free=(), measured=curve_1a)


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


def test_residuals_check_frequencies_before_any_indicator(problem_1a, monkeypatch):
    # a measured curve with a frequency that dispersion_curve rejects (the
    # curve itself takes f <= 0) is rejected before the start's indicator
    # batch evaluates the model there
    import sawkit.inversion as inv

    curve = problem_1a.measured
    measured = sk.DispersionCurve((0.0,) + curve.frequencies[1:], curve.velocities)
    problem = replace(problem_1a, measured=measured)

    def no_indicator(*args):
        raise AssertionError("indicator evaluated before the frequency check")

    monkeypatch.setattr(inv, "_indicator", no_indicator)
    with pytest.raises(ValueError, match="frequencies must be positive and finite"):
        sk.residuals(problem, {"c_ge": 0.2, "layer0.thickness": 1e-6})


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


def _e_rho_d_problem(silicon, geom):
    """(problem, truth) of stack 3's film with E, rho and d free: 35 points
    at 50-900 MHz with 0.1 % noise, started at 0.9 E, 1.1 rho and 0.9 d."""
    film = sk.sige_material(0.416)
    stack = make_stack_3(silicon, geom)
    freqs = np.linspace(50e6, 900e6, 35)
    v = np.asarray(sk.dispersion_curve(stack, freqs).velocities)
    noisy = v * (1.0 + np.random.default_rng(0).normal(0.0, 0.001, v.size))
    e, rho, d = film.young_modulus, film.density, 0.9e-6
    prob = sk.FitProblem(
        template=stack,
        free=(sk.FreeParam("layer0.young_modulus", 0.9 * e, 0.5 * e, 1.5 * e),
              sk.FreeParam("layer0.density", 1.1 * rho, 0.5 * rho, 1.5 * rho),
              sk.FreeParam("layer0.thickness", 0.9 * d, 0.3 * d, 3 * d)),
        measured=sk.DispersionCurve(freqs, noisy, sigmas=0.001 * v),
    )
    return prob, (e, rho, d)


def _scaled_svd_covariance(jac):
    """V S^-2 V^T of the SVD of ``jac`` with unit-norm columns, rescaled by
    the column norms: (J^T J)^-1 without squaring J's raw condition."""
    norms = np.linalg.norm(jac, axis=0)
    _, sv, vt = np.linalg.svd(jac / norms, full_matrices=False)
    return (vt.T / sv**2) @ vt / np.outer(norms, norms)


def test_young_modulus_density_and_thickness_round_trip(silicon, geom):
    # the paper's measurement on stack 3's film: E in Pa, rho in kg/m^3 and
    # d in m give a raw cond(J) near 1e18, where a step and covariance taken
    # in those units dropped E's direction (E stayed at its start, with
    # sigma 0); on the parameter-scaled Jacobian each estimate ends within
    # 3 sigma of the truth
    prob, truth = _e_rho_d_problem(silicon, geom)
    res = sk.fit_parameters(prob)
    assert res.converged
    for name, x in zip(res.estimates, truth):
        assert res.sigma(name) > 0, name
        assert abs(res.estimates[name] - x) < 3 * res.sigma(name), name


def test_covariance_past_raw_cond_1e15_is_the_scaled_svd_one(silicon, geom, monkeypatch):
    # the (E, rho, d) fit's last Jacobian has raw cond(J) ~3e18, past
    # pinv(J^T J)'s cutoff: the covariance equals V S^-2 V^T of the
    # column-scaled J, rescaled (5.6e-15 apart when measured)
    import sawkit.inversion as inv

    jacobians = []
    jacobian = inv._jacobian

    def recording(*args):
        jacobians.append(jacobian(*args))
        return jacobians[-1]

    monkeypatch.setattr(inv, "_jacobian", recording)
    prob, _ = _e_rho_d_problem(silicon, geom)
    res = sk.fit_parameters(prob)
    assert res.converged
    assert np.linalg.cond(jacobians[-1]) > 1e15
    np.testing.assert_allclose(res.covariance, _scaled_svd_covariance(jacobians[-1]),
                               rtol=1e-10, atol=0)


def test_fit_stops_on_the_first_step_promising_a_small_drop(silicon, geom, monkeypatch):
    # the (E, rho, d) fit's 5th Gauss-Newton step promises a cost drop of
    # 4e-9 with a largest component of 3.3e-6 of its scale, so the fit takes
    # it on the promise alone, with no trial solve after its last Jacobian
    # and no test of the step's size (one at 1e-6 cost a 6th Jacobian and
    # solve); it lands 1.5e-6 sigma from the fit run to a promised 1e-10
    # when measured
    import sawkit.inversion as inv

    calls = []
    jacobian, resid = inv._jacobian, inv._residuals

    def recording(fn, key):
        def wrapper(*args):
            calls.append(key)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(inv, "_jacobian", recording(jacobian, "J"))
    monkeypatch.setattr(inv, "_residuals", recording(resid, "r"))
    prob, _ = _e_rho_d_problem(silicon, geom)
    res = sk.fit_parameters(prob)
    assert res.converged and res.message == "converged (promised cost drop <= 1e-06)"
    assert "".join(calls) == "rJ" * 5 and res.n_iterations == 5
    monkeypatch.setattr(inv, "_jacobian", jacobian)
    monkeypatch.setattr(inv, "_residuals", resid)
    monkeypatch.setattr(inv, "_FINISH_DROP", 1e-10)
    tight = sk.fit_parameters(prob)
    assert tight.converged
    for name, value in res.estimates.items():
        assert abs(value - tight.estimates[name]) < 1e-4 * res.sigma(name), name


def test_sigma_of_an_unknown_name_names_it():
    res = sk.FitResult(estimates={"c_ge": 0.2}, covariance=np.eye(1), residuals=np.zeros(2),
                       residual_rms=0.0, n_iterations=1, identifiability={}, converged=True,
                       message="")
    assert res.sigma("c_ge") == 1.0
    with pytest.raises(FitError) as err:
        res.sigma("layer0.density")
    assert err.value.param == "layer0.density" and err.value.reason == "unknown parameter"


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
    # reuses the residuals the fit holds instead of solving again.  The fit
    # stops on the Gauss-Newton step of its last Jacobian, so no Jacobian
    # follows the loop either.
    import sawkit.inversion as inv

    solves = {"total": 0, "in_jacobian": 0, "residual_calls": 0}
    jacobian_starts = []
    solve, jacobian, resid = inv._curve_roots, inv._jacobian, inv._residuals

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

    monkeypatch.setattr(inv, "_curve_roots", counting_solve)
    monkeypatch.setattr(inv, "_jacobian", marking_jacobian)
    monkeypatch.setattr(inv, "_residuals", counting_residuals)
    res = sk.fit_parameters(problem_1a)
    assert solves["total"] > 0
    assert solves["in_jacobian"] == 0
    assert solves["total"] == jacobian_starts[-1]
    assert res.message == "converged (promised cost drop <= 1e-06)"
    # one Jacobian per iteration, the stopping one included
    assert len(jacobian_starts) == res.n_iterations
    trial_steps = solves["residual_calls"] - 1
    assert solves["total"] == 1 + trial_steps
    # machine-independent ceiling: the finite-difference Jacobian of the
    # roots made 25 curve solves on this fit
    assert solves["total"] <= 8

    before = solves["total"]
    format_fit_report(problem_1a, res)
    assert solves["total"] == before


def test_one_indicator_batch_per_jacobian(problem_1a, monkeypatch):
    # Work-count guard: a Jacobian evaluates the v-stencil on the fitted
    # stack and every parameter's stepped stacks in one _indicator batch of
    # (2 + 2p) N pairs, and a fit that stops on a Gauss-Newton step takes
    # one Jacobian per iteration and none after the loop
    import sawkit.dispersion as dsp
    import sawkit.inversion as inv

    batches, per_jacobian = [], []
    jacobian = inv._jacobian

    def counting(indicator):
        def wrapper(prep, freqs, v):
            batches.append(np.size(v))
            return indicator(prep, freqs, v)
        return wrapper

    def marking_jacobian(*args):
        start = len(batches)
        jac = jacobian(*args)
        per_jacobian.append(batches[start:])
        return jac

    monkeypatch.setattr(dsp, "_indicator", counting(dsp._indicator))
    monkeypatch.setattr(inv, "_indicator", counting(inv._indicator))
    monkeypatch.setattr(inv, "_jacobian", marking_jacobian)
    res = sk.fit_parameters(problem_1a)
    n, p = len(problem_1a.measured), len(problem_1a.free)
    assert res.message == "converged (promised cost drop <= 1e-06)"
    assert len(per_jacobian) == res.n_iterations
    assert per_jacobian == [[(2 + 2 * p) * n]] * len(per_jacobian)


# --- self hints and the lower-mode certificate ---------------------------------


@pytest.fixture(scope="module")
def invert_seed_7():
    """Fit problems 0-39 of the benchmark's ``invert`` workload at seed 7."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    workload = module.Invert(7, Path("unused"))
    return [workload.make_input(i) for i in range(40)]


def test_self_hinted_fits_match_measured_hints_in_fewer_batches(invert_seed_7, monkeypatch):
    # Differential test and work guard that does not depend on the machine:
    # each trial step hints from the roots the Jacobian predicts for it, the
    # start from the measured curve moved one Newton step of the start
    # model's indicator, and the seed-7 fits keep the estimates and
    # iteration counts of hinting every solve from the measured curve (41.3
    # indicator batches per fit before), in at most 22 batches per fit (26
    # while the start hinted from the measured curve and scanned the 24.4
    # points per fit its windows missed, 31 while each fit confirmed its
    # last step with a curve solve).  A fit makes one mode count, the
    # certificate at the solution: the start scans no point.
    import sawkit.dispersion as dsp
    import sawkit.inversion as inv

    counts = {"_indicator": 0, "_mode_count": 0}

    def counting(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    for module, key in ((dsp, "_indicator"), (inv, "_indicator"), (dsp, "_mode_count")):
        monkeypatch.setattr(module, key, counting(getattr(module, key), key))
    fits = [sk.fit_parameters(p) for p in invert_seed_7]
    n = len(fits)
    assert counts["_indicator"] <= 22 * n
    assert counts["_mode_count"] == n
    assert all(r.converged and r.lower_modes == () for r in fits)
    # every fit stops on its Gauss-Newton step, in 4 iterations each
    assert all(r.message == "converged (promised cost drop <= 1e-06)" for r in fits)
    assert sum(r.n_iterations for r in fits) == 160

    residuals = inv._residuals
    monkeypatch.setattr(inv, "_residuals", lambda problem, stack, hints:
                        residuals(problem, stack, problem.measured.velocities))
    counts["_indicator"] = counts["_mode_count"] = 0
    measured = [sk.fit_parameters(p) for p in invert_seed_7]
    assert counts["_indicator"] > 22 * n
    assert counts["_mode_count"] == 2 * n
    for a, b in zip(fits, measured):
        assert a.n_iterations == b.n_iterations
        for name, value in a.estimates.items():
            assert value == pytest.approx(b.estimates[name], rel=1e-9, abs=0)


def _start_solves(monkeypatch):
    """Records (hints, roots, cold) of every ``_find_modes`` call and counts
    the ``_mode_count`` calls in ``counts``."""
    import sawkit.dispersion as dsp

    solves, counts = [], {"_mode_count": 0}
    find_modes, mode_count = dsp._find_modes, dsp._mode_count

    def recording(stack, freqs, hints):
        roots, cold = find_modes(stack, freqs, hints)
        solves.append((hints, roots, cold))
        return roots, cold

    def counting(*args):
        counts["_mode_count"] += 1
        return mode_count(*args)

    monkeypatch.setattr(dsp, "_find_modes", recording)
    monkeypatch.setattr(dsp, "_mode_count", counting)
    return solves, counts


def test_newton_hinted_start_matches_measured_hints_without_a_scan(invert_seed_7, monkeypatch):
    # Differential test and work guard: the start solve hints from the
    # measured curve moved one Newton step of the start model's indicator.
    # On the seed-7 fits it finds the roots that hinting from the measured
    # curve finds, where 24.4 points per fit missed their windows and
    # scanned after a mode count, with no scan and no mode count.
    import sawkit.inversion as inv

    solves, counts = _start_solves(monkeypatch)
    for problem in invert_seed_7:
        start = {p.name: p.initial for p in problem.free}
        model = inv._model(problem, sk.residuals(problem, start))
        (hints, roots, cold), = solves
        assert cold.size == 0 and counts["_mode_count"] == 0
        assert not np.array_equal(hints, problem.measured.velocities)
        measured = inv._model(problem, inv._residuals(
            problem, problem.realize(start), problem.measured.velocities))
        np.testing.assert_allclose(model, measured, rtol=1e-12, atol=0)
        solves.clear()
        counts["_mode_count"] = 0


@pytest.mark.parametrize("fault", ["flat", "nan", "far"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_start_point_without_a_newton_step_keeps_its_measured_hint(
    invert_seed_7, monkeypatch, fault
):
    # where the start model's indicator stencil gives no finite Newton step
    # (q equal at both ends, or NaN), or one far outside the search window
    # (q nearly flat), the point keeps its measured velocity as its hint,
    # which misses its windows there and scans; the fit runs on, with no
    # non-finite hint and no warning
    import sawkit.inversion as inv

    problem, j = invert_seed_7[0], 34
    expected = sk.fit_parameters(problem)
    n = len(problem.measured)
    indicator = inv._indicator

    def faulty_newton_batch(prep, freqs, v):
        assert len(v) == 2 * n  # the v-stencil up, then down, at the measured velocities
        monkeypatch.setattr(inv, "_indicator", indicator)
        q = indicator(prep, freqs, v)
        q[j + n] = {"flat": q[j], "nan": np.nan, "far": q[j] * (1.0 - 1e-12)}[fault]
        return q

    monkeypatch.setattr(inv, "_indicator", faulty_newton_batch)
    solves, _ = _start_solves(monkeypatch)
    res = sk.fit_parameters(problem)
    hints, _, cold = solves[0]
    measured = np.asarray(problem.measured.velocities)
    assert hints[j] == measured[j] and np.isfinite(hints).all()
    assert (hints != measured).sum() == n - 1
    assert cold.tolist() == [j]
    assert res.converged and res.n_iterations == expected.n_iterations
    for name, value in res.estimates.items():
        assert value == pytest.approx(expected.estimates[name], rel=1e-9, abs=0)


def _stack_1a_x10_thickness_fit(silicon, oxide, geom, shift=None):
    """(problem, cold curve, start) of stack 1A with its layers x10, layer-0
    thickness fitted from 0.85x the truth on its cold curve with 0.1 %
    noise; ``shift`` (index, m/s) moves one measured point."""
    base = make_stack_1a(silicon, oxide, geom)
    stack = replace(base, layers=tuple(replace(l, thickness=10 * l.thickness)
                                       for l in base.layers))
    cold = sk.dispersion_curve(stack, _FREQS_07)
    v = np.asarray(cold.velocities)
    noisy = v * (1.0 + np.random.default_rng(2).normal(0.0, 0.001, v.size))
    if shift is not None:
        noisy[shift[0]] += shift[1]
    problem = sk.FitProblem(
        template=stack,
        free=(sk.FreeParam("layer0.thickness", 0.85 * 10.2e-6, 3e-6, 30e-6),),
        measured=sk.DispersionCurve(cold.frequencies, tuple(noisy),
                                    sigmas=tuple(0.001 * v)),
    )
    return problem, cold, {"layer0.thickness": 0.85 * 10.2e-6}


def _start_models(problem, start):
    """Start model velocities (m/s) of ``residuals`` and of hinting from the
    measured velocities."""
    import sawkit.inversion as inv

    measured = problem.measured.velocities
    return (inv._model(problem, sk.residuals(problem, start)),
            inv._model(problem, inv._residuals(problem, problem.realize(start), measured)))


def test_newton_hinted_start_follows_the_measured_branch(silicon, oxide, geom):
    # at 300 MHz (index 10) the measured point lies on a higher branch than
    # the start model's lowest mode, and the Newton hint follows that branch
    # (4068.71 m/s) where the measured hint missed its windows and scanned
    # down to 3840.81 m/s; every other start root is the measured hint's.
    # As for any hint near a higher mode, the certificate at the solution
    # lists the points with a lower mode
    problem, cold, start = _stack_1a_x10_thickness_fit(silicon, oxide, geom)
    model, measured = _start_models(problem, start)
    assert model[10] == pytest.approx(4068.71, abs=0.01)
    assert measured[10] == pytest.approx(3840.81, abs=0.01)
    others = np.arange(model.size) != 10
    np.testing.assert_allclose(model[others], measured[others], rtol=1e-12, atol=0)
    result = sk.fit_parameters(problem)
    assert result.converged
    assert result.lower_modes == cold.lower_modes == tuple(range(10, 35))


def test_newton_step_past_a_near_pole_leads_to_the_next_branch(silicon, oxide, geom):
    # at 750 MHz (index 28) the start model has a root at 4274.93 m/s and a
    # pole 7.2 m/s above it.  A measured point 30 m/s below the root holds
    # it in its 40 m/s hint window, but the Newton step from there, taken on
    # the tangent of an indicator that bends towards the pole, overshoots
    # past the pole, and the start follows the branch above it
    # (4309.86 m/s), as a hint there does.  The certificate at the solution
    # lists that point
    problem, _, start = _stack_1a_x10_thickness_fit(silicon, oxide, geom)
    root = _start_models(problem, start)[0][28]
    assert root == pytest.approx(4274.93, abs=0.01)
    problem, _, start = _stack_1a_x10_thickness_fit(
        silicon, oxide, geom, shift=(28, root - 30.0 - problem.measured.velocities[28]))
    model, measured = _start_models(problem, start)
    assert measured[28] == pytest.approx(root, rel=1e-12)
    assert model[28] == pytest.approx(4309.86, abs=0.01)
    others = ~np.isin(np.arange(model.size), (10, 28))
    np.testing.assert_allclose(model[others], measured[others], rtol=1e-12, atol=0)
    result = sk.fit_parameters(problem)
    assert result.converged and 28 in result.lower_modes


def test_fit_steps_build_films_without_tensors(invert_seed_7, monkeypatch):
    # Work guard that does not depend on the machine: every c_ge step makes
    # a new film material, and the prep builds it from its Lame constants,
    # with no ElasticTensor and no 3x3x3x3 expansion (13.2 of each per
    # seed-7 fit before; the substrate's are made once).  The prep cache
    # traffic, 4.05 misses and 1.95 hits per fit from empty caches, is
    # pinned so that neither a cache outliving a fit nor extra steps show
    # as a gain.  Jacobians build their stencil media from the template's
    # and take no prep; while each prepared its 2 + 2p stencil stacks the
    # traffic was 16.25 misses and 13.75 hits per fit (12.75 hits before
    # the start's Newton batch, one more hit per fit; 21.2 misses and 14.7
    # hits while fits confirmed their last step).
    import sawkit.dispersion as dsp
    import sawkit.materials as mat

    counts = {"__post_init__": 0, "as_cijkl": 0}

    def counting(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    for key in counts:
        monkeypatch.setattr(mat.ElasticTensor, key, counting(getattr(mat.ElasticTensor, key), key))
    for cached in (dsp._prepare, dsp._frame_stiffness, dsp._medium, dsp._substrate_ceiling):
        cached.cache_clear()
    n = len([sk.fit_parameters(p) for p in invert_seed_7])
    assert counts["__post_init__"] <= 0.1 * n and counts["as_cijkl"] <= 0.1 * n
    info = dsp._prepare.cache_info()
    assert (info.misses, info.hits) == (162, 78)


def test_default_tolerance_fits_match_tight_ones(invert_seed_7, monkeypatch):
    # a fit stops on the Gauss-Newton step of its last Jacobian, which
    # resolves the minimum far below what the promised drop _FINISH_DROP
    # bounds: the seed-7 fits at the default agree with fits run to a much
    # smaller one (2.5e-9 apart when measured)
    import sawkit.inversion as inv

    defaults = [sk.fit_parameters(problem) for problem in invert_seed_7]
    monkeypatch.setattr(inv, "_FINISH_DROP", 1e-10)
    for problem, default in zip(invert_seed_7, defaults):
        tight = sk.fit_parameters(problem)
        assert default.converged and tight.converged
        for name, value in default.estimates.items():
            assert value == pytest.approx(tight.estimates[name], rel=1e-8, abs=0)


def test_fit_started_at_the_truth_stops_at_iteration_1(problem_1a, monkeypatch):
    # the first Jacobian's Gauss-Newton step at a noise-free truth promises
    # a drop below _FINISH_DROP, so the fit stops on it: no trial step, no
    # confirming solve
    import sawkit.inversion as inv

    counts = {"_curve_roots": 0, "_jacobian": 0}

    def counting(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    for key in counts:
        monkeypatch.setattr(inv, key, counting(getattr(inv, key), key))
    problem = replace(problem_1a, free=two_param_free(c0=0.179, d0=1.02e-6))
    res = sk.fit_parameters(problem)
    assert res.converged and res.message == "converged (promised cost drop <= 1e-06)"
    assert res.n_iterations == 1
    assert counts == {"_curve_roots": 1, "_jacobian": 1}
    assert res.estimates["c_ge"] == pytest.approx(0.179, rel=1e-9)
    assert res.estimates["layer0.thickness"] == pytest.approx(1.02e-6, rel=1e-9, abs=0)


@pytest.mark.parametrize("initial, upper, estimate, bound_hits",
                         [(0.0, 1.0, 0.179, ()), (0.05, 0.1, 0.1, ("c_ge",))])
def test_gauss_newton_stop_holds_only_outward_bounds(problem_1a, initial, upper, estimate,
                                                     bound_hits):
    # the stop holds a parameter on a bound only when its Gauss-Newton
    # component points out of it: c_ge started on its lower bound 0.0
    # points inward, so the fit moves on to the truth, 0.179; below an
    # upper bound of 0.1 it points out, so the fit stops there
    problem = replace(problem_1a, free=(sk.FreeParam("c_ge", initial, 0.0, upper),))
    res = sk.fit_parameters(problem)
    assert res.converged and res.message == "converged (promised cost drop <= 1e-06)"
    assert res.n_iterations > 1
    assert res.estimates["c_ge"] == pytest.approx(estimate, rel=1e-6)
    assert res.bound_hits == bound_hits


def test_a_parameter_held_on_a_bound_drags_no_other(problem_1a):
    # c_ge below an upper bound of 0.1 (the truth is 0.179) ends held on it,
    # so the thickness reaches the thickness-only optimum at c_ge = 0.1; a
    # trial step solved over both parameters and then clamped crept for 44
    # iterations to 1.3291 um, and a relative cost change below 1e-10 ended
    # it 6.1e-7 short of that optimum
    problem = replace(problem_1a, free=(sk.FreeParam("c_ge", 0.05, 0.0, 0.1),
                                        sk.FreeParam("layer0.thickness", 0.9e-6, 0.3e-6, 3e-6)))
    res = sk.fit_parameters(problem)
    assert res.converged and res.message == "converged (promised cost drop <= 1e-06)"
    assert res.bound_hits == ("c_ge",) and res.estimates["c_ge"] == 0.1
    alone = sk.fit_parameters(sk.FitProblem(
        template=problem.realize({"c_ge": 0.1}),
        free=(sk.FreeParam("layer0.thickness", 0.9e-6, 0.3e-6, 3e-6),),
        measured=problem_1a.measured,
    ))
    assert alone.converged
    assert alone.estimates["layer0.thickness"] == pytest.approx(1.40497e-6, rel=1e-5)
    assert res.estimates["layer0.thickness"] == pytest.approx(
        alone.estimates["layer0.thickness"], rel=1e-7, abs=0)


def test_fit_at_the_iteration_cap_takes_its_covariance_at_its_estimates(
    problem_1a, monkeypatch
):
    # a fit cut by _MAX_ITER ends on an accepted trial step, away from its
    # last step's Jacobian, so it takes one more at the estimates it returns
    import sawkit.inversion as inv

    calls = []
    jacobian = inv._jacobian

    def recording(problem, values, model):
        calls.append((dict(values), jacobian(problem, values, model)))
        return calls[-1][1]

    monkeypatch.setattr(inv, "_jacobian", recording)
    monkeypatch.setattr(inv, "_MAX_ITER", 1)
    res = sk.fit_parameters(problem_1a)
    assert not res.converged and res.message == "iteration cap reached"
    assert res.n_iterations == 1 and len(calls) == 2
    values, jac = calls[-1]
    assert values == res.estimates and values != calls[0][0]
    r = res.residuals  # weighted too: the curve has no sigmas
    # (J^T J)^-1 chi^2/(N - p) in exact rationals of the float J and r: the
    # 2x2 inverse is the adjugate over the determinant.  pinv(J^T J) in
    # floats is off by 4.7e-10 relative here, where raw cond(J) is ~1e6
    col = [[Fraction(x) for x in jac[:, j]] for j in range(2)]
    (a, b), (_, d) = [[sum(x * y for x, y in zip(u, w)) for w in col] for u in col]
    scale = sum(Fraction(x) ** 2 for x in r) / (len(r) - len(values)) / (a * d - b * b)
    expected = np.array([[float(d * scale), float(-b * scale)],
                         [float(-b * scale), float(a * scale)]])
    assert np.isfinite(res.covariance).all()
    np.testing.assert_allclose(res.covariance, expected, rtol=1e-12)


def test_fit_ends_when_no_halved_step_lowers_the_cost(problem_1a, monkeypatch):
    # every trial costs more than the start, so the 30 halvings of the first
    # Gauss-Newton step all fail; the start is no minimum, so that step
    # promised more than _FINISH_DROP and the fit does not converge
    import sawkit.inversion as inv

    residuals, calls = inv._residuals, []

    def costlier(problem, stack, hints):
        r = residuals(problem, stack, hints)
        calls.append(stack)
        if len(calls) == 1:  # the start
            return r
        return r + 1e6

    monkeypatch.setattr(inv, "_residuals", costlier)
    res = sk.fit_parameters(problem_1a)
    assert not res.converged and res.message == "no step lowered the cost"
    trials = calls[1:]
    assert res.n_iterations == 1 and 0 < len(trials) <= 30
    assert res.estimates == {p.name: p.initial for p in problem_1a.free}


def test_fit_certificate_flags_points_on_a_higher_mode(silicon, oxide, geom):
    # stack 1A with its layers x10: its cold curve passes a lower mode from
    # 300 MHz up (its lower_modes are indices 10-34).  A fit to that curve
    # from the truth keeps those roots, and its certificate, one mode count
    # just below the model velocities, lists the same points for the report
    base = make_stack_1a(silicon, oxide, geom)
    stack = replace(base, layers=tuple(replace(l, thickness=10 * l.thickness)
                                       for l in base.layers))
    cold = sk.dispersion_curve(stack, _FREQS_07)
    assert cold.lower_modes == tuple(range(10, 35))
    problem = sk.FitProblem(
        template=stack,
        free=(sk.FreeParam("c_ge", 0.179, 0.0, 1.0),
              sk.FreeParam("layer0.thickness", 10.2e-6, 3e-6, 30e-6)),
        measured=sk.DispersionCurve(cold.frequencies, cold.velocities,
                                    sigmas=tuple(0.001 * v for v in cold.velocities)),
        coupling=sk.SiGeCoupling(0),
    )
    result = sk.fit_parameters(problem)
    assert result.lower_modes == cold.lower_modes
    report = format_fit_report(problem, result)
    assert "warning: a lower mode lies below the model at 300, 325," in report
    assert "(point indices [10, 11," in report


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


def _fd_reference(problem, values):
    """Central finite differences of re-solved roots over ``_jacobian``'s
    parameter steps, two curve solves per column: the implicit Jacobian's
    reference."""
    import sawkit.inversion as inv

    cols = [(sk.residuals(problem, up) - sk.residuals(problem, dn)) / (up[p.name] - dn[p.name])
            for p, (up, dn) in zip(problem.free, inv._stencil(problem, values))]
    return np.column_stack(cols)


def _implicit_and_reference(problem, values):
    """(implicit Jacobian, finite-difference reference) at ``values``."""
    import sawkit.inversion as inv

    model = inv._model(problem, sk.residuals(problem, values))
    return inv._jacobian(problem, values, model), _fd_reference(problem, values)


def _column_rel_diff(a, b):
    return np.linalg.norm(a - b, axis=0) / np.linalg.norm(b, axis=0)


@pytest.mark.parametrize("which", ["1A", "2"])
@pytest.mark.parametrize("at", ["start", "truth"])
def test_implicit_jacobian_matches_finite_differences(silicon, oxide, geom, which, at):
    _, start, truth = _STACKS_07[which]
    problem = _criterion_07_problem(silicon, oxide, geom, which)
    point = start if at == "start" else truth
    values = dict(zip(("c_ge", "layer0.thickness"), point))
    implicit, fd = _implicit_and_reference(problem, values)
    # single near-zero entries differ more, so compare whole columns
    assert _column_rel_diff(implicit, fd).max() <= 1e-6


@pytest.mark.parametrize(
    "field, lower, upper",
    [pytest.param("young_modulus", 50e9, 400e9, id="young_modulus"),
     pytest.param("density", 1000.0, 6000.0, id="density"),
     pytest.param("poisson_ratio", 0.05, 0.45, id="poisson_ratio")],
)
def test_implicit_jacobian_direct_layer_field(silicon, oxide, geom, field, lower, upper):
    # at stack 1A's film value of the field (2.6e-9 to 2.7e-9 when measured)
    value = getattr(make_stack_1a(silicon, oxide, geom).layers[0].material, field)
    free = (sk.FreeParam(f"layer0.{field}", value, lower, upper),)
    problem = _criterion_07_problem(silicon, oxide, geom, "1A", free)
    implicit, fd = _implicit_and_reference(problem, {free[0].name: value})
    assert _column_rel_diff(implicit, fd).max() <= 1e-6


@pytest.mark.parametrize("at", ["start", "truth"])
def test_implicit_jacobian_young_modulus_density_and_thickness(silicon, geom, at):
    # E in Pa, rho in kg/m^3 and d in m: raw cond(J) 6.4e18 at the start
    # and 3.6e18 at the truth, and within 3.0e-9 of the reference when measured
    problem, truth = _e_rho_d_problem(silicon, geom)
    point = [p.initial for p in problem.free] if at == "start" else truth
    values = {p.name: x for p, x in zip(problem.free, point)}
    implicit, fd = _implicit_and_reference(problem, values)
    assert _column_rel_diff(implicit, fd).max() <= 1e-6


@pytest.mark.parametrize("fault", ["nan_in_v_stencil", "nan_in_theta_stencil"])
def test_jacobian_not_finite_raises_degenerate_point(problem_1a, monkeypatch, fault):
    import sawkit.inversion as inv

    values = {"c_ge": 0.2, "layer0.thickness": 1.0e-6}
    model = inv._model(problem_1a, sk.residuals(problem_1a, values))
    # the batch holds the v-stencil (up, then down) on the fitted stack,
    # then each parameter's up and down stack at the model roots
    indicator, n = inv._indicator, len(model)
    at = 3 if fault == "nan_in_v_stencil" else 5 * n + 3

    def nan_at_one_stencil_point(prep, freqs, v):
        assert len(v) == 6 * n
        q = indicator(prep, freqs, v)
        q[at] = np.nan
        return q

    monkeypatch.setattr(inv, "_indicator", nan_at_one_stencil_point)
    mhz = problem_1a.measured.frequencies[3] / 1e6
    with pytest.raises(sk.DegeneratePointError,
                       match=rf"not finite at {mhz:.6g} MHz \(point indices \[3\]\)"):
        inv._jacobian(problem_1a, values, model)


# --- one batch over the stencil stacks ----------------------------------------------

# along [1-10] on Si(111) the substrate's waves come from the eigenproblem
SI111 = sk.PropagationGeometry(normal=(1, 1, 1), direction=(1, -1, 0))


def _stencil_stacks(problem, values):
    """A Jacobian's stacks: the fitted one, then each parameter's up and down."""
    import sawkit.inversion as inv

    sets = [values] + [s for pair in inv._stencil(problem, values) for s in pair]
    return [problem.realize(s) for s in sets]


def _check_joined(stacks, freqs, v):
    """One _indicator call over the joined prep, stack i at the pairs
    (freqs[i], v[i]), equals each stack's own batch exactly; returns the
    joined prep and its pairs."""
    import sawkit.dispersion as dsp

    preps = [dsp._prepare(stack) for stack in stacks]
    joined = dsp._joined([(prep.media, prep.thicknesses) for prep in preps], [x.size for x in v])
    f_all, v_all = np.concatenate(freqs), np.concatenate(v)
    q = dsp._indicator(joined, f_all, v_all)
    own = [dsp._indicator(prep, f, x) for prep, f, x in zip(preps, freqs, v)]
    assert np.isfinite(q).all()
    assert np.array_equal(q, np.concatenate(own))
    return joined, f_all, v_all


def _pairs(problem, count):
    """Pairs of ``count`` groups near the measured curve, group i its
    points from i on, offset by i - count // 2 parts in 1e4."""
    f = np.asarray(problem.measured.frequencies)
    v = np.asarray(problem.measured.velocities)
    return ([f[i:] for i in range(count)],
            [v[i:] * (1.0 + 1e-4 * (i - count // 2)) for i in range(count)])


def test_joined_prep_matches_each_stack_criterion_07(silicon, oxide, geom):
    stacks = []
    for which in ("1A", "2"):
        truth = dict(zip(("c_ge", "layer0.thickness"), _STACKS_07[which][2]))
        stacks += _stencil_stacks(_criterion_07_problem(silicon, oxide, geom, which), truth)
    problem = _criterion_07_problem(silicon, oxide, geom, "1A")
    _check_joined(stacks, *_pairs(problem, len(stacks)))


@pytest.mark.parametrize("geometry, young_modulus", [("001", 150e9), ("111", 150e9),
                                                     ("111", 300e9)])
def test_joined_prep_matches_each_stack_material_fields(
    silicon, oxide, geom, geometry, young_modulus
):
    # on Si(111)[1-10] the substrate takes the eigenproblem; a 300 GPa film
    # is the stiffest medium, so each step of its moduli rescales c_ref and
    # with it the substrate's eigenproblem
    import sawkit.dispersion as dsp

    free = (sk.FreeParam("layer0.young_modulus", young_modulus, 50e9, 400e9),
            sk.FreeParam("layer0.poisson_ratio", 0.22, 0.1, 0.4),
            sk.FreeParam("layer0.thickness", 1.0e-6, 0.3e-6, 3e-6))
    problem = _criterion_07_problem(silicon, oxide, geom, "1A", free)
    if geometry == "111":
        problem = replace(problem, template=replace(problem.template, geometry=SI111))
    values = {p.name: p.initial for p in free}
    stacks = _stencil_stacks(problem, values)
    shared = len({id(dsp._prepare(stack).media[-1]) for stack in stacks}) == 1
    assert shared == (young_modulus < 200e9)
    _check_joined(stacks, *_pairs(problem, len(stacks)))


def test_joined_prep_steps_off_an_undefined_pair(silicon, oxide, geom):
    # a pair at the oxide's shear speed is undefined: the nudge evaluates it
    # once more on the joined prep taken at that pair, its own stack's
    import sawkit.dispersion as dsp

    problem = _criterion_07_problem(silicon, oxide, geom, "1A")
    stacks = _stencil_stacks(problem, {"c_ge": 0.179, "layer0.thickness": 1.02e-6})
    freqs, v = _pairs(problem, len(stacks))
    v[3][4] = oxide.shear_velocity  # in the group of the thicker film
    joined, f_all, v_all = _check_joined(stacks, freqs, v)
    g = dsp._g33(joined, v_all, 2 * np.pi * f_all / v_all)
    assert np.flatnonzero(np.isnan(g)).tolist() == [sum(f.size for f in freqs[:3]) + 4]


def test_stacks_that_cannot_share_a_batch_raise(silicon, oxide, geom):
    import sawkit.dispersion as dsp

    def members(stack):
        prep = dsp._prepare(stack)
        return prep.media, prep.thicknesses

    stack_1a = make_stack_1a(silicon, oxide, geom)
    with pytest.raises(StackJoinError, match="layer counts"):
        dsp._joined([members(stack_1a), members(make_stack_3(silicon, geom))], [1, 1])
    # the substrate has a closed form along Si(001)[110] but not along Si(111)[1-10]
    si111 = replace(stack_1a, geometry=SI111)
    with pytest.raises(StackJoinError, match="medium 2"):
        dsp._joined([members(stack_1a), members(si111)], [1, 1])


def _check_jacobian(problem, values, monkeypatch):
    """``_jacobian`` at ``values`` and the model roots there equals the
    per-stack construction it replaced (``joined_oracle``) exactly, and so
    does its joined prep, field by field."""
    import sawkit.inversion as inv

    model = inv._model(problem, sk.residuals(problem, values))
    preps, joined = [], inv._joined
    monkeypatch.setattr(inv, "_joined", lambda *args: preps.append(joined(*args)) or preps[-1])
    jac = inv._jacobian(problem, values, model)
    monkeypatch.undo()
    oracle = joined_oracle.jacobian_prep(problem, values, model.size)
    (prep,) = preps

    def arrays(prep):
        """Every array of ``prep``: each medium's closed form, or its n0 and
        rho_scaled, then the joined closed form and the thicknesses."""
        def closed(st):
            return [] if st is None else [st.moduli, st.rho_scaled, st.b0]
        return ([a for med in prep.media for a in closed(med.closed) or [med.n0, med.rho_scaled]]
                + closed(prep.closed) + list(prep.thicknesses))

    assert [med.closed is None for med in prep.media] == [med.closed is None for med in oracle.media]
    assert (prep.closed is None) == (oracle.closed is None)
    got, want = arrays(prep), arrays(oracle)
    assert len(got) == len(want) and all(map(np.array_equal, got, want))
    assert np.isfinite(jac).all()
    assert np.array_equal(jac, joined_oracle.jacobian(problem, values, model))


@pytest.mark.parametrize("which", ["1A", "2"])
@pytest.mark.parametrize("at", ["start", "truth"])
def test_jacobian_matches_per_stack_preps_criterion_07(silicon, oxide, geom, monkeypatch,
                                                        which, at):
    # Differential test: the stencil's media come from the template's, with
    # the fitted film's swapped in, and are joined once; the Jacobian and
    # its joined prep equal those of each stencil stack prepared on its own
    _, start, truth = _STACKS_07[which]
    problem = _criterion_07_problem(silicon, oxide, geom, which)
    values = dict(zip(("c_ge", "layer0.thickness"), start if at == "start" else truth))
    _check_jacobian(problem, values, monkeypatch)


@pytest.mark.parametrize("geometry, young_modulus", [("001", 150e9), ("111", 150e9),
                                                     ("111", 300e9)])
def test_jacobian_matches_per_stack_preps_material_fields(
    silicon, oxide, geom, monkeypatch, geometry, young_modulus
):
    # on Si(111)[1-10] the substrate takes the eigenproblem, joined as
    # (m, 6, 6) n0; a 300 GPa film is the stiffest medium, so each step of
    # its moduli rescales c_ref and with it every medium of that stack
    free = (sk.FreeParam("layer0.young_modulus", young_modulus, 50e9, 400e9),
            sk.FreeParam("layer0.poisson_ratio", 0.22, 0.1, 0.4),
            sk.FreeParam("layer0.thickness", 1.0e-6, 0.3e-6, 3e-6))
    problem = _criterion_07_problem(silicon, oxide, geom, "1A", free)
    if geometry == "111":
        problem = replace(problem, template=replace(problem.template, geometry=SI111))
    _check_jacobian(problem, {p.name: p.initial for p in free}, monkeypatch)


def test_jacobian_realizes_and_prepares_no_stack(problem_1a, monkeypatch):
    # Work guard: one Jacobian builds its 2 + 2p stencil stacks' media from
    # the template's members, with no LayerStack and no _prepare
    import sawkit.dispersion as dsp
    import sawkit.inversion as inv

    values = {"c_ge": 0.2, "layer0.thickness": 1.0e-6}
    model = inv._model(problem_1a, sk.residuals(problem_1a, values))

    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(sk.FitProblem, "realize", refuse("realize"))
    monkeypatch.setattr(inv, "_prepare", refuse("inversion._prepare"))
    monkeypatch.setattr(dsp, "_prepare", refuse("dispersion._prepare"))
    assert inv._jacobian(problem_1a, values, model).shape == (len(model), 2)


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
        b.estimates["layer0.thickness"], rel=1e-6, abs=0
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
        assert b.sigma(name) == pytest.approx(2.0 * a.sigma(name), rel=1e-2, abs=0)
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


def test_identifiability_report_names_a_missing_parameter(problem_1a):
    # a bare KeyError: 'layer0.thickness' before
    with pytest.raises(FitError, match=r"missing parameter\(s\) \['layer0.thickness'\]"):
        sk.identifiability_report(problem_1a, {"c_ge": 0.179})


def test_identifiability_report_names_an_unknown_parameter(problem_1a):
    # the unknown name was dropped without a word before
    with pytest.raises(FitError, match=r"unknown parameter\(s\) \['layer1.density'\]"):
        sk.identifiability_report(
            problem_1a, {"c_ge": 0.179, "layer0.thickness": 1.02e-6, "layer1.density": 2200.0}
        )


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
