"""Rate sweeps: symmetry, sensitivity extraction, benchmark configurations."""

import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wvsagnac.spectral as spectral
import wvsagnac.sweep as sweep
from wvsagnac import (DesignConstraints, FitFailure, InterferometerConfig,
                      ModelSpec, NearOrthogonalSelection, SelectionConfig,
                      SpectrumModel, SweepResult, SweepRow, WeakValueResult,
                      benchmark_models, default_grid, fit_center, min_area,
                      output_spectrum, run_sweep, sagnac_phase, sensitivity,
                      weak_value)

PROBE = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=10.0)
PHI_PER_OMEGA_S16 = 8.0 * math.pi * 16.0 / (1550e-9 * 299792458.0)


def closed_form_k(area_s, alpha, beta, lambda0, dlambda):
    """Sensitivity from the chained first-order formulas, nm per rad/s."""
    slope_phi = 0.5 * math.sin(2.0 * (alpha + beta)) * math.sin(2.0 * alpha) \
        / math.sin(beta) ** 2
    dphi_domega = 8.0 * math.pi * area_s / ((lambda0 * 1e-9) * 299792458.0)
    return (4.0 * math.pi * dlambda ** 2 / lambda0) * abs(slope_phi) * dphi_domega


def _model(area_s=16.0, alpha=0.1, beta=-0.3, omega_range=(-0.1, 0.1, 201)):
    return ModelSpec(name="test", area_s=area_s, alpha=alpha, beta=beta,
                     probe=PROBE, omega_range=omega_range)


def _oracle_fit(probe, alpha, beta, phi, form="exact"):
    """The fit of one spectrum from the public pieces: no cached basis, no
    stack."""
    wv = weak_value(SelectionConfig(alpha, beta, phi))
    return fit_center(output_spectrum(probe, wv, probe.lambda0,
                                      default_grid(probe), form))


def _synthetic_result(omegas, shifts):
    rows = tuple(SweepRow(omega=float(o), phi=0.0, im_aw=0.0,
                          dlambda_analytic=float(s), dlambda_fitted=float(s),
                          postselect_prob=0.5)
                 for o, s in zip(omegas, shifts))
    return SweepResult(rows=rows, k_analytic=0.0, k_fitted=0.0,
                       k_window=(min(omegas), max(omegas)), form="exact")


# ── benchmark configurations ──────────────────────────────────────────────────

def test_benchmark_models_parameters():
    models = {m.name: m for m in benchmark_models(1550.0, 10.0)}
    assert (models["model1"].area_s, models["model1"].alpha,
            models["model1"].beta) == (16.0, 0.1, -0.5)
    assert (models["model4"].area_s, models["model4"].alpha,
            models["model4"].beta) == (3.0, 0.1, -0.1)
    m1, m2 = models["model1"], models["model2"]
    assert (m1.area_s, m1.alpha, m1.probe) == (m2.area_s, m2.alpha, m2.probe)
    assert m1.beta != m2.beta
    m3 = models["model3"]
    assert (m3.area_s, m3.alpha, m3.beta) == (16.0, 0.1, -0.1)
    for m in models.values():  # unit peak, 201 rates over +/-0.1 rad/s
        assert m.probe == PROBE
        assert m.omega_range == (-0.1, 0.1, 201)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        _model(area_s=-1.0)
    with pytest.raises(ValueError, match="alpha and beta must be finite"):
        _model(alpha=math.nan)
    with pytest.raises(ValueError):
        _model(omega_range=(0.1, -0.1, 201))
    with pytest.raises(ValueError):
        _model(omega_range=(-0.1, 0.1, 2))
    # not OverflowError, nor numpy's message for an array too large to index
    # nor numpy 2.4's IndexError for sys.maxsize - 2 and up: past
    # sys.maxsize // 8 float64 values an array's byte size overflows
    for steps in (math.inf, -math.inf, math.nan, 2.5, sys.maxsize // 8 + 1,
                  sys.maxsize, sys.maxsize + 1, 10 ** 23, 10 ** 400, 1e19):
        with pytest.raises(ValueError, match="omega_range"):
            _model(omega_range=(-0.1, 0.1, steps))
    most = sys.maxsize // 8  # accepted: a ModelSpec allocates nothing
    assert _model(omega_range=(-0.1, 0.1, most)).omega_range[2] == most
    # both ends finite, but the width overflows: rejected before linspace
    with pytest.raises(ValueError, match="width"):
        _model(omega_range=(-1e308, 1e308, 201))


# ── sweep content ─────────────────────────────────────────────────────────────

def test_row_depends_only_on_its_own_rate():
    """Rates two sweeps share give identical rows, whatever else is swept."""
    model = benchmark_models(1550.0, 10.0)[1]
    coarse, fine = (run_sweep(replace(model, omega_range=(-0.1, 0.1, steps)))
                    for steps in (5, 9))
    fine_rows = {r.omega: r for r in fine.rows}
    shared = [r for r in coarse.rows if r.omega in fine_rows]
    assert len(shared) == 5
    for row in shared:
        assert repr(row) == repr(fine_rows[row.omega])


@settings(max_examples=8, deadline=None)
@given(area_s=st.floats(1.0, 30.0), alpha=st.floats(0.05, 0.3),
       beta=st.floats(-0.6, -0.05), half=st.floats(0.01, 0.2),
       probe=st.sampled_from([(1550.0, 10.0), (1310.0, 5.0), (800.0, 20.0)]),
       form=st.sampled_from(["exact", "paper"]))
@example(area_s=26.258529764805093, alpha=0.06211214733921257,
         beta=-0.2601354102547337, half=0.12940109624692364, probe=(800.0, 20.0),
         form="paper")  # a row 3.2e-11 nm from the oracle: starts differ in bits
def test_rows_do_not_depend_on_chunking(area_s, alpha, beta, half, probe, form):
    """Sweeps of 5, 17 and 41 steps, and stacks of 1, 3 and the default
    number of rows, give repr-identical rows; each row is its own fit. The
    row's fit starts from the closed-form moments and the oracle's from the
    samples, so each center is within 2 FIT_RELATIVE_TOL lambda0 of the
    other's and the shifts within twice that."""
    probe = SpectrumModel(i0=1.0, lambda0=probe[0], width_dlambda=probe[1])
    model = ModelSpec(name="m", area_s=area_s, alpha=alpha, beta=beta,
                      probe=probe, omega_range=(-half, half, 41))
    ref = _oracle_fit(probe, alpha, beta, 0.0, form).center
    cfg = InterferometerConfig.from_nm(area_s, probe.lambda0)
    rows = {}
    for chunk in (1, 3, spectral._CHUNK_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_CHUNK_ROWS", chunk)
            for steps in (5, 17, 41):
                result = run_sweep(replace(model, omega_range=(-half, half, steps)),
                                   form=form)
                for row in result.rows:
                    assert repr(rows.setdefault(row.omega, row)) == repr(row)
    assert len(rows) >= 41
    bound = 4 * spectral.FIT_RELATIVE_TOL * probe.lambda0
    for omega, row in rows.items():
        phi = sagnac_phase(cfg, omega)
        fitted = _oracle_fit(probe, alpha, beta, phi, form).center
        assert abs(row.dlambda_fitted - (fitted - ref)) <= bound, omega


def _no_overlap(wv):  # the spectrum is all zero: no fit can start
    return replace(wv, overlap=0j)


def _nan_overlap(wv):  # the spectrum is all NaN: it is not a valid spectrum
    return replace(wv, overlap=complex(math.nan, 0.0))


def _raise(wv):
    raise ValueError("planted")


def _planted_sweep(monkeypatch, fit_failure_row, bad_row, plant=_no_overlap):
    """run_sweep over 12 rows of model2 where the fit of one row runs out of
    iterations and `plant` replaces the weak value of another; returns each
    fit call's outcome, the phases weak values were asked for and the
    sweep's result or error."""
    original_fit, original_wv = sweep.fit_center, sweep.weak_value
    fits, weak_values = [], []

    def planted_fit(spec):
        cap = 1 if len(fits) == fit_failure_row + 1 else spectral.FIT_MAX_ITERATIONS
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "FIT_MAX_ITERATIONS", cap)
            try:
                fit = original_fit(spec)
            except Exception as exc:
                fits.append(type(exc).__name__)
                raise
        fits.append("ok")
        return fit

    def planted_wv(sel):
        wv = original_wv(sel)
        weak_values.append(sel.phi)
        if len(weak_values) == bad_row + 2:  # after the reference's
            return plant(wv)
        return wv

    monkeypatch.setattr(sweep, "fit_center", planted_fit)
    monkeypatch.setattr(sweep, "weak_value", planted_wv)
    model = replace(benchmark_models(1550.0, 10.0)[1], omega_range=(-0.1, 0.1, 12))
    try:
        outcome = run_sweep(model)
    except ValueError as exc:
        outcome = exc
    return fits, weak_values, outcome


def test_fit_failure_row_stays_isolated(monkeypatch):
    fits, weak_values, result = _planted_sweep(monkeypatch, 5, 99)
    assert fits == ["ok"] * 6 + ["FitFailure"] + ["ok"] * 6  # reference first
    assert weak_values[0] == 0.0 and weak_values[1:] == [r.phi for r in result.rows]
    monkeypatch.undo()
    clean = run_sweep(replace(benchmark_models(1550.0, 10.0)[1],
                              omega_range=(-0.1, 0.1, 12)))
    row = result.rows[5]
    assert row.failed and math.isnan(row.dlambda_fitted)
    monkeypatch.setattr(spectral, "FIT_MAX_ITERATIONS", 1)
    with pytest.raises(FitFailure) as err:
        _oracle_fit(PROBE, 0.1, -0.3, row.phi)
    assert row.note == str(err.value)
    assert replace(row, note="", dlambda_fitted=0.0) == replace(
        clean.rows[5], dlambda_fitted=0.0)
    assert [repr(r) for i, r in enumerate(result.rows) if i != 5] == [
        repr(r) for i, r in enumerate(clean.rows) if i != 5]


@pytest.mark.parametrize("fit_failure_row, bad_row", [(1, 6), (9, 11), (2, 3)])
@pytest.mark.parametrize("plant, error", [
    (_no_overlap, "cannot fit an all-zero spectrum"),
    (_nan_overlap, "intensities must be finite and nonnegative"),
    (_raise, "planted")], ids=["zero", "nan", "raise"])
def test_row_error_is_raised_at_its_rows_turn(monkeypatch, fit_failure_row,
                                              bad_row, plant, error):
    """The bad row shares a stack with the failing fit before it, yet its
    error comes only after that row was fit and recorded, and no row after
    it has its weak value evaluated when the weak value is what fails."""
    fits, weak_values, outcome = _planted_sweep(monkeypatch, fit_failure_row,
                                                bad_row, plant)
    assert type(outcome) is ValueError
    assert str(outcome) == error
    want = ["ok"] * (bad_row + 1)
    want[fit_failure_row + 1] = "FitFailure"
    if plant is _no_overlap:
        want.append("ValueError")
    assert fits == want
    if plant is _raise:
        assert len(weak_values) == bad_row + 2


_PROBES = st.builds(
    lambda i0, lambda0, share: SpectrumModel(i0, lambda0, share * lambda0),
    st.floats(1e-3, 1e3), st.floats(400.0, 2000.0), st.floats(1e-3, 0.24))
# (alpha, beta, phi), or None for an orthogonal selection: beta = phi = 0
_SELECTIONS = st.one_of(
    st.none(),
    st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-0.5, 0.5)),
    # beta near -alpha: a small overlap, |Re A_w| well above 1
    st.builds(lambda a, off, phi: (a, -a + off, phi), st.floats(-1.5, 1.5),
              st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)))


@settings(max_examples=60, deadline=None)
@given(probe=_PROBES, form=st.sampled_from(["exact", "paper"]),
       selections=st.lists(_SELECTIONS, min_size=1, max_size=20))
@example(probe=PROBE, form="exact",
         selections=[(0.1, -0.03, 0.0), None, *[(0.1, -0.3, 1e-3 * k) for k in range(9)]])
def test_default_spectra_are_output_spectrum_on_the_default_grid_bit_for_bit(
        probe, form, selections):
    """Every row of the stacks built in place, chunks of 8 split, with
    orthogonal selections among them, is output_spectrum's on the default
    grid byte for byte; |Re A_w| reaches above 1."""
    rows = [sweep._weak(0.1, 0.0, 0.0) if sel is None else sweep._weak(*sel)
            for sel in selections]
    grid = default_grid(probe)
    got = list(spectral._default_rows(probe, enumerate(rows), form))
    assert [(key, wv) for key, wv, _ in got] == list(enumerate(rows))
    for _, wv, spec in got:
        if isinstance(wv, NearOrthogonalSelection):
            assert spec is None
            continue
        want = output_spectrum(probe, wv, probe.lambda0, grid, form)
        assert spec.intensities.tobytes() == want.intensities.tobytes()
        assert spec.wavelengths.tobytes() == grid.tobytes()
        assert spec.form_tag == form
    spectra = [wv for wv in rows if not isinstance(wv, NearOrthogonalSelection)]
    if spectra:  # an unknown form raises output_spectrum's error
        with pytest.raises(ValueError) as want:
            output_spectrum(probe, spectra[0], probe.lambda0, grid, "Exact")
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            list(spectral._default_rows(probe, enumerate(rows), "Exact"))


def test_a_default_grid_reaching_zero_is_refused():
    wv = weak_value(SelectionConfig(0.1, -0.3, 0.0))
    wide = SpectrumModel(i0=1.0, lambda0=100.0, width_dlambda=40.0)
    with pytest.raises(ValueError, match="strictly positive"):
        output_spectrum(wide, wv, wide.lambda0, default_grid(wide))
    with pytest.raises(ValueError, match="strictly positive"):
        run_sweep(ModelSpec("w", 16.0, 0.1, -0.3, wide, (-0.1, 0.1, 5)))


def test_spectrum_basis_is_read_only_and_bounded():
    wv = weak_value(SelectionConfig(0.1, -0.3, 0.0))
    (_, _, spec), = spectral._default_rows(PROBE, [(0.0, wv)], "exact")
    basis = spectral._default_basis(PROBE.lambda0, PROBE.width_dlambda)
    # the grid, cos pg, sin pg and envelope, then the moment sums: no
    # trapezoid weights, which only the sums read
    *arrays, sums = basis
    assert len(arrays) == 4
    assert all(arr.shape == (spectral.GRID_POINTS,) for arr in arrays)
    assert not any(arr.flags.writeable for arr in arrays)
    assert spec.wavelengths is basis[0]
    # sums of w (lam - lambda0)^k B, k = 0, 1, 2, for the modulation's terms
    # B = (cos^2, cos sin, sin^2) pg times the envelope: np.trapezoid's, up
    # to rounding of the sums of their magnitudes
    grid, cos_pg, sin_pg, env = arrays
    terms = [cos_pg * cos_pg * env, cos_pg * sin_pg * env, sin_pg * sin_pg * env]
    assert len(sums) == 3
    for k, row in enumerate(sums):
        assert len(row) == 3 and all(type(x) is float for x in row)
        for got, term in zip(row, terms):
            d = (grid - PROBE.lambda0) ** k
            want = np.trapezoid(d * term, grid)
            assert abs(got - want) <= 1e-14 * np.trapezoid(np.abs(d * term), grid)
    with pytest.raises(ValueError):
        spec.wavelengths[0] = 0.0
    maxsize = spectral._default_basis.cache_info().maxsize
    assert maxsize <= 16
    for k in range(2 * maxsize):
        next(spectral._default_rows(replace(PROBE, lambda0=1500.0 + k), [(0.0, wv)],
                                    "exact"))
    assert spectral._default_basis.cache_info().currsize == maxsize


def test_zero_rotation_row_is_exactly_zero():
    res = run_sweep(_model(omega_range=(-0.02, 0.02, 5)))
    mid = res.rows[2]
    assert mid.omega == 0.0
    assert mid.dlambda_analytic == 0.0
    assert mid.dlambda_fitted == 0.0


def test_analytic_column_odd_in_omega():
    res = run_sweep(_model(omega_range=(-0.1, 0.1, 41)))
    rows = res.rows
    for a, b in zip(rows, reversed(rows)):
        assert a.dlambda_analytic == pytest.approx(-b.dlambda_analytic,
                                                   abs=1e-12)


def test_fitted_column_odd_in_omega_small_signal():
    # the full-spectrum route is odd only up to terms quadratic in Im(A_w)
    # and the p(lambda) curvature, so pin the small-signal regime
    res = run_sweep(_model(omega_range=(-0.001, 0.001, 21)))
    rows = res.rows
    assert max(abs(r.im_aw) for r in rows) < 5e-4
    for a, b in zip(rows, reversed(rows)):
        assert a.dlambda_fitted == pytest.approx(-b.dlambda_fitted, abs=1e-9)


def test_degenerate_selection_is_flagged_and_shiftless():
    model = ModelSpec(name="model3", area_s=16.0, alpha=0.1, beta=-0.1,
                      probe=PROBE, omega_range=(-0.03, 0.03, 21))
    res = run_sweep(model)
    assert any("identically zero" in w for w in res.warnings)
    for row in res.rows:
        assert row.im_aw == 0.0
        assert row.dlambda_analytic == 0.0
    assert res.k_analytic == pytest.approx(0.0, abs=1e-15)


def test_near_orthogonal_row_is_isolated():
    # at beta = -2*alpha the two amplitudes are equal, so the overlap
    # vanishes when the differential phase reaches pi
    rate = 8.0 * math.pi * 16.0 / (1550e-9 * 299792458.0)
    omega_star = math.pi / rate
    model = _model(beta=-0.2, omega_range=(omega_star - 0.01, omega_star + 0.01, 3))
    res = run_sweep(model)
    assert res.rows[1].failed and "orthogonal" in res.rows[1].note
    assert math.isnan(res.rows[1].dlambda_fitted)
    assert not res.rows[0].failed and not res.rows[2].failed


def test_orthogonal_zero_rotation_selection_aborts_the_sweep():
    """At beta = 0 the selection is orthogonal at rest: the reference every
    shift is measured from cannot be built, so no row is flagged; the sweep
    raises."""
    with pytest.raises(NearOrthogonalSelection, match="orthogonal"):
        run_sweep(ModelSpec("o", 16.0, 0.1, 0.0, PROBE, (-0.1, 0.1, 5)))


def test_postselect_probability_column():
    res = run_sweep(_model(omega_range=(-0.02, 0.02, 9)))
    for row in res.rows:
        assert 0.0 <= row.postselect_prob <= 1.0
        # at this selection the rest probability is sin^2(beta)
        assert row.postselect_prob == pytest.approx(math.sin(0.3) ** 2, rel=1e-3)


def test_result_is_frozen():
    res = _synthetic_result(np.linspace(-1.0, 1.0, 5), np.zeros(5))
    with pytest.raises(FrozenInstanceError):
        res.k_analytic = 1.0
    with pytest.raises(FrozenInstanceError):
        res.k_window = (0.0, 1.0)
    # frozen all the way down: rows and warnings are tuples, so it hashes
    swept = run_sweep(_model(beta=-0.1, omega_range=(-0.02, 0.02, 5)))
    assert swept.warnings and not hasattr(swept.warnings, "append")
    assert not hasattr(swept.rows, "append")
    assert hash(swept) == hash(run_sweep(_model(beta=-0.1,
                                                omega_range=(-0.02, 0.02, 5))))


def test_failed_is_worked_out_from_the_note():
    row = SweepRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.5)
    assert row.failed is False
    bad = replace(row, note="planted")
    assert bad.failed is True and replace(bad, note="").failed is False
    assert repr(bad) == ("SweepRow(omega=0.0, phi=0.0, im_aw=0.0, "
                         "dlambda_analytic=0.0, dlambda_fitted=0.0, "
                         "postselect_prob=0.5, failed=True, note='planted')")
    with pytest.raises(TypeError, match="failed"):
        SweepRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.5, failed=True)
    with pytest.raises(TypeError):  # a bool by position, where `failed` stood
        SweepRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.5, True)


def test_rows_sorted_validation():
    rows = [SweepRow(1.0, 0, 0, 0, 0, 0.5), SweepRow(-1.0, 0, 0, 0, 0, 0.5)]
    with pytest.raises(ValueError):
        SweepResult(rows=rows, k_analytic=0, k_fitted=0, k_window=(-1, 1),
                    form="exact")
    with pytest.raises(ValueError, match="postselect_prob 1.5 outside"):
        SweepResult(rows=(SweepRow(0.0, 0, 0, 0, 0, 1.5),), k_analytic=0,
                    k_fitted=0, k_window=(-1, 1), form="exact")


def test_zero_alpha_pins_the_weak_value_at_plus_one_and_warns():
    res = run_sweep(_model(alpha=0.0, omega_range=(-0.1, 0.1, 11)))
    assert any("alpha = 0 makes the n amplitude vanish" in w
               for w in res.warnings)
    for row in res.rows:  # A_w = +1 at every rate
        assert row.im_aw == 0.0 and row.dlambda_analytic == 0.0
        assert row.dlambda_fitted == 0.0


# ── sensitivity ───────────────────────────────────────────────────────────────

def test_sensitivity_on_perfectly_linear_rows():
    omegas = np.linspace(-1.0, 1.0, 11)
    res = _synthetic_result(omegas, 7.0 * omegas)
    k = sensitivity(res, (-1, 1))
    assert k.k_analytic == pytest.approx(7.0, rel=1e-12)
    assert k.k_fitted == pytest.approx(7.0, rel=1e-12)
    # the same sweep, re-read over the window, which it stores as floats
    assert replace(k, k_analytic=0.0, k_fitted=0.0) == replace(
        res, k_window=(-1.0, 1.0))
    assert [type(bound) for bound in k.k_window] == [float, float]


def test_sensitivity_on_zero_rows():
    omegas = np.linspace(-1.0, 1.0, 11)
    k = sensitivity(_synthetic_result(omegas, np.zeros(11)), (-1.0, 1.0))
    assert k.k_analytic == 0.0 and k.k_fitted == 0.0


def test_sensitivity_window_preconditions():
    omegas = np.linspace(-1.0, 1.0, 11)
    res = _synthetic_result(omegas, 7.0 * omegas)
    with pytest.raises(ValueError):
        sensitivity(res, (0.0, 0.05))  # only one row inside
    with pytest.raises(ValueError):
        sensitivity(res, (1.0, -1.0))
    for window in [(-math.inf, math.inf), (-1.0, math.inf), (-math.inf, 1.0)]:
        with pytest.raises(ValueError, match="window bounds must be finite"):
            sensitivity(res, window)


def test_default_window_is_central_fifth():
    for omega_range, window in (((-0.1, 0.1, 201), (-0.02, 0.02)),
                                ((0.0, 1.0, 11), (0.4, 0.6))):
        got = run_sweep(_model(omega_range=omega_range)).k_window
        assert got == pytest.approx(window)


def test_explicit_window_is_used_and_an_unusable_one_raises():
    model = _model(omega_range=(-0.1, 0.1, 5))
    # the default window holds one row: k is NaN and a warning says why
    default = run_sweep(model)
    assert math.isnan(default.k_fitted)
    assert default.warnings == ("sensitivity window unusable: need at least 3 "
                                "usable rows inside the window, got 1",)
    res = run_sweep(model, window=(-0.1, 0.1))
    assert res.k_window == (-0.1, 0.1) and res.warnings == ()
    for window in ([-0.1, 0.1], np.array([-0.1, 0.1])):  # stored as floats
        given = run_sweep(model, window=window)
        assert type(given.k_window) is tuple and hash(given) == hash(res)
        assert [type(bound) for bound in given.k_window] == [float, float]
    assert repr(sensitivity(res, (-0.1, 0.1))) == repr(res)
    with pytest.raises(ValueError, match="at least 3 usable rows"):
        run_sweep(model, window=(0.0, 0.01))
    with pytest.raises(ValueError, match="lo < hi"):
        run_sweep(model, window=(0.05, -0.05))
    with pytest.raises(ValueError, match="window bounds must be finite"):
        run_sweep(model, window=(-math.inf, math.inf))


def test_windowed_slope_matches_closed_form_chain():
    """k from the sweep agrees with the chained analytic slope to 0.1%."""
    res = run_sweep(_model(omega_range=(-0.1, 0.1, 201)))
    expected = closed_form_k(16.0, 0.1, -0.3, 1550.0, 10.0)
    assert res.k_analytic == pytest.approx(expected, rel=1e-3)


def test_k_scales_linearly_with_area():
    k16 = run_sweep(_model(area_s=16.0)).k_analytic
    k8 = run_sweep(_model(area_s=8.0)).k_analytic
    assert k16 / k8 == pytest.approx(2.0, rel=0.005)


def test_fitted_tracks_analytic_in_linear_regime():
    res = run_sweep(_model(omega_range=(-0.1, 0.1, 201)))
    checked = 0
    for row in res.rows:
        if row.failed or abs(row.im_aw) > 0.01:
            continue
        checked += 1
        if abs(row.dlambda_analytic) < 1e-3:
            assert abs(row.dlambda_fitted - row.dlambda_analytic) <= 1e-4
        else:
            assert abs(row.dlambda_fitted - row.dlambda_analytic) <= \
                0.05 * abs(row.dlambda_analytic)
    assert checked >= 50


def test_amplification_grows_as_selection_closes():
    # smaller |beta| gives the larger small-signal slope: model2 beats model1
    k_03 = run_sweep(_model(beta=-0.3)).k_analytic
    k_05 = run_sweep(_model(beta=-0.5)).k_analytic
    assert k_03 > k_05


@pytest.mark.parametrize("width, exact_band, paper_band", [
    (10.0, (0.99755, 0.99802), (0.99752, 0.99763)),
    (40.0, (0.9616, 0.9686), (0.9611, 0.9624)),
    (100.0, (0.787, 0.824), (0.784, 0.790)),
])
def test_fitted_shift_falls_short_of_first_order_by_the_squared_width(
        width, exact_band, paper_band):
    """analytic_wavelength_shift's docstring: at lambda0 = 1550 nm, with
    |Im A_w| <= 0.05 over the design's selections (alpha = 0.1, beta in
    [-0.55, -0.15], 16 m^2, +/-0.1 rad/s), the fitted shift is this fraction
    of the first-order one. The paper form, without the Re(A_w)^2 term,
    falls short by about 58 (W/lambda0)^2 at any selection; the Re(A_w)^2
    term adds a selection-dependent part of the same order."""
    probe = SpectrumModel(i0=1.0, lambda0=1550.0, width_dlambda=width)
    for form, (lo, hi) in (("exact", exact_band), ("paper", paper_band)):
        ratios = [row.dlambda_fitted / row.dlambda_analytic
                  for beta in np.linspace(-0.55, -0.15, 5)
                  for row in run_sweep(ModelSpec("m", 16.0, 0.1, float(beta), probe,
                                                 (-0.1, 0.1, 9)), form).rows
                  if abs(row.im_aw) <= 0.05 and row.dlambda_analytic != 0.0]
        assert len(ratios) == 40
        assert lo <= min(ratios) and max(ratios) <= hi, form


def test_concurrent_sweeps_give_the_serial_results():
    """README: sweeps are safe for concurrent use. The eight benchmark sweeps
    (four models, both forms, 51 rates), run on 4 threads from cold caches,
    give the serial results: every fit has its own buffers."""
    jobs = [partial(run_sweep, replace(m, omega_range=(-0.1, 0.1, 51)), form)
            for m in benchmark_models(1550.0, 10.0) for form in ("exact", "paper")]
    serial = [repr(job()) for job in jobs]
    spectral._default_basis.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, to expose races
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda job: repr(job()), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_sweeps_and_designs_hold_one_quiet_errstate(monkeypatch):
    """run_sweep and min_area enter np.errstate(**spectral._QUIET) once for
    their stacks and fits, which then enter none of their own: no
    RuntimeWarning escapes, whether the run succeeds or a fit overflows.
    Inside that region a row whose intensities are not finite still raises
    its ValueError: here an infinite Re(A_w) with a zero post-selection
    probability makes the row inf * 0 = NaN, which numpy flags as invalid.
    Outside, fit_center enters its own again."""
    huge = replace(PROBE, i0=1e160)  # the fit's cost overflows
    cons = DesignConstraints(i0=1.0, i_min=0.005, delta_lambda_res=0.01,
                             omega_target=0.05, alpha=0.1, probe=PROBE)
    bad = WeakValueResult(m=0j, n=0j, overlap=0j, a_w=complex(math.inf, 0.0))
    bad_phi = sagnac_phase(InterferometerConfig.from_nm(16.0, PROBE.lambda0), -0.05)
    real = sweep.weak_value

    def planted(sel):  # the bad weak value at the rate -0.05 rad/s
        return bad if sel.phi == bad_phi else real(sel)

    with pytest.warns(RuntimeWarning):  # numpy flags the planted row
        np.multiply(np.float64(math.inf), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_sweep(_model(omega_range=(-0.1, 0.1, 5)))
        assert min_area(cons, [-0.5, -0.3, -0.2], (1.0, 20.0)).feasible
        with pytest.raises(ValueError, match="squared fit residuals"):
            run_sweep(replace(_model(), probe=huge))
        with pytest.raises(ValueError, match="squared fit residuals"):
            min_area(replace(cons, i0=1e160, i_min=0.0), [-0.3], (1.0, 20.0))
        with monkeypatch.context() as mp:
            mp.setattr(sweep, "weak_value", planted)
            with pytest.raises(ValueError,
                               match="^intensities must be finite and nonnegative$"):
                run_sweep(_model(omega_range=(-0.1, 0.1, 5)))
        assert not spectral._QUIETED.get()
        with pytest.raises(ValueError, match="squared fit residuals"):
            fit_center(output_spectrum(huge, weak_value(SelectionConfig(0.1, -0.3, 0.0)),
                                       huge.lambda0, default_grid(huge)))
