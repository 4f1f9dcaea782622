"""Plot-ready CSV and JSON emission for every result type.

Each result type has one layout (`_layout`): CSV comment lines, a CSV header,
CSV rows and a JSON document. `result_to_csv` and `result_to_json` render any
layout, so every artifact is one call to one of them.

CSV floats carry 17 significant digits ('.' decimal, no separators) so a
round trip through text is lossless; JSON uses Python's shortest-round-trip
float encoding. Emission is deterministic: the same inputs always produce
byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .design import DesignSolution
from .geometry import MultipassDesign
from .spectral import SampledSpectrum
from .sweep import SweepResult

# Classical fringe shift and output intensity at one rotation rate.
ClassicalReading = namedtuple("ClassicalReading", "omega fringe_shift intensity")


def fmt(x: float) -> str:
    """One float as CSV text, 17 significant digits."""
    return f"{x:.17g}"


def _cell(v) -> str:
    return str(v).lower() if isinstance(v, (bool, int)) else fmt(v)


def _nan_to_none(x: float):
    return None if isinstance(x, float) and math.isnan(x) else x


def _record(header: list[str], row) -> dict:
    """One CSV row as a JSON object; NaN becomes null."""
    return {name: _nan_to_none(v) for name, v in zip(header, row)}


def _layout(result) -> tuple:
    """Comment lines, CSV header, CSV rows and JSON document of one result."""
    warnings = list(getattr(result, "warnings", ()))
    comments = [f"warning: {w}" for w in warnings]
    if isinstance(result, SampledSpectrum):
        lam, inten = result.wavelengths.tolist(), result.intensities.tolist()
        return comments, ["lambda_nm", "intensity"], zip(lam, inten), {
            "form": result.form_tag, "lambda_nm": lam, "intensity": inten}
    if isinstance(result, SweepResult):
        header = ["omega", "phi", "im_aw", "dlambda_analytic_nm",
                  "dlambda_fitted_nm", "postselect_prob"]
        rows = [(r.omega, r.phi, r.im_aw, r.dlambda_analytic,
                 r.dlambda_fitted, r.postselect_prob) for r in result.rows]
        comments += [f"k_analytic_nm_per_rad_s={fmt(result.k_analytic)}",
                     f"k_fitted_nm_per_rad_s={fmt(result.k_fitted)}"]
        return comments, header, rows, {
            "form": result.form,
            "k_analytic": _nan_to_none(result.k_analytic),
            "k_fitted": _nan_to_none(result.k_fitted),
            "k_window": list(result.k_window),
            "warnings": warnings,
            "rows": [{**_record(header, row), "failed": r.failed,
                      "note": r.note} for r, row in zip(result.rows, rows)]}
    # The rest are one-row tables: the JSON document is that row, then the
    # warnings when the type carries them.
    if isinstance(result, MultipassDesign):
        header = ["theta_deg", "n_turns", "area_equiv_m2", "ratio_vs_square"]
        row = (result.theta_deg, result.n_turns, result.area_equiv,
               result.area_equiv / (4.0 * result.radius_rs ** 2))
    elif isinstance(result, DesignSolution):
        header = ["feasible", "beta", "area_s_min_m2",
                  "k_achieved_nm_per_rad_s", "peak_intensity"]
        row = (result.feasible, result.beta, result.area_s_min,
               result.k_achieved, result.peak_intensity)
    elif isinstance(result, ClassicalReading):
        header, row = list(result._fields), tuple(result)
    else:
        raise TypeError(f"no artifact layout for {type(result).__name__}")
    doc = _record(header, row)
    if hasattr(result, "warnings"):
        doc["warnings"] = warnings
    return comments, header, [row], doc


def result_to_csv(result) -> str:
    """Comment lines, the header, then one line per row."""
    comments, header, rows, _ = _layout(result)
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def result_to_json(result) -> str:
    """The layout's JSON document, indented by two spaces."""
    return json.dumps(_layout(result)[3], indent=2) + "\n"
