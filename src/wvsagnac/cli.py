"""Command-line front end.

Five subcommands: simulate, sweep, design, geometry, classical. Parameters
come from flags, which override a flat `key = value` config file (--config),
which overrides built-in defaults. Config keys are the subcommand's flag
names except config, out and format, with `-` and `_` alike. Physics
parameters (lambda0, dlambda, alpha, beta, area, ...) have no defaults.

Exit codes: 0 success, 2 usage error (including a missing parameter, an
unknown config key and an unreadable config file), 3 domain error, 4 fit
failure, 5 infeasible design (the JSON report is still emitted).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .classical import InterferometerConfig, classical_intensity, fringe_shift
from .design import DesignConstraints, min_area
from .errors import FitFailure
from .geometry import multipass_design
from .serialize import ClassicalReading, result_to_csv, result_to_json
from .spectral import SpectrumModel, default_grid, output_spectrum
from .sweep import ModelSpec, run_sweep
from .weak import SelectionConfig, sagnac_phase, weak_value

EXIT_DOMAIN_ERROR = 3
EXIT_FIT_FAILURE = 4
EXIT_INFEASIBLE = 5

main = click.Group(help="Weak-value amplified Sagnac rotation sensing toolkit.")

# Default of a parameter that has none: omitting it is a usage error.
REQUIRED = object()

# Every parameter of every subcommand: click type and help text. A default
# other than REQUIRED or None is appended to the help by `_command`.
PARAMS = {
    "alpha": (click.FLOAT, "Pre-selection angle, rad."),
    "beta": (click.FLOAT, "Post-selection angle, rad."),
    "area": (click.FLOAT, "Loop area S, m^2."),
    "omega": (click.FLOAT, "Rotation rate, rad/s."),
    "lambda0": (click.FLOAT, "Center wavelength, nm."),
    "dlambda": (click.FLOAT, "Probe width, nm."),
    "i0": (click.FLOAT, "Peak intensity."),
    "grid_points": (click.INT, "Wavelength grid points."),
    "grid_span": (click.FLOAT, "Grid half span in probe widths."),
    "form": (click.Choice(["paper", "exact"]),
             "Spectrum form: full modulus (exact) or its first-order "
             "reduction (paper)."),
    "omega_min": (click.FLOAT, "Sweep start, rad/s."),
    "omega_max": (click.FLOAT, "Sweep end, rad/s."),
    "steps": (click.INT, "Sweep rows."),
    "window_lo": (click.FLOAT,
                  "Sensitivity window start, rad/s. [default: central 20%]"),
    "window_hi": (click.FLOAT,
                  "Sensitivity window end, rad/s. [default: central 20%]"),
    "i_min": (click.FLOAT, "Spectrometer detection floor, same units as --i0."),
    "dlambda_res": (click.FLOAT, "Smallest resolvable center shift, nm."),
    "omega_target": (click.FLOAT, "Rotation accuracy to resolve, rad/s."),
    "beta_grid": (click.STRING,
                  "Comma-separated post-selection angles to try, rad."),
    "area_lo": (click.FLOAT, "Area bracket low, m^2."),
    "area_hi": (click.FLOAT, "Area bracket high, m^2."),
    "theta_deg": (click.INT, "Injection angle, integer degrees in (0, 90)."),
    "rs": (click.FLOAT, "Device radius, m."),
    "amplitude": (click.FLOAT, "Intensity amplitude A."),
    "mod_phase": (click.FLOAT, "Modulation phase, rad."),
}


def _load_config(path: str, names) -> dict:
    """Values of the parameters `names` from a config file, typed as flags."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise click.UsageError(f"{path}: cannot read config file: {exc}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace("-", "_")
        if name not in names:
            raise click.UsageError(
                f"{path}:{lineno}: unknown key {key!r} for this subcommand")
        try:
            values[name] = PARAMS[name][0].convert(value, None, None)
        except click.BadParameter:
            raise click.UsageError(
                f"config key {key!r}: cannot parse value {value!r}")
    return values


def _help(name: str, default) -> str:
    if default is REQUIRED or default is None:
        return PARAMS[name][1]
    shown = default if isinstance(default, str) else format(default, "g")
    return f"{PARAMS[name][1]} [default: {shown}]"


def _command(fmt_default: str, **defaults):
    """Register `run(**values) -> result` as a subcommand of `main`.

    `defaults` maps each parameter, in --help order, to its default, None
    (optional) or REQUIRED. Exit codes are chosen here and nowhere else."""
    def register(run):
        def callback(fmt, out_path, config_path, **flags):
            config = _load_config(config_path, defaults) if config_path else {}
            # flag over config over default
            values = {name: config.get(name, default) if flags[name] is None
                      else flags[name] for name, default in defaults.items()}
            missing = [n.replace("_", "-") for n, v in values.items() if v is REQUIRED]
            if missing:
                raise click.UsageError(f"missing required parameter '--{missing[0]}' "
                                       "(pass the flag or set it in the config file)")
            try:
                result = run(**values)
            except (FitFailure, ValueError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_FIT_FAILURE if isinstance(exc, FitFailure)
                         else EXIT_DOMAIN_ERROR)
            # looked up at call time, so rebinding the module names takes effect
            text = (result_to_csv if fmt == "csv" else result_to_json)(result)
            with click.open_file(out_path, "w") as out:  # '-' is stdout
                out.write(text)
            if getattr(result, "feasible", True) is False:
                sys.exit(EXIT_INFEASIBLE)

        params = [click.Option(["--" + name.replace("_", "-")],
                               type=PARAMS[name][0], help=_help(name, default))
                  for name, default in defaults.items()]
        params += [
            click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]),
                         default=fmt_default, show_default=True,
                         help="Artifact format."),
            click.Option(["--out", "out_path"], default="-", show_default=True,
                         help="Output path; '-' writes to stdout."),
            click.Option(["--config", "config_path"],
                         type=click.Path(exists=True, dir_okay=False),
                         default=None, help="Flat 'key = value' config file; "
                         "flags override its values.")]
        return main.command(run.__name__, params=params,
                            help=run.__doc__)(callback)
    return register


@_command("csv", alpha=REQUIRED, beta=REQUIRED, area=REQUIRED, omega=REQUIRED,
          lambda0=REQUIRED, dlambda=REQUIRED, i0=1.0, grid_points=2048,
          grid_span=4.0, form="exact")
def simulate(alpha, beta, area, omega, lambda0, dlambda, i0, grid_points,
             grid_span, form):
    """Post-selected output spectrum at one rotation rate."""
    probe = SpectrumModel(i0=i0, lambda0=lambda0, width_dlambda=dlambda)
    cfg = InterferometerConfig.from_nm(area_s=area, lambda0_nm=lambda0)
    wv = weak_value(SelectionConfig(alpha, beta, sagnac_phase(cfg, omega)))
    grid = default_grid(probe, grid_points, grid_span)
    return output_spectrum(probe, wv, lambda0, grid, form)


@_command("csv", omega_min=REQUIRED, omega_max=REQUIRED, steps=201,
          alpha=REQUIRED, beta=REQUIRED, area=REQUIRED, lambda0=REQUIRED,
          dlambda=REQUIRED, i0=1.0, window_lo=None, window_hi=None,
          form="exact")
def sweep(omega_min, omega_max, steps, alpha, beta, area, lambda0, dlambda,
          i0, window_lo, window_hi, form):
    """Center-shift curve and sensitivity over a rotation-rate range."""
    if (window_lo is None) != (window_hi is None):
        raise click.UsageError("--window-lo and --window-hi must be given together")
    probe = SpectrumModel(i0=i0, lambda0=lambda0, width_dlambda=dlambda)
    model = ModelSpec(name="cli", area_s=area, alpha=alpha, beta=beta,
                      probe=probe, omega_range=(omega_min, omega_max, steps))
    return run_sweep(model, form=form, window=None if window_lo is None
                     else (window_lo, window_hi))


@_command("json", alpha=REQUIRED, lambda0=REQUIRED, dlambda=REQUIRED,
          i0=REQUIRED, i_min=REQUIRED, dlambda_res=REQUIRED,
          omega_target=REQUIRED, beta_grid=REQUIRED, area_lo=REQUIRED,
          area_hi=REQUIRED)
def design(alpha, lambda0, dlambda, i0, i_min, dlambda_res, omega_target,
           beta_grid, area_lo, area_hi):
    """Smallest feasible loop area under detection and resolution floors."""
    try:
        betas = [float(tok) for tok in beta_grid.replace(";", ",").split(",")
                 if tok.strip()]
    except ValueError:
        betas = []
    if not betas:
        raise click.UsageError(
            f"--beta-grid: cannot parse {beta_grid!r} as comma-separated angles")
    constraints = DesignConstraints(
        i0=i0, i_min=i_min, delta_lambda_res=dlambda_res,
        omega_target=omega_target, alpha=alpha,
        probe=SpectrumModel(i0=i0, lambda0=lambda0, width_dlambda=dlambda))
    return min_area(constraints, betas, (area_lo, area_hi))


@_command("json", theta_deg=REQUIRED, rs=REQUIRED)
def geometry(theta_deg, rs):
    """Multipass loop turn count and equivalent area for one injection angle."""
    return multipass_design(theta_deg, rs)


@_command("csv", area=REQUIRED, lambda0=REQUIRED, omega=REQUIRED,
          amplitude=1.0, mod_phase=0.0)
def classical(area, lambda0, omega, amplitude, mod_phase):
    """Classical fringe shift and output intensity at one rotation rate."""
    cfg = InterferometerConfig.from_nm(area_s=area, lambda0_nm=lambda0,
                                       mod_phase=mod_phase)
    return ClassicalReading(omega, fringe_shift(cfg, omega),
                            classical_intensity(cfg, amplitude, omega))


if __name__ == "__main__":
    main()
