"""Command-line front end.

Subcommands: ``constants``, ``predict``, ``info``, ``slits``, ``simulate``,
``analyze``, ``detect``.  Exit codes: 0 success, 1 domain/configuration
errors, 2 I/O errors, 64 usage errors.  The files they read and write are
those of `holonoise.files`.  ``simulate`` takes the pair from synthesis to
Welch block by block, and with ``--dump-timeseries`` writes each block's
rows as it goes; ``analyze`` takes it from the file to Welch a byte range at
a time.  So the memory of neither grows with n_samples.  The default output
directory can be overridden with the ``HOLONOISE_OUTPUT_DIR`` environment
variable (an explicit ``--output-dir`` still wins).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

import numpy as np

from ._format import format_rows
from .constants import CONSTANTS
from .detection import check_averages, null_significance, predicted_snr
from .errors import DomainError
from .files import (TIMESERIES, _csv_header, _dumped, _Output, _read_spectra, _read_timeseries,
                    _report_dict, _vouched, _write_csv, _write_json, _write_manifest,
                    _write_spectra, load_config)
from .model import (
    HolographicModel,
    autocorrelation,
    info_budget,
    psd_model,
    transverse_uncertainty,
)
from .slits import SlitSetup, information_blurred_pattern, separation_sweep
from .spectral import segment_count, welch_blocks
from .synthesis import synthesize_blocks

ENV_OUTPUT_DIR = "HOLONOISE_OUTPUT_DIR"


class UsageError(Exception):
    """Raised by the parser instead of exiting, mapped to exit code 64."""

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self.format_usage())


def _parse_band(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise DomainError(f"band must look like LO:HI in Hz, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise DomainError(f"band must be numeric LO:HI, got {text!r}") from exc
    return lo, hi


def _resolve_outdir(flag_value: str | None) -> Path:
    if flag_value is not None:
        out = Path(flag_value)
    elif os.environ.get(ENV_OUTPUT_DIR):
        out = Path(os.environ[ENV_OUTPUT_DIR])
    else:
        out = Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_constants(args) -> int:
    _write_json(Path(args.output) if args.output else None, CONSTANTS.as_dict())
    return 0


def cmd_predict(args) -> int:
    model = HolographicModel.from_baseline(args.arm_length)
    lags = np.linspace(0.0, 2.0 * model.tau_c, 256)
    freqs = np.linspace(0.0, 10.0 / model.tau_c, 512)
    acf = autocorrelation(model, lags)
    psd = psd_model(model, freqs)
    meta = {
        "arm_length_m": model.L,
        "sigma2_m2": model.sigma2,
        "tau_c_s": model.tau_c,
        "psd_zero_m2_per_hz": 2.0 * model.sigma2 * model.tau_c,
        "psd_convention": "one-sided, integrates to sigma2_m2",
    }
    lines = [name + line for name, x, y in ((b"acf,", lags, acf), (b"psd,", freqs, psd))
             for line in format_rows(np.column_stack([x, y])).splitlines(keepends=True)]
    with _Output(Path(args.output) if args.output else None) as out:
        out.write(_csv_header(meta, ["quantity", "x", "value"]) + b"".join(lines))
    return 0


def cmd_info(args) -> int:
    budget = info_budget(args.length)
    _write_json(Path(args.output) if args.output else None, {
        "length_m": budget.L,
        "pixel_size_m": budget.pixel_size,
        "refresh_s": budget.refresh,
        "dof_radial": budget.dof_radial,
        "dof_angular": budget.dof_angular,
        "total_info": budget.total_info,
        "field_theory_info": budget.field_theory_info,
        "ratio": budget.ratio,
    })
    return 0


def cmd_slits(args) -> int:
    if args.sweep and (args.separation is not None or args.blurred):
        args.parser.error("--sweep takes no --separation or --blurred: "
                          "it blurs every pattern and sets its own separations")
    wavelength = args.wavelength if args.wavelength is not None else CONSTANTS.l_P
    slit_width = args.slit_width if args.slit_width is not None else wavelength
    setup = SlitSetup(
        separation=args.separation if args.separation is not None else 0.0,
        slit_width=slit_width,
        screen_distance=args.screen_distance,
        wavelength=wavelength,
        n_angles=args.n_angles,
    )
    if args.sweep:
        seps, metrics = separation_sweep(setup)
        bound = np.full_like(seps, transverse_uncertainty(setup.screen_distance))
        columns = {"separation_m": seps, "distance_metric": metrics, "bound_m": bound}
        meta = {
            "screen_distance_m": setup.screen_distance,
            "slit_width_m": setup.slit_width,
            "wavelength_m": setup.wavelength,
        }
    else:
        pattern = information_blurred_pattern(setup, None if args.blurred else 0.0)
        columns = {"angle_rad": setup.angles(), "intensity": pattern}
        meta = {
            "separation_m": setup.separation,
            "slit_width_m": setup.slit_width,
            "screen_distance_m": setup.screen_distance,
            "wavelength_m": setup.wavelength,
            "blurred": str(bool(args.blurred)).lower(),
        }
    _write_csv(Path(args.output) if args.output else None, _csv_header(meta, columns),
               *columns.values())
    return 0


def cmd_simulate(args) -> int:
    config = load_config(Path(args.config))
    model = config.model()
    band = _parse_band(args.band) if args.band else (0.0, 1.0 / model.tau_c)
    outputs = {}
    # Checked before the output directory is made; no block is drawn yet.  So
    # are the averages and the band, which the prediction takes on Welch's grid.
    blocks = synthesize_blocks(config)
    n_avg = segment_count(config.n_samples, config.segment_length, config.overlap)
    check_averages(n_avg)
    prediction = predicted_snr(model, config.shot_asd, config.sample_rate, config.segment_length,
                               n_avg, band, config.holo_scale)
    outdir = _resolve_outdir(args.output_dir)
    dump = (_Output(outdir / "timeseries.csv", config.n_samples, len(TIMESERIES.columns))
            if args.dump_timeseries else None)
    # Entered before the first block is drawn, so the CSV workers are forked
    # while no synthesis thread is alive.
    with dump or contextlib.nullcontext():
        if dump is not None:
            dump.write(TIMESERIES.header(config.sample_rate, config.n_samples,
                                         config.segment_length, config.overlap))
            blocks = _dumped(blocks, dump)
        estimate = welch_blocks(blocks, config.segment_length, config.overlap)
    if dump is not None:
        outputs["timeseries.csv"] = dump.hexdigest()
    report = null_significance(estimate, band, predicted=prediction)
    outputs["spectra.csv"] = _write_spectra(outdir / "spectra.csv", estimate, config.n_samples)
    outputs["report.json"] = _write_json(outdir / "report.json", _report_dict(report))
    _write_manifest(outdir / "manifest.json", "simulate", config.as_dict(), outputs)

    print(f"wrote {', '.join(sorted(outputs))} to {outdir}")
    print(
        f"band {band[0]:.17g}..{band[1]:.17g} Hz  n_avg {estimate.n_avg}  "
        f"predicted snr {report.snr:.3f}  sigma {report.sigma_level:.3f}  "
        f"p {report.null_pvalue:.3e}"
    )
    return 0


def cmd_analyze(args) -> int:
    estimate, n_samples = _read_timeseries(Path(args.timeseries))
    _write_spectra(Path(args.output) if args.output else None, estimate, n_samples)
    return 0


def cmd_detect(args) -> int:
    path = Path(args.estimate)
    digest, vouched = _vouched(path)
    report = null_significance(_read_spectra(path), _parse_band(args.band))
    values = dict(_report_dict(report), input_sha256=digest, manifest_vouched=vouched)
    _write_json(Path(args.output) if args.output else None, values)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="holonoise",
        description="Planck-bandwidth noise model and twin-interferometer simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("constants", help="print the constant set as JSON")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("predict", help="model autocovariance and PSD curves as CSV")
    p.add_argument("--arm-length", type=float, required=True, help="baseline in m")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("info", help="degree-of-freedom budget for a region as JSON")
    p.add_argument("--length", type=float, required=True, help="region size in m")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("slits", help="two-slit patterns and distinguishability sweeps")
    p.add_argument("--screen-distance", type=float, required=True, help="m")
    p.add_argument("--separation", type=float, default=None, help="slit separation, m (default 0)")
    p.add_argument("--slit-width", type=float, default=None, help="m (default: wavelength)")
    p.add_argument("--wavelength", type=float, default=None, help="m (default: c t_P)")
    p.add_argument("--n-angles", type=int, default=4096)
    p.add_argument("--blurred", action="store_true", help="apply the information blur")
    p.add_argument("--sweep", action="store_true", help="emit the separation sweep instead")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_slits, parser=p)

    p = sub.add_parser("simulate", help="synthesize a pair, estimate spectra, detect")
    p.add_argument("--config", required=True, help="JSON experiment configuration")
    p.add_argument("--band", help="detection band LO:HI in Hz (default 0:1/tau_c)")
    p.add_argument("--output-dir", help=f"output directory (or ${ENV_OUTPUT_DIR})")
    p.add_argument(
        "--dump-timeseries", action="store_true", help="also write timeseries.csv"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="Welch spectra from a time-series CSV")
    p.add_argument("--timeseries", required=True, help="CSV from simulate --dump-timeseries")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("detect", help="detection report from a spectra CSV")
    p.add_argument("--estimate", required=True, help="spectra CSV from analyze/simulate")
    p.add_argument("--band", required=True, help="band LO:HI in Hz")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(exc.usage)
        sys.stderr.write(f"error: {exc}\n")
        return 64
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        # Reader went away (e.g. piped into head); not a failure of ours.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
