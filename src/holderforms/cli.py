"""Batch experiment runner: every verifier as a subcommand.

Each run writes CSV (and, on request, SVG) artifacts into the output
directory and prints one PASS/FAIL line per assertion.  Identical config +
seed gives byte-identical CSVs.  Exit codes:

* 0: every assertion passed;
* 1: an assertion failed;
* 2: configuration error (``config error: ...`` on stderr), among them a
  config file that is missing, unreadable or malformed and an output path
  that is not a directory, or a command line that does not parse (the
  usage and ``holderforms: error: ...``, or ``holderforms <command>:
  error: ...`` once the command is named);
* 3: numerical error, i.e. a grid too coarse for its form, an eigenvalue
  modulus too close to 1 to classify, an eigenvalue the root finder could
  not resolve, or a decay strip count too small for the smallness
  threshold (``numerical error: ...`` on stderr, with the offending
  values).

Config files are INI-style; command-line flags override config values.
The output directory can also be set via the HOLDERFORMS_OUTDIR
environment variable (flag > config > env > default).
"""

from __future__ import annotations

import argparse
import csv
import gc
import math
import os
import random
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .grids import GridField, UnderResolvedError, make_weierstrass
from .mollify import (
    BOUND_SLACK, normalization_constant, verify_regularization,
)
from .chains import Term, measure_polygons, polygon_boundary_integrals
from .inequality import (
    isoperimetric_check, mollification_split_check, verify_main_inequality,
    one_form_cnorm,
)
from .dynamics import (
    AmbiguousSpectrumError, ToralAutomorphism, UnresolvedSpectrumError,
    spectral_rates, anosov_section_criterion, accessibility_criterion,
    standard_holder_bound, pisot_example,
)
from .decay import (
    DecayRangeError, LinearModel, SmallnessError, USRectangle,
    decay_bound_series,
)
from .experiments import (
    weierstrass_form, dyadic_square_family,
    family_scale_slope, random_convex_polygon_vertices,
)

KNOWN_KEYS = {
    "common": {"seed", "sigma", "outdir"},
    "form": {"theta", "base", "terms", "resolution"},
    "disks": {"j_min", "j_max", "anchors"},
    "matrix": {"entries", "theta", "ell", "extra_center_dims"},
    "decay": {"mu", "nu", "k_min", "k_max", "u_len", "s_len", "c1"},
    "mollify": {"epsilons"},
}


class ConfigError(ValueError):
    pass


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


class Checks:
    """Collect PASS/FAIL assertions and print them as they arrive."""

    def __init__(self):
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        tag = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{tag} {name}{suffix}")
        if not ok:
            self.failures += 1
        return ok


def load_config(path: str | None) -> dict:
    """The INI file at ``path`` as ``{section: {key: raw value}}``; ``{}``
    when no path is given, so that only a run with ``--config`` imports
    configparser.

    A file that cannot be read, or that configparser rejects (no section
    header, a duplicate key, a bad interpolation), and an unknown section
    or key raise ``ConfigError`` naming it.
    """
    if not path:
        return {}
    import configparser

    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
        config = {section: dict(cp[section]) for section in cp.sections()}
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    for section, values in config.items():
        if section not in KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in values:
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}]")
    return config


def cfg_get(cfg, section, key, cast, default, override=None):
    if override is not None:
        return override
    values = cfg.get(section, {})
    if key not in values:
        return default
    try:
        return cast(values[key])
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def _at_least(name, value, low):
    if not value >= low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def _config_call(fn, *args):
    """Call ``fn(*args)``, re-raising its ``ValueError`` as ``ConfigError``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _theta_open(name, value):
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must lie in (0,1), got {value}")
    return value


def _form(args, cfg, resolution):
    """The ``[form]`` theta, base, terms and resolution of the Weierstrass
    form, read in that order, the resolution defaulting to ``resolution``."""
    theta = _theta_open("theta", cfg_get(cfg, "form", "theta", float, 0.5,
                                         args.theta))
    base = _at_least("base", cfg_get(cfg, "form", "base", int, 2), 2)
    terms = _at_least("terms", cfg_get(cfg, "form", "terms", int, 8), 1)
    res = _positive("resolution", cfg_get(cfg, "form", "resolution", int,
                                          resolution, args.resolution))
    return theta, base, terms, res


# --- subcommands -----------------------------------------------------------

def run_mollify_check(args, cfg, outdir: Path, checks: Checks) -> None:
    theta, base, terms, res = _form(args, cfg, 2048)
    epsilons = [_positive("epsilons", e) for e in cfg_get(
        cfg, "mollify", "epsilons", lambda raw: list(map(float, raw.split())),
        [0.02, 0.05, 0.1])]
    if not epsilons:
        raise ConfigError("[mollify] epsilons: need at least one value")

    for n in (1, 2):
        a = normalization_constant(n)
        checks.check(f"mollifier-normalization-{n}d", a > 0.0, f"A={a:.6f}")
    u = make_weierstrass(theta, base, terms, res)
    reports = verify_regularization(u, theta, epsilons)
    write_csv(outdir / "regularization.csv",
              ["epsilon", "measured_c", "bound_c", "measured_d", "bound_d",
               "pass_c", "pass_d"],
              [r.csv_row() for r in reports])
    for r in reports:
        checks.check(f"sup-bound-eps={r.epsilon:g}", r.pass_b,
                     f"sup|u_eps|={r.measured_b:.6g} <= sup|u|={r.sup_u:.6g}")
        checks.check(f"approx-bound-eps={r.epsilon:g}", r.pass_c,
                     f"{r.measured_c:.6g} <= {r.bound_c * BOUND_SLACK:.6g}")
        checks.check(f"derivative-bound-eps={r.epsilon:g}", r.pass_d,
                     f"{r.measured_d:.6g} <= {r.bound_d * BOUND_SLACK:.6g}")


def run_stokes_check(args, cfg, outdir: Path, checks: Checks) -> None:
    rows = []
    # x on [-2, 2] at 9 exact nodes; its seam cell [1.5, 2] misses the polygon
    x = np.append(np.arange(-2.0, 2.0, 0.5), -2.0)
    x_dy = (Term(GridField((-2.0,), (2.0,), (9,), x), (0.0, 1.0)),)
    turn = 2.0 * math.pi * np.arange(64) / 64
    gon = np.stack([np.cos(turn), np.sin(turn)], axis=-1)
    (val,) = polygon_boundary_integrals(x_dy, [gon])
    area = 32.0 * math.sin(2.0 * math.pi / 64)
    err = abs(val - area)
    rows.append(["x_dy_inscribed_64gon", val, area, err])
    checks.check("stokes-oracle-x-dy", err <= 1e-6,
                 f"|{area:.10f} - {val:.10f}|={err:.2e}")

    theta, base, terms, res = _form(args, cfg, 4096)
    alpha = weierstrass_form(theta, base, terms, res)
    lo, hi = (0.3, 0.3), (0.5, 0.5)
    split = mollification_split_check(alpha, lo, hi, epsilon=0.05,
                                      theta=theta)
    # int_D d(a_eps dy) in closed form: a_eps depends on x alone, so
    # d(a_eps dy) = a_eps'(x) dx dy integrates to a difference in x
    (x0, y0), (x1, y1) = lo, hi
    a_eps = split.alpha_eps[0].field.evaluate(np.array([[x0], [x1]]))
    value, closed = split.interior, (y1 - y0) * (a_eps[1] - a_eps[0])
    err2 = abs(value - closed)
    rows.append(["mollified_weierstrass_stokes", value, closed, err2])
    # both values are exact, so the 1e-5 absorbs rounding only: 2.8e-17 at
    # the default 4096 nodes, and no more from 512 to 65536 nodes
    checks.check("stokes-mollified-weierstrass", err2 <= 1e-5,
                 f"|{value:.8g} - {closed:.8g}|={err2:.2e}")
    checks.check("split-chain", split.chain_holds,
                 f"lhs={split.lhs:.4g} <= {split.term_boundary:.4g}+"
                 f"{split.term_interior:.4g}")
    write_csv(outdir / "stokes.csv",
              ["case", "value", "reference", "abs_error"], rows)


def run_inequality(args, cfg, outdir: Path, checks: Checks) -> None:
    theta, base, terms, res = _form(args, cfg, 2048)
    j_min = cfg_get(cfg, "disks", "j_min", int, 2)
    j_max = _at_least("j_max", cfg_get(cfg, "disks", "j_max", int, 8), j_min)
    anchors = _at_least("anchors", cfg_get(cfg, "disks", "anchors", int, 8), 1)
    sigma = _positive("sigma", cfg_get(cfg, "common", "sigma", float, 0.5,
                                       args.sigma))

    alpha = weierstrass_form(theta, base, terms, res)
    family = dyadic_square_family(range(j_min, j_max + 1), anchors)
    reports = verify_main_inequality(alpha, family, theta=theta,
                                     smallness_sigma=sigma)
    try:
        slope, per_scale = family_scale_slope(reports)
    except ValueError as exc:
        raise ConfigError(f"j = {j_min}..{j_max} at sigma = {sigma:g}: "
                          f"{exc}") from exc
    write_csv(outdir / "inequality.csv",
              ["disk_id", "length", "area", "diameter", "lhs", "rhs_shape",
               "ratio", "eps_star", "skipped"],
              [r.csv_row() for r in reports])
    emp_k = max(r.empirical_k for r in reports)
    checks.check("empirical-K-finite", math.isfinite(emp_k) and emp_k > 0.0,
                 f"K={emp_k:.4f}")
    checks.check("scale-slope", slope <= 0.1, f"slope={slope:.4f}")
    if args.svg:
        from . import svgplot

        js = sorted(per_scale)
        svgplot.line_plot(outdir / "inequality_ratio.svg",
                          [2.0 ** (-j) for j in js],
                          [per_scale[j] for j in js],
                          title="ratio vs disk size", xlabel="r",
                          ylabel="ratio", logx=True, logy=True)


def run_isoperimetric(args, cfg, outdir: Path, checks: Checks) -> None:
    rows = []
    rep = isoperimetric_check(2.0 * math.pi, math.pi)
    rows.append(["unit_disk", rep.length, rep.area, rep.bound,
                 rep.equality_gap])
    # the disk is the equality case, so the 1e-6 absorbs the rounding of
    # (2 pi)^2 / (4 pi) against pi only; the gap is 0.0 in binary64
    checks.check("isoperimetric-disk-equality", abs(rep.equality_gap) <= 1e-6,
                 f"gap={rep.equality_gap:.2e}")
    rng = random.Random(args.seed)
    polygons = [random_convex_polygon_vertices(rng, n_vertices=5 + i % 5)
                for i in range(10)]
    lengths, areas, _ = measure_polygons(polygons)
    for i, (length, area) in enumerate(zip(lengths.tolist(), areas.tolist())):
        rep = isoperimetric_check(length, area)
        rows.append([f"polygon{i}", rep.length, rep.area, rep.bound,
                     rep.equality_gap])
        checks.check(f"isoperimetric-polygon{i}",
                     rep.holds and rep.equality_gap > 1e-6,
                     f"area={rep.area:.4f} < bound={rep.bound:.4f}")
    write_csv(outdir / "isoperimetric.csv",
              ["case", "length", "area", "bound", "gap"], rows)


def run_criteria(args, cfg, outdir: Path, checks: Checks) -> None:
    entries_raw = cfg_get(cfg, "matrix", "entries", str, "2 1 1 1",
                          args.matrix)
    entries = _config_call(lambda: [int(x) for x in entries_raw.split()])
    n = int(round(math.sqrt(len(entries))))
    if n * n != len(entries):
        raise ConfigError("matrix entries must form a square matrix "
                          "(row-major)")
    theta = _theta_open("theta", cfg_get(cfg, "matrix", "theta", float, 0.5,
                                         args.theta))
    ell = _at_least("ell", cfg_get(cfg, "matrix", "ell", int, 0, args.ell), 0)
    extra = _at_least("extra_center_dims",
                      cfg_get(cfg, "matrix", "extra_center_dims", int, 0,
                              args.extra_center_dims), 0)
    A = _config_call(ToralAutomorphism, np.array(entries).reshape(n, n))
    rates = spectral_rates(A, extra_center_dims=extra)
    print(f"rates: lambda_u={rates.lambda_u} m_u={rates.m_u} "
          f"lambda_s={rates.lambda_s} m_s={rates.m_s} "
          f"m_c={rates.m_c} dims={rates.dims}")
    rows = []
    reports = []
    if rates.dims[2] and rates.dims[0]:
        rep = anosov_section_criterion(rates, theta)
        reports.append(rep)
        rows.append(rep.csv_row())
        checks.check("anosov-section-evaluated", math.isfinite(rep.value),
                     f"value={rep.value:.6g} holds={rep.holds}")
    if ell > 0:
        rep = _config_call(accessibility_criterion, rates, theta, ell)
        reports.append(rep)
        rows.append(rep.csv_row())
        checks.check("accessibility-evaluated", math.isfinite(rep.value),
                     f"value={rep.value:.6g} holds={rep.holds}")
    std = _config_call(standard_holder_bound, rates)
    rows.append(["standard_holder_bound", std, "", theta, std, int(0 < std <= 1)])
    checks.check("standard-holder-bound", 0.0 <= std <= 1.0,
                 f"theta_std={std:.6g}")
    for rep in reports:
        print(f"{rep.name}: value={rep.value:.12g} holds={rep.holds} "
              f"theta*={rep.theta_threshold}")
    write_csv(outdir / "criteria.csv",
              ["name", "value", "holds", "theta", "theta_threshold",
               "threshold_in_range"], rows)


def run_pisot(args, cfg, outdir: Path, checks: Checks) -> None:
    rep = pisot_example()
    print(f"xi={rep.xi:.10f} eta={rep.eta:.10f}")
    print(f"accessibility threshold = {rep.accessibility_threshold:.12f}")
    print(f"standard Holder bound   = {rep.standard_theta:.12f}")
    checks.check("pisot-unimodular", rep.unimodular_residual <= 1e-9,
                 f"|xi eta^2 - 1|={rep.unimodular_residual:.2e}")
    checks.check("pisot-thresholds-coincide", rep.thresholds_coincide,
                 f"|{rep.accessibility_threshold:.12f} - "
                 f"{rep.standard_theta:.12f}| <= 1e-9")
    checks.check("pisot-threshold-half",
                 abs(rep.accessibility_threshold - 0.5) <= 1e-9,
                 f"theta*={rep.accessibility_threshold:.12f}")
    write_csv(outdir / "pisot.csv",
              ["xi", "eta", "det", "unimodular_residual",
               "accessibility_threshold", "standard_theta"],
              [[rep.xi, rep.eta, rep.det, rep.unimodular_residual,
                rep.accessibility_threshold, rep.standard_theta]])


def run_decay(args, cfg, outdir: Path, checks: Checks) -> None:
    mu = _positive("mu", cfg_get(cfg, "decay", "mu", float, 1.5, args.mu))
    nu = _positive("nu", cfg_get(cfg, "decay", "nu", float, 0.4, args.nu))
    theta = _theta_open("theta", cfg_get(cfg, "form", "theta", float, 0.5,
                                         args.theta))
    sigma = _positive("sigma", cfg_get(cfg, "common", "sigma", float, 0.5,
                                       args.sigma))
    k_min = int(cfg_get(cfg, "decay", "k_min", int, 0))
    k_max = int(cfg_get(cfg, "decay", "k_max", int, 8, args.k_max))
    u_len = _positive("u_len", cfg_get(cfg, "decay", "u_len", float, 0.4))
    s_len = _positive("s_len", cfg_get(cfg, "decay", "s_len", float, 0.1))
    c1 = _positive("c1", cfg_get(cfg, "decay", "c1", float, 1.0))
    base = _at_least("base", cfg_get(cfg, "form", "base", int, 2), 2)
    terms = _at_least("terms", cfg_get(cfg, "form", "terms", int, 6), 1)

    model = _config_call(LinearModel, mu, nu)
    rect = USRectangle((0.05, 0.05), u_len, s_len)
    sampled = weierstrass_form(theta, base, terms,
                               max(512, 4 * base ** (terms - 1)))
    cnorm = one_form_cnorm(sampled, theta)
    try:
        series = decay_bound_series(sampled, model, rect, theta,
                                    range(k_min, k_max + 1), sigma,
                                    c1=c1, cnorm=cnorm)
    except DecayRangeError as exc:
        raise ConfigError(str(exc)) from exc
    if len(series.steps) < 2:
        skipped = ", ".join(map(str, series.skipped_k)) or "none"
        raise ConfigError(
            f"k = {k_min}..{k_max} gives {len(series.steps)} admissible "
            f"step(s) and a rate needs two; pre-asymptotic k skipped: "
            f"{skipped}")
    write_csv(outdir / "decay.csv",
              ["k", "n_strips", "bound", "ratio_to_previous",
               "predicted_rate"], series.csv_rows())
    for s in series.steps:
        checks.check(f"strip-band-k={s.k}", s.n0 < s.n < 2 * s.n0,
                     f"N0={s.n0:.2f} N={s.n}")
        checks.check(f"strip-smallness-k={s.k}",
                     s.strip_boundary_max < sigma,
                     f"max boundary {s.strip_boundary_max:.4f}")
        # the strips' shared edges cancel exactly in real numbers, so the
        # 1e-8 absorbs rounding only: at most 1.6e-16 at the defaults
        checks.check(f"telescoping-k={s.k}",
                     abs(s.lhs_sum - s.lhs_whole) <= 1e-8,
                     f"|{s.lhs_sum:.10g} - {s.lhs_whole:.10g}|="
                     f"{abs(s.lhs_sum - s.lhs_whole):.2e}")
    fitted = series.fitted_rate
    predicted = series.predicted_rate
    checks.check("decay-rate",
                 abs(fitted - predicted) <= 0.1 * predicted,
                 f"fitted={fitted:.4f} predicted={predicted:.4f}")
    if args.svg:
        from . import svgplot

        svgplot.line_plot(outdir / "decay_bound.svg",
                          [s.k for s in series.steps],
                          [s.bound for s in series.steps],
                          title="telescoped bound vs k", xlabel="k",
                          ylabel="bound", logy=True)


RUNNERS = {
    "mollify-check": run_mollify_check,
    "stokes-check": run_stokes_check,
    "inequality": run_inequality,
    "isoperimetric": run_isoperimetric,
    "criteria": run_criteria,
    "pisot": run_pisot,
    "decay": run_decay,
}


# The flags each runner reads, with their types (bool: a switch), besides
# the COMMON_FLAGS, which every subcommand takes; parse_args rejects any
# other flag with exit 2.
FLAGS = {
    "mollify-check": {"theta": float, "resolution": int},
    "stokes-check": {"theta": float, "resolution": int},
    "inequality": {"theta": float, "sigma": float, "resolution": int,
                   "svg": bool},
    "isoperimetric": {},
    "criteria": {"theta": float, "matrix": str, "ell": int,
                 "extra-center-dims": int},
    "pisot": {},
    "decay": {"theta": float, "sigma": float, "mu": float, "nu": float,
              "k-max": int, "svg": bool},
}
COMMON_FLAGS = {"config": str, "outdir": str, "seed": int}

DESCRIPTION = ("Desk-scale verifiers for the Holder-form boundary "
               "inequality and its dynamical rate criteria.")


def _build_parser():
    """The parser of ``holderforms [--version] COMMAND [flags]``, and the
    subparser of each command."""
    parser = argparse.ArgumentParser(prog="holderforms",
                                     description=DESCRIPTION)
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, flags in FLAGS.items():
        sub = commands.add_parser(command, description=DESCRIPTION)
        for flag, kind in {**COMMON_FLAGS, **flags}.items():
            if kind is bool:
                sub.add_argument(f"--{flag}", action="store_true")
            else:
                sub.add_argument(f"--{flag}", type=kind)
    return parser, commands.choices


# built once, at import: a parser built per run would add gettext's cold
# start to every run's own time
_PARSER, _SUBPARSERS = _build_parser()


def parse_args(argv):
    """Parse the command line with the one argparse parser.

    Before Python 3.13, argparse stores an explicit ``--flag=--`` as an
    empty list; it is read as the value ``"--"`` it is.
    """
    args = _PARSER.parse_args(argv)
    for flag, kind in {**COMMON_FLAGS, **FLAGS[args.command]}.items():
        name = flag.replace("-", "_")
        if getattr(args, name) == []:
            try:
                setattr(args, name, kind("--"))
            except ValueError:
                _SUBPARSERS[args.command].error(
                    f"argument --{flag}: invalid {kind.__name__} value: '--'")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        cfg = load_config(args.config)
        args.seed = int(cfg_get(cfg, "common", "seed", int, 0, args.seed))
        outdir = Path(
            args.outdir
            or cfg_get(cfg, "common", "outdir", str, None)
            or os.environ.get("HOLDERFORMS_OUTDIR", "holderforms-out"))
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {outdir}: "
                              f"{exc.strerror}") from exc
        checks = Checks()
        RUNNERS[args.command](args, cfg, outdir, checks)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (UnderResolvedError, AmbiguousSpectrumError,
            UnresolvedSpectrumError, SmallnessError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    if checks.failures:
        print(f"{checks.failures} assertion(s) failed")
        return 1
    print("all assertions passed")
    return 0


# every object built so far, the parser and the module tables among them,
# lives until exit: frozen, the cyclic GC no longer scans them in a run
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
