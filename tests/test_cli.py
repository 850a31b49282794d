import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import holderforms.chains
import holderforms.cli
import holderforms.decay
import holderforms.dynamics
import holderforms.inequality
from holderforms.dynamics import AmbiguousSpectrumError
from holderforms.cli import COMMON_FLAGS, FLAGS, main, parse_args


def run(argv, tmp_path, name="out"):
    outdir = tmp_path / name
    code = main(argv + ["--outdir", str(outdir)])
    return code, outdir


FAST_SUBCOMMANDS = ["isoperimetric", "criteria", "pisot"]


class TestSubcommands:
    @pytest.mark.parametrize("sub", FAST_SUBCOMMANDS)
    def test_exit_zero_and_csv_written(self, sub, tmp_path, capsys):
        code, outdir = run([sub], tmp_path)
        assert code == 0
        assert list(outdir.glob("*.csv"))
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_mollify_check(self, tmp_path, capsys):
        code, outdir = run(["mollify-check"], tmp_path)
        assert code == 0
        assert (outdir / "regularization.csv").exists()

    def test_stokes_check(self, tmp_path):
        code, outdir = run(["stokes-check", "--resolution", "4096"], tmp_path)
        assert code == 0
        assert (outdir / "stokes.csv").exists()

    @pytest.mark.parametrize("resolution", ["512", "1024", "2048"])
    def test_coarse_stokes_check_passes(self, resolution, tmp_path, capsys):
        # every term of the split is an exact boundary integral, so no
        # check depends on the grid resolving d(alpha_eps)
        code, _ = run(["stokes-check", "--resolution", resolution], tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS stokes-mollified-weierstrass" in out
        assert "PASS split-chain" in out
        assert "FAIL" not in out

    def test_failed_check_exits_1(self, tmp_path, capsys, monkeypatch):
        # a check that fails is exit 1, not a numerical error
        monkeypatch.setattr(holderforms.inequality.SplitCheck, "chain_holds",
                            property(lambda self: False))
        code, _ = run(["stokes-check"], tmp_path)
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL split-chain" in out
        assert out.count("FAIL") == 1
        assert out.endswith("1 assertion(s) failed\n")

    def test_stokes_check_integrates_its_grid_form_exactly(self, tmp_path,
                                                           monkeypatch):
        # every line integral is an exact polygon integral: the oracle's
        # 64-gon in the runner, and the form's and the mollified form's
        # square in the split
        calls = []
        real = holderforms.cli.polygon_boundary_integrals

        def counting(alpha, corners):
            calls.append(len(corners))
            return real(alpha, corners)

        for module in (holderforms.cli, holderforms.inequality):
            monkeypatch.setattr(module, "polygon_boundary_integrals",
                                counting)
        code, outdir = run(["stokes-check"], tmp_path)
        assert code == 0
        assert calls == [1, 1, 1]
        rows = (outdir / "stokes.csv").read_text().splitlines()
        case, value, reference, _ = rows[1].split(",")
        assert case == "x_dy_inscribed_64gon"
        assert float(reference) == 32.0 * np.sin(2.0 * np.pi / 64)
        assert abs(float(value) - float(reference)) <= 1e-14

    def test_decay_integrates_each_strip_and_iterate_once(self, tmp_path,
                                                          monkeypatch):
        # decay integrates its grid-sampled form exactly: each strip once,
        # then each step's whole iterate once
        calls = []
        real = holderforms.decay.polygon_boundary_integrals

        def spy(alpha, corners):
            calls.append(len(corners))
            return real(alpha, corners)

        monkeypatch.setattr(holderforms.decay, "polygon_boundary_integrals",
                            spy)
        code, outdir = run(["decay"], tmp_path)
        assert code == 0
        rows = (outdir / "decay.csv").read_text().splitlines()[1:]
        strips = sum(int(row.split(",")[1]) for row in rows)
        assert sum(calls) == strips + len(rows)

    def test_stokes_check_mollifies_once(self, tmp_path, monkeypatch):
        calls = []
        real = holderforms.inequality.mollify

        def counting(u, epsilon):
            calls.append(epsilon)
            return real(u, epsilon)

        monkeypatch.setattr(holderforms.inequality, "mollify", counting)
        code, _ = run(["stokes-check"], tmp_path)
        assert code == 0
        assert calls == [0.05]

    def test_stokes_check_takes_no_exterior_derivative(self, tmp_path,
                                                       monkeypatch):
        # the interior term is a boundary integral (Stokes): the package
        # has no 2-form path, and stokes-check takes no centred difference
        for module in (holderforms.chains, holderforms.inequality,
                       holderforms.cli):
            assert not hasattr(module, "exterior_derivative")
            assert not hasattr(module, "integrate_two_form")
        calls = []
        mollify_module = sys.modules["holderforms.mollify"]
        real = mollify_module._centered_diff

        def counting(values, ax, h):
            calls.append(values.shape)
            return real(values, ax, h)

        monkeypatch.setattr(mollify_module, "_centered_diff", counting)
        code, _ = run(["stokes-check"], tmp_path)
        assert code == 0
        assert calls == []

    def test_stokes_check_computes_no_seminorm(self, tmp_path, monkeypatch):
        # it reads the split's terms and chain check, never its bounds
        calls = []

        def counting(module):
            real = module.holder_seminorm

            def seminorm(f, theta):
                calls.append(f.resolution)
                return real(f, theta)
            return seminorm

        # the package's ``mollify`` attribute is the function
        for module in (holderforms.inequality,
                       sys.modules["holderforms.mollify"]):
            monkeypatch.setattr(module, "holder_seminorm", counting(module))
        code, _ = run(["stokes-check"], tmp_path)
        assert code == 0
        assert calls == []

    def test_svg_flag_emits_plot(self, tmp_path):
        code, outdir = run(["inequality", "--svg"], tmp_path)
        assert code == 0
        svg = outdir / "inequality_ratio.svg"
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("argv,name,logs", [
        (["inequality", "--svg"], "inequality_ratio.svg", (True, True)),
        (["decay", "--svg"], "decay_bound.svg", (False, True)),
    ])
    def test_svg_tick_labels_read_as_their_values(self, argv, name, logs,
                                                  tmp_path, monkeypatch):
        # a log axis is drawn in log10 units; each of its tick labels is
        # the value 10 ** v, not "1e{v}" with a fractional exponent
        from holderforms import svgplot
        axes = []
        ticks = svgplot._ticks

        def recording(lo, hi):
            axes.append(ticks(lo, hi))
            return axes[-1]

        monkeypatch.setattr(svgplot, "_ticks", recording)
        code, outdir = run(argv, tmp_path)
        assert code == 0
        labels = re.findall(r'font-size="12">([^<]*)</text>',
                            (outdir / name).read_text())
        want = [10.0 ** v if log else v
                for log, vs in zip(logs, axes) for v in vs]
        assert len(labels) == len(want) > 2
        for label, value in zip(labels, want):
            assert abs(float(label) - value) <= 0.01 * abs(value), label


class TestDeterminism:
    @pytest.mark.parametrize("sub", FAST_SUBCOMMANDS)
    def test_byte_identical_reruns(self, sub, tmp_path):
        _, a = run([sub, "--seed", "5"], tmp_path, "a")
        _, b = run([sub, "--seed", "5"], tmp_path, "b")
        for fa in sorted(a.glob("*.csv")):
            fb = b / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize("sub", ["inequality", "mollify-check", "decay"])
    def test_csvs_do_not_depend_on_the_seed(self, sub, tmp_path):
        # the seed only draws random polygons; no reported constant uses it
        _, a = run([sub, "--seed", "0"], tmp_path, "a")
        _, b = run([sub, "--seed", "1"], tmp_path, "b")
        names = sorted(p.name for p in a.glob("*.csv"))
        assert names
        assert names == sorted(p.name for p in b.glob("*.csv"))
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestNumericalErrors:
    def test_under_resolved_grid_exits_3(self, tmp_path, capsys):
        code, _ = run(["inequality", "--resolution", "4"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ")
        assert "512" in err

    def test_ambiguous_spectrum_exits_3(self, tmp_path, capsys, monkeypatch):
        def ambiguous(*args, **kwargs):
            raise AmbiguousSpectrumError(1.0000001)

        monkeypatch.setattr(holderforms.cli, "spectral_rates", ambiguous)
        code, _ = run(["criteria"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ")
        assert "1.0000001" in err

    def test_unresolved_spectrum_exits_3(self, tmp_path, capsys,
                                         monkeypatch):
        real = holderforms.dynamics._factor_roots
        monkeypatch.setattr(holderforms.dynamics, "_factor_roots",
                            lambda g: [z + 1e-3 for z in real(g)])
        code, _ = run(["criteria"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: eigenvalue ")
        assert "residual" in err

    def test_large_entries_resolve(self, tmp_path, capsys):
        # the large root's residual 0.079 is above 1e-9 max|c_k| = 0.036,
        # but far below its backward-error bound
        code, _ = run(["criteria", "--matrix",
                       "-87091 1908042 1648044 -36106339"], tmp_path)
        assert code == 0
        assert "dims=(1, 0, 1)" in capsys.readouterr().out

    def test_strips_too_long_for_sigma_exit_3(self, tmp_path, capsys):
        # c1 = 0.2 sizes N = 2 strips at k = 0, each 0.6 long against 0.5
        ini = tmp_path / "c.ini"
        ini.write_text("[decay]\nc1 = 0.2\n")
        code, _ = run(["decay", "--config", str(ini)], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ")
        assert "k=0; N=2" in err


# numpy.polynomial and numpy.random are heavy; dataclasses would generate
# the code of every record at import, configparser is read only with
# --config, and the spectra are exact in Python ints, without fractions and
# the decimal module it imports
HEAVY_MODULES = ("scipy", "numpy.random", "numpy.polynomial", "dataclasses",
                 "configparser", "fractions", "decimal")

# criteria matrices beyond the default cat map: a 3x3 one with
# lambda_u != m_u, and the 4x4 doubled cat map with two double roots
LAPACK_FREE_RUNS = [[cmd] for cmd in holderforms.cli.FLAGS] + [
    ["criteria", "--matrix", "-1 -1 1 -1 -1 2 1 2 2"],
    ["criteria", "--matrix", "2 1 0 0 1 1 0 0 0 0 2 1 0 0 1 1"],
]

# Runs each subcommand at its defaults, in turn, through cli.main; prints,
# per subcommand, its exit code and the modules named in argv loaded so far.
RUN_ALL = """
import contextlib, io, json, sys
import holderforms.cli as cli
heavy = set(sys.argv[2:])
seen = {}
for cmd in cli.FLAGS:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([cmd, "--outdir", sys.argv[1]])
    seen[cmd] = [rc, sorted(heavy & set(sys.modules))]
print(json.dumps(seen))
"""


def run_fresh(code, *args, **env_vars):
    """stdout of ``code`` run in a fresh interpreter that imports src/, with
    ``env_vars`` set in its environment (a None value unsets the name)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return out.stdout


class TestImports:
    def test_cli_import_loads_no_heavy_module(self):
        # set-up time is a gated benchmark metric; these would add to it
        code = ("import sys, holderforms.cli; "
                "print(sorted(set(sys.argv[1:]) & set(sys.modules)))")
        assert run_fresh(code, *HEAVY_MODULES).strip() == "[]"

    def test_no_subcommand_loads_a_heavy_module(self, tmp_path):
        # every run is a new process: the GL rule is a table and the
        # polygons are drawn by the stdlib, so neither numpy.polynomial nor
        # numpy.random is loaded; nor is the SVG writer without --svg
        seen = json.loads(run_fresh(RUN_ALL, str(tmp_path), *HEAVY_MODULES,
                                    "holderforms.svgplot"))
        assert seen == {cmd: [0, []] for cmd in holderforms.cli.FLAGS}

    def test_svg_runs_load_svgplot(self, tmp_path):
        code = ("import contextlib, io, sys, holderforms.cli as cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    rc = cli.main([sys.argv[1], '--svg', '--outdir',"
                " sys.argv[2]])\n"
                "print(rc, 'holderforms.svgplot' in sys.modules)")
        for cmd in ("inequality", "decay"):
            assert run_fresh(code, cmd, str(tmp_path)).split() == \
                ["0", "True"]

    def test_cli_import_freezes_its_objects(self):
        # the objects built at import live until exit; frozen, no cyclic
        # collection during a run scans them again
        code = "import gc, holderforms.cli; print(gc.get_freeze_count())"
        assert int(run_fresh(code)) > 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task to count threads")
    def test_cli_import_starts_no_blas_thread(self):
        # set-up and CPU time are gated benchmark metrics: an OpenBLAS pool
        # that no run uses would only add to both
        code = ("import os, holderforms.cli; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], "
                "len(os.listdir('/proc/self/task')))")
        out = run_fresh(code, OPENBLAS_NUM_THREADS=None)
        assert out.split() == ["1", "1"]

    def test_cli_import_keeps_an_explicit_blas_thread_count(self):
        code = ("import os, holderforms.cli; "
                "print(os.environ['OPENBLAS_NUM_THREADS'])")
        assert run_fresh(code, OPENBLAS_NUM_THREADS="2").strip() == "2"

    def test_no_run_calls_lapack(self, tmp_path, monkeypatch):
        # the eigenvalues come from the exact characteristic polynomial;
        # a LAPACK eigensolver's first call would raise the peak RSS
        def refuse(*args, **kwargs):
            raise AssertionError("a run called a LAPACK eigensolver")

        for module, name in ((np.linalg, "eigvals"), (np.linalg, "eig"),
                             (np, "roots")):
            monkeypatch.setattr(module, name, refuse)
        for argv in LAPACK_FREE_RUNS:
            assert main(argv + ["--outdir", str(tmp_path)]) == 0, argv

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        # the parser is built once, at import: one built per run would add
        # gettext's cold start to the run's time
        def refuse(self, *args, **kwargs):
            raise AssertionError("main built an argparse parser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert main(["pisot", "--outdir", str(tmp_path)]) == 0


# The flags each runner reads, besides --config, --outdir and --seed, and a
# value for each flag
READ_FLAGS = {
    "mollify-check": {"--theta", "--resolution"},
    "stokes-check": {"--theta", "--resolution"},
    "inequality": {"--theta", "--sigma", "--resolution", "--svg"},
    "isoperimetric": set(),
    "criteria": {"--theta", "--matrix", "--ell", "--extra-center-dims"},
    "pisot": set(),
    "decay": {"--theta", "--sigma", "--mu", "--nu", "--k-max", "--svg"},
}
FLAG_VALUES = {"--theta": ["7"], "--sigma": ["nan"], "--resolution": ["4"],
               "--svg": [], "--matrix": ["2 1 1 1"], "--ell": ["1"],
               "--extra-center-dims": ["2"], "--mu": ["1.5"],
               "--nu": ["0.4"], "--k-max": ["8"]}


class TestFlags:
    @pytest.mark.parametrize("sub,flag", [
        (sub, flag) for sub, read in READ_FLAGS.items()
        for flag in FLAG_VALUES if flag not in read])
    def test_flag_the_runner_does_not_read_exits_2(self, sub, flag,
                                                   tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run([sub, flag, *FLAG_VALUES[flag]], tmp_path)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("sub,flag", [
        (sub, flag) for sub, read in READ_FLAGS.items() for flag in read])
    def test_flag_the_runner_reads_is_accepted(self, sub, flag):
        args = parse_args(
            [sub, "--config", "c.ini", "--outdir", "out", "--seed", "1",
             flag, *FLAG_VALUES[flag]])
        assert (args.config, args.outdir, args.seed) == ("c.ini", "out", 1)
        assert getattr(args, flag[2:].replace("-", "_")) not in (None, False)

    @pytest.mark.parametrize("sub", READ_FLAGS)
    def test_no_other_flag_is_registered(self, sub):
        args = parse_args([sub, "--seed", "1"])
        assert set(vars(args)) == {"command", "config", "outdir", "seed"} | {
            f[2:].replace("-", "_") for f in READ_FLAGS[sub]}


def reference_parser():
    """A plain argparse parser built from FLAGS by the CLI's recipe, with
    none of parse_args's fix-up for an explicit ``--flag=--``."""
    p = argparse.ArgumentParser(prog="holderforms",
                                description=holderforms.cli.DESCRIPTION)
    p.add_argument("--version", action="version",
                   version=holderforms.__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, flags in FLAGS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--outdir", default=None)
        sp.add_argument("--seed", type=int, default=None)
        for flag, kind in flags.items():
            if kind is bool:
                sp.add_argument(f"--{flag}", action="store_true")
            else:
                sp.add_argument(f"--{flag}", type=kind)
    return p


REFERENCE = reference_parser()


def parse_outcome(parse, argv):
    """What one parse of ``argv`` gives: the parsed values (as reprs, so
    that nan equals nan) and None; or, on exit, the exit code and the
    error line (exit 2), the version (--version) or "help"."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            if exc.code:
                return exc.code, err.getvalue().splitlines()[-1]
            printed = out.getvalue()
            return 0, "help" if printed.startswith("usage:") else printed
    assert not out.getvalue() and not err.getvalue()
    return None, {k: repr(v) for k, v in vars(args).items()}


# The cases parse_args must parse as the plain parser does: every rejection
# (exit 2) and every accepted form
PARSER_CORPUS = [
    # a missing or unknown command
    [], ["--seed", "1"], ["bogus"], ["-1"], ["--"], ["--", "pisot"],
    ["--version", "bogus"], ["bogus", "--version"], ["-x", "pisot"],
    # a flag the command does not take, or an extra positional
    ["pisot", "--theta", "7"], ["isoperimetric", "--svg"],
    ["criteria", "--bogus"], ["pisot", "--version"], ["pisot", "extra"],
    ["decay", "--mu", "2", "3"], ["pisot", "--", "--seed", "1"],
    # a missing value
    ["pisot", "--seed"], ["decay", "--mu", "--nu", "1"],
    ["decay", "--theta", "-x"], ["pisot", "--seed", "--", "1"],
    # a value that does not parse as its type
    ["pisot", "--seed", "1.5"], ["decay", "--mu", "x"],
    ["decay", "--k-max=nan"], ["decay", "--mu="],
    # an ambiguous prefix, also after -h, and at the top level
    ["decay", "--s", "1"], ["inequality", "--s=1"], ["criteria", "--e", "1"],
    ["decay", "-h", "--s"], ["pisot", "--=1"],
    # a switch given a value
    ["inequality", "--svg=1"], ["decay", "--svg="], ["--version=1"],
    ["pisot", "-hx"], ["pisot", "-h=1"], ["-hx"],
    # --flag value and --flag=value, unique prefixes, repeats, negatives
    ["decay", "--mu", "2"], ["decay", "--mu=2"], ["inequality", "--res", "64"],
    ["decay", "--k", "3", "--sv"], ["pisot", "--seed", "1", "--seed", "2"],
    ["decay", "--theta", "-0.5"], ["criteria", "--ell", "-1"],
    ["decay", "--k-max", "-3"], ["decay", "--nu", "nan", "--svg", "--svg"],
    ["criteria", "--matrix", "-1 1 1 0"], ["criteria", "--matrix=-x"],
    ["criteria", "--mat", "2 1 1 1", "--extra", "2", "--el=0"],
    ["stokes-check", "--config", "c.ini", "--out", "o", "--res=-4"],
    # --version and help, at the top level and for each command; help
    # acts when it is reached, before later errors
    ["--version"], ["--ver"], ["-h"], ["--help"], ["--he"], ["-hh"],
    *([cmd, "-h"] for cmd in FLAGS), ["decay", "--help"], ["pisot", "--h"],
    ["pisot", "-h", "--seed", "x"], ["pisot", "--seed", "x", "-h"],
    ["pisot", "--bogus", "-h"],
]

FLAG_TOKENS = sorted({"-h", "--help", "--version", "--bogus"}
                     | {f"--{f}" for f in COMMON_FLAGS}
                     | {f"--{f}" for flags in FLAGS.values() for f in flags})
PREFIX_TOKENS = ["--s", "--se", "--si", "--th", "--k", "--e", "--m", "--n",
                 "--r", "--o", "--c", "--h", "--v", "-", "--"]
VALUE_TOKENS = ["1", "-0.5", "nan", "x", "="]
_TOKEN = st.one_of(
    st.sampled_from(FLAG_TOKENS + PREFIX_TOKENS + VALUE_TOKENS),
    st.builds("{}={}".format, st.sampled_from(FLAG_TOKENS + PREFIX_TOKENS),
              st.sampled_from(VALUE_TOKENS)))
_ARGV = st.one_of(
    st.builds(lambda cmd, rest: [cmd, *rest],
              st.sampled_from([*FLAGS, "bogus"]), st.lists(_TOKEN, max_size=6)),
    st.lists(_TOKEN, max_size=4))


class TestParser:
    @pytest.mark.parametrize("argv,start,message", [
        (["inequality", "--sigma=--"], "usage: ",
         "argument --sigma: invalid float value: '--'"),
        (["pisot", "--seed=--"], "usage: ",
         "argument --seed: invalid int value: '--'"),
        (["criteria", "--config=--"], "config error: ",
         "config file not found: --"),
        (["criteria", "--matrix=--"], "config error: ",
         "invalid literal for int() with base 10: '--'"),
    ])
    def test_explicit_double_dash_is_a_value(self, argv, start, message,
                                             tmp_path, capsys):
        # argparse before Python 3.13 drops such a "--" and stores an empty
        # list, which the runners cannot read or would take as unset;
        # parse_args reads it as the value it is
        try:
            code = main(argv + ["--outdir", str(tmp_path)])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(start)
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
    def test_parses_as_argparse_did(self, argv):
        # the module's parser is built from the tables by the recipe above,
        # and the --flag=-- fix-up leaves every other command line alone
        assert parse_outcome(parse_args, argv) == \
            parse_outcome(REFERENCE.parse_args, argv)

    @settings(max_examples=300, deadline=None)
    @given(argv=_ARGV)
    def test_any_flag_sequence_parses_as_argparse_did(self, argv):
        assert parse_outcome(parse_args, argv) == \
            parse_outcome(REFERENCE.parse_args, argv)


class TestConfig:
    def test_missing_config_file_is_an_error(self, tmp_path):
        code, _ = run(["pisot", "--config", str(tmp_path / "nope.ini")],
                      tmp_path)
        assert code == 2

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[common]\nbogus = 1\n")
        code, _ = run(["pisot", "--config", str(ini)], tmp_path)
        assert code == 2

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[nosuch]\nseed = 1\n")
        code, _ = run(["pisot", "--config", str(ini)], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("text,message", [
        (b"theta = 0.5\n", "File contains no section headers"),
        (b"[common]\nseed = 1\nseed = 2\n", "'seed' in section 'common' "
         "already exists"),
        (b"[common]\nseed = %(x)s\n", "interpolation key 'x'"),
        (b"[common]\nseed = 1%\n", "'%' must be followed by"),
        (b"\xff[common]\n", "can't decode byte 0xff"),
    ], ids=["no-section-header", "duplicate-key", "missing-interpolation",
            "bad-interpolation", "undecodable"])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, text,
                                           message):
        # configparser's errors are config errors that name the file, not
        # tracebacks with exit 1
        ini = tmp_path / "bad.ini"
        ini.write_bytes(text)
        code, _ = run(["pisot", "--config", str(ini)], tmp_path)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config file {ini}: ")
        assert message in captured.err
        assert "PASS" not in captured.out

    def test_directory_as_config_file_exits_2(self, tmp_path, capsys):
        # a directory was skipped without a word, and the run took the
        # defaults
        code, _ = run(["pisot", "--config", str(tmp_path)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config file {tmp_path}: "
            f"Is a directory\n")

    @pytest.mark.parametrize("under", [False, True])
    def test_outdir_that_is_not_a_directory_exits_2(self, tmp_path, capsys,
                                                    monkeypatch, under):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "sub" if under else blocker
        assert main(["pisot", "--outdir", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot make output directory "
                              f"{target}: ")
        monkeypatch.setenv("HOLDERFORMS_OUTDIR", str(target))
        assert main(["pisot"]) == 2
        assert str(target) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["inequality", "--sigma", "nan"],
        ["inequality", "--sigma", "inf"],
        ["decay", "--sigma", "nan"],
        ["decay", "--mu", "inf"],
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, argv):
        code, _ = run(argv, tmp_path)
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("ini,argv,message", [
        ("[mollify]\nepsilons = abc", ["mollify-check"], "'abc'"),
        ("[mollify]\nepsilons = 0.05 -0.1", ["mollify-check"], "-0.1"),
        ("[mollify]\nepsilons =", ["mollify-check"],
         "[mollify] epsilons: need at least one value"),
        ("[form]\nterms = 0", ["inequality"], "terms must be >= 1"),
        ("[disks]\nj_min = 5\nj_max = 3", ["inequality"], "j_max must be"),
        ("", ["decay", "--nu", "2"], "nu=2.0"),
        ("", ["decay", "--mu", "0.5"], "mu=0.5"),
        ("", ["criteria", "--matrix", "2 0 0 2"], "got 4"),
        # the empty product has determinant 1; no direction is missing
        ("", ["criteria", "--matrix", ""], "size 1 to 4, got shape (0, 0)"),
        ("", ["criteria", "--matrix", "1 1 0 1"], "stable and unstable"),
        ("", ["criteria", "--ell", "2"], "ell = 2"),
        ("", ["criteria", "--ell", "-1"], "ell must be >= 0, got -1"),
        ("", ["criteria", "--extra-center-dims", "-1"],
         "extra_center_dims must be >= 0, got -1"),
        ("", ["decay", "--k-max", "2"],
         "k = 0..2 gives 1 admissible step(s) and a rate needs two; "
         "pre-asymptotic k skipped: 0, 1"),
        ("", ["decay", "--k-max", "-1"],
         "k = 0..-1 gives 0 admissible step(s) and a rate needs two; "
         "pre-asymptotic k skipped: none"),
        ("[decay]\nk_min = -2", ["decay", "--k-max", "2"],
         "k = -2..2 gives 1 admissible step(s) and a rate needs two; "
         "pre-asymptotic k skipped: -2, -1, 0, 1"),
        ("[disks]\nj_min = -1\nj_max = 2", ["inequality"],
         "j = -1..2 at sigma = 0.5: need at least two scales with an "
         "unskipped square to fit a slope, got j = []"),
        ("[disks]\nj_min = 5\nj_max = 5", ["inequality"],
         "j = 5..5 at sigma = 0.5: need at least two scales with an "
         "unskipped square to fit a slope, got j = [5]"),
        # the mollify bounds' slack is the constant 1.05, not a key
        ("[common]\nslack = nan", ["mollify-check"],
         "unknown key 'slack' in section [common]"),
        ("", ["decay", "--mu", "1e7", "--nu", "0.3", "--k-max", "3"],
         "iterate k=2 at mu=10000000.0 reaches x = 1e+14, beyond the "
         "overflow guard 1e+12"),
        # mu ** k overflows a float while the strip count is chosen
        ("", ["decay", "--mu", "1e300", "--nu", "0.5", "--k-max", "3"],
         "step k=3 at mu=1e+300, nu=0.5 cannot be planned: OverflowError: "),
        # a small c1 makes k = -1 admissible, and no iterate has k < 0
        ("[decay]\nk_min = -1\nc1 = 0.001", ["decay"],
         "step k=-1 at mu=1.5, nu=0.4 cannot be planned: ValueError: k must "
         "be nonnegative"),
    ])
    def test_out_of_range_value_rejected(self, tmp_path, capsys, ini, argv,
                                         message):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini + "\n")
        code, _ = run(argv + ["--config", str(cfg)], tmp_path)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert message in captured.err
        assert "FAIL" not in captured.out

    def test_decay_at_small_sigma_runs(self, tmp_path, capsys):
        # no dyadic square of side 1/4 or less passes the smallness filter
        # at sigma = 0.05; decay's bound needs none, and its strips are cut
        # small enough for sigma
        code, outdir = run(["decay", "--sigma", "0.05"], tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS strip-smallness-k=5" in out
        assert out.endswith("all assertions passed\n")
        assert (outdir / "decay.csv").exists()

    def test_decay_too_many_strips_for_memory_exits_2(self, tmp_path, capsys,
                                                      monkeypatch):
        # mu = 1e6 plans 6e12 strips at k = 2; the allocation of their
        # measures fails (here by a stand-in, before any real attempt)
        empty = np.empty

        def bounded_empty(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) > 1e9:
                raise MemoryError(f"cannot allocate {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", bounded_empty)
        code, _ = run(["decay", "--mu", "1e6", "--nu", "0.3", "--k-max", "3"],
                      tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("config error: k = 2..2 plans 6000000000000 strips, "
                       "too many to hold in memory\n")

    def test_decay_other_memory_error_is_not_a_config_error(self, tmp_path,
                                                            monkeypatch):
        # only the guards' own errors mean a k range too large; a failure
        # inside a strip batch keeps its traceback
        def failing(alpha, corners):
            raise MemoryError("batch")

        monkeypatch.setattr(holderforms.decay, "polygon_boundary_integrals",
                            failing)
        with pytest.raises(MemoryError, match="batch"):
            run(["decay"], tmp_path)

    def test_decay_tiny_strip_width_ends_in_a_verdict(self, tmp_path,
                                                      capsys):
        # u_len = 1e-200: next to x = 0.05 1.5^k the strips' corners round
        # to one x, but the closed-form width u_len / N does not, so every
        # bound is positive and the run ends in PASS/FAIL lines
        ini = tmp_path / "c.ini"
        ini.write_text("[decay]\nu_len = 1e-200\n")
        code, outdir = run(["decay", "--config", str(ini)], tmp_path)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "FAIL strip-band-k=0 " in captured.out
        assert "FAIL decay-rate " in captured.out
        assert (outdir / "decay.csv").exists()

    def test_decay_zero_bound_exits_2(self, tmp_path, capsys):
        # u_len = 1e-320 and s_len = 1e-10 give a strip area that
        # underflows to 0, so the bound at k = 0 is 0: no rate can be fitted
        ini = tmp_path / "c.ini"
        ini.write_text("[decay]\nu_len = 1e-320\ns_len = 1e-10\n")
        code, _ = run(["decay", "--config", str(ini)], tmp_path)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: step k=0 ")
        assert "bound 0.0 is not positive and finite" in captured.err
        assert "FAIL" not in captured.out

    def test_mollify_kernel_too_large_for_memory_exits_2(self, tmp_path,
                                                         capsys, monkeypatch):
        # eps = 1e9 on 2048 nodes needs about 4e12 kernel taps; their
        # offsets fail to allocate (here by a stand-in, before any real
        # attempt)
        arange = np.arange

        def bounded_arange(*args, **kwargs):
            start, stop = (0, args[0]) if len(args) == 1 else args[:2]
            if stop - start > 1e9:
                raise MemoryError(f"cannot allocate {stop - start}")
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", bounded_arange)
        ini = tmp_path / "c.ini"
        ini.write_text("[mollify]\nepsilons = 0.05 1e9\n")
        code, _ = run(["mollify-check", "--config", str(ini)], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("config error: epsilon=1000000000.0 needs a kernel of "
                       "4093999999999 taps, too many to hold in memory\n")

    def test_mollify_other_memory_error_is_not_a_config_error(self, tmp_path,
                                                              monkeypatch):
        # only a kernel too large to build is a config error; a failure in
        # the convolution keeps its traceback
        def failing(*args, **kwargs):
            raise MemoryError("pad")

        monkeypatch.setattr(np, "pad", failing)
        with pytest.raises(MemoryError, match="pad"):
            run(["mollify-check"], tmp_path)

    @pytest.mark.parametrize("sub, csv", [("stokes-check", "stokes.csv"),
                                          ("decay", "decay.csv")])
    def test_form_base_and_terms_shape_the_form(self, tmp_path, capsys, sub,
                                                csv):
        # terms = 6 is decay's default, so only base can move its CSV
        cfg = tmp_path / "c.ini"
        cfg.write_text("[form]\nbase = 3\nterms = 6\n")
        code, a = run([sub], tmp_path, "a")
        assert code == 0
        code, b = run([sub, "--config", str(cfg)], tmp_path, "b")
        assert code == 0
        assert (a / csv).read_bytes() != (b / csv).read_bytes()

    def test_config_value_used_and_flag_overrides(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[common]\nseed = 9\n")
        code, a = run(["isoperimetric", "--config", str(ini)], tmp_path, "a")
        assert code == 0
        code, b = run(["isoperimetric", "--config", str(ini), "--seed", "9"],
                      tmp_path, "b")
        assert code == 0
        assert (a / "isoperimetric.csv").read_bytes() == \
            (b / "isoperimetric.csv").read_bytes()

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("HOLDERFORMS_OUTDIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["pisot"]) == 0
        assert (target / "pisot.csv").exists()
