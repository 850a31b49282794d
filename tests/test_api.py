import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import holderforms

PACKAGE = Path(holderforms.__file__).parent

# Public names that no code in the package reads.
UNREAD_EXPORTS = set()

# Public functions, methods and properties that no subcommand runs yet.
# The package has no curves: the curve quadrature that tests compare the
# exact polygon integrals against lives in ``tests/helpers.py``.
UNRUN_CALLABLES = {
    # the split's norm and its two bound checks, which no check line reads
    # yet (ROADMAP item 6)
    "inequality.SplitCheck.cnorm", "inequality.SplitCheck.bound_boundary",
    "inequality.SplitCheck.bound_interior",
    "inequality.SplitCheck.boundary_bound_holds",
    "inequality.SplitCheck.interior_bound_holds",
}

# Defaulted parameters that no call in the package sets: the command line
# of ``main``.
UNSET_DEFAULTS = {"cli.main.argv"}

# The seven subcommands at their defaults, and the two that draw plots.
RUNS = [[cmd] for cmd in ("mollify-check", "stokes-check", "inequality",
                          "isoperimetric", "criteria", "pisot", "decay")]
RUNS += [["inequality", "--svg"], ["decay", "--svg"]]


def package_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_exported_name_resolves():
    stale = []
    for info in pkgutil.iter_modules(holderforms.__path__):
        mod = importlib.import_module(f"holderforms.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                  if not hasattr(mod, name)]
    assert not stale


def test_every_exported_name_is_read_in_the_package():
    # a name counts as read where the package's code loads it, as a name or
    # an attribute; its definition, an import and ``__all__`` do not count,
    # so API that only tests use cannot land unnoticed
    trees = package_trees()
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    unread = {f"{mod}.{name}" for mod, tree in trees.items()
              for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
              for name in ast.literal_eval(node.value) if name not in read}
    assert unread == UNREAD_EXPORTS


def test_every_record_field_is_read_in_the_package():
    # a field of a NamedTuple counts as read where the package's code loads
    # an attribute of its name; unpacking a record does not count, so a
    # field that no code reads by name cannot stay stored unnoticed
    trees = package_trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = {f"{mod}.{node.name}.{field.target.id}"
              for mod, tree in trees.items() for node in tree.body
              if isinstance(node, ast.ClassDef)
              and any(getattr(b, "id", None) == "NamedTuple"
                      for b in node.bases)
              for field in node.body if isinstance(field, ast.AnnAssign)
              and field.target.id not in read}
    assert unread == set()


def public_callables():
    """``{(file name, first line): "module.[Class.]name"}`` of every public
    function, method and property of the package.  The line is the one
    its code object reports: that of its first decorator, if it has one."""
    found = {}
    for mod, tree in package_trees().items():
        scopes = [(tree.body, mod)] + [
            (node.body, f"{mod}.{node.name}") for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
        for body, prefix in scopes:
            for node in body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    line = min([node.lineno] + [d.lineno for d in
                                                node.decorator_list])
                    found[(f"{mod}.py", line)] = f"{prefix}.{node.name}"
    return found


# Runs RUNS in one fresh interpreter under a profiler and prints the
# (file name, first line) of every package function that was called.  A
# fresh interpreter, because the package's lru_caches would otherwise make
# what runs depend on what ran before in the test session.
RECORDER = """
import contextlib, io, json, os, sys
import holderforms.cli as cli
package = os.path.dirname(cli.__file__) + os.sep
runs, outdir = json.loads(sys.argv[1]), sys.argv[2]
called = set()

def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        called.add((os.path.basename(code.co_filename), code.co_firstlineno))

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    sys.setprofile(record)
    for argv in runs:
        codes.append(cli.main(argv + ["--outdir", outdir]))
    sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""


def test_every_public_callable_runs_in_a_subcommand(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", RECORDER, json.dumps(RUNS), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    assert result["codes"] == [0] * len(RUNS)
    called = {tuple(c) for c in result["called"]}
    unrun = {name for key, name in public_callables().items()
             if key not in called}
    assert unrun == UNRUN_CALLABLES


def parameter_setters():
    """The defaulted parameters of the package's functions and, for each
    parameter of every function, the values its calls in the package pass.

    Returns ``(defaulted, binds)``: ``defaulted`` is the set of keys
    ``"module.[Class.]function.parameter"``, and ``binds`` maps each key to
    the list of ``(value, scopes)`` its calls bind to it, ``scopes`` being
    the functions around the call, innermost first.  A call binds by
    keyword, by position (``self`` and ``cls`` not counted), or through
    ``*args`` or ``**kwargs``, which bind every parameter they may reach.
    A call is matched by its function's name to every function of that
    name; a call of a name no function has binds nothing.
    """
    defs = {}  # function name -> [(key prefix, params, positional)]
    defaulted = set()
    calls = []  # (call, scopes)

    def visit(node, prefix, scopes, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", scopes, True)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                if in_class and not static:
                    positional = positional[1:]
                key = f"{prefix}.{child.name}"
                params = positional + [p.arg for p in a.kwonlyargs]
                defs.setdefault(child.name, []).append(
                    (key, params, positional))
                with_default = (positional[len(positional)
                                           - len(a.defaults):]
                                + [p.arg for p, d in zip(a.kwonlyargs,
                                                         a.kw_defaults)
                                   if d is not None])
                defaulted.update(f"{key}.{p}" for p in with_default)
                visit(child, key, [(key, params)] + scopes, False)
            else:
                if isinstance(child, ast.Call):
                    calls.append((child, scopes))
                visit(child, prefix, scopes, in_class)

    for mod, tree in package_trees().items():
        visit(tree, mod, [], False)
    binds = {}
    for call, scopes in calls:
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        for key, params, positional in defs.get(name, []):
            bound = []
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    bound += [(p, arg.value) for p in positional[i:]]
                    break
                if i < len(positional):
                    bound.append((positional[i], arg))
            for kw in call.keywords:
                if kw.arg is None:
                    bound += [(p, kw.value) for p in params]
                elif kw.arg in params:
                    bound.append((kw.arg, kw.value))
            for p, value in bound:
                binds.setdefault(f"{key}.{p}", []).append((value, scopes))
    return defaulted, binds


def unset_defaults():
    """The defaulted parameters that no call in the package sets.

    A call sets a parameter when it passes a value there, unless that value
    is just a parameter of a function around the call, handed on, and that
    parameter is itself unset.  A required parameter counts as set when it
    is set at one of its calls, or when the package calls its function only
    by reference (a subcommand runner, a callback).  The parameters of
    ``UNSET_DEFAULTS`` are handed on as if set, so that their callees are
    judged by the calls that matter.
    """
    defaulted, binds = parameter_setters()
    called = {key.rsplit(".", 1)[0] for key in binds}

    def handed_on(value, scopes):
        if isinstance(value, ast.Name):
            for key, params in scopes:
                if value.id in params:
                    return f"{key}.{value.id}"
        return None

    def sets(value, scopes):
        source = handed_on(value, scopes)
        return source is None or source in is_set or source in UNSET_DEFAULTS

    is_set = {key for key in binds
              if key not in defaulted
              and key.rsplit(".", 1)[0] not in called}
    grew = True
    while grew:
        grew = False
        for key in set(binds) - is_set:
            if any(sets(*bind) for bind in binds[key]):
                is_set.add(key)
                grew = True
    return defaulted - is_set


def test_every_default_is_set_in_the_package():
    # "with one value in use, ask for a constant": a default that no call
    # in the package overrides is a constant with a parameter's surface
    assert unset_defaults() == UNSET_DEFAULTS
