import ast
import importlib
import pkgutil
from pathlib import Path

import holderforms

# Public names that no code in the package reads yet: the epsilon sweep and
# its closed-form minimum wait for a CLI check of the paper's constant.
UNREAD_EXPORTS = {"inequality.eps_sweep", "inequality.closed_form_minimum"}


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
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(holderforms.__file__).parent.glob("*.py")}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    unread = {f"{mod}.{name}" for mod, tree in trees.items()
              for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
              for name in ast.literal_eval(node.value) if name not in read}
    assert unread == UNREAD_EXPORTS
