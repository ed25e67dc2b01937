"""No module of the package imports a name it does not use or keeps a dead private one,
no class of it assigns a private instance attribute (``self._x``) that no module reads,
no function of it has a parameter it never reads,
only ``quadrature`` selects worst panels to bisect (``np.argpartition``),
no function of it calls ``zero_mode_integrals`` (the zero mode is the zeta = 0
row of ``mode_integrals``),
the README imports from ``lifshitz`` only names of ``lifshitz.__all__``, and importing
the package, building the CLI parser, loading a table or making a table-backed call
leaves scipy unloaded."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lifshitz"


def unused_imports(source: str) -> list:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math", "path"]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: list) -> list:
    """Module-level private functions, classes and constants no module reads.

    A read is an ``ast.Name`` in load context or an ``ast.Attribute``
    anywhere in ``sources``; dunder names such as ``__all__`` are skipped.
    """
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.endswith("__"))


def test_the_check_sees_an_unread_private_name():
    sources = ["def _dead():\n    pass\n\ndef _live():\n    pass\n\n"
               "class _Unused:\n    pass\n\n_STALE = 1\n_STALE = 2\n_READ = 3\n"
               "__all__ = []\npublic = _live\n",
               "import m\nprint(m._READ)\n"]
    assert unread_private_names(sources) == ["_STALE", "_Unused", "_dead"]


def test_no_unread_private_name():
    assert unread_private_names([p.read_text() for p in sorted(_PACKAGE.glob("*.py"))]) == []


def unread_private_attributes(sources: list) -> list:
    """Private instance attributes assigned as ``self._x`` that no module reads.

    A read is an ``ast.Attribute`` in load context, on any object,
    anywhere in ``sources``; dunder names are skipped.
    """
    assigned, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and getattr(node.value, "id", None) == "self"):
                assigned.add(node.attr)
    return sorted(name for name in assigned - read
                  if name.startswith("_") and not name.endswith("__"))


def test_the_check_sees_an_unread_private_attribute():
    source = "self._dead, self._live, self.public, other._x = 1, 2, 3, 4\nprint(self._live)\n"
    assert unread_private_attributes([source]) == ["_dead"]


def test_no_unread_private_attribute():
    assert unread_private_attributes([p.read_text() for p in sorted(_PACKAGE.glob("*.py"))]) == []


def unread_parameters(source: str, module: str) -> list:
    """``module.function: name`` for each parameter its function or lambda never reads.

    A read is an ``ast.Name`` in load context anywhere in the body, nested
    functions included; ``self``, ``cls`` and ``_``-prefixed names are skipped.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{module}.{getattr(node, 'name', '<lambda>')}: {p.arg}" for p in params
                      if p.arg not in read | {"self", "cls"} and not p.arg.startswith("_")]
    return sorted(found)


def test_the_check_sees_an_unread_parameter():
    source = ("def f(a, b, *args, c, _d, **kw):\n    return a + kw['x']\n\n"
              "class K:\n    def m(self, x):\n        def inner():\n            return x\n"
              "        return inner\n\n    @classmethod\n    def n(cls, y):\n        pass\n\n"
              "g = lambda u, v: u\n")
    assert unread_parameters(source, "m") == [
        "m.<lambda>: v", "m.f: args", "m.f: b", "m.f: c", "m.n: y"]


def test_no_unread_parameter():
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        found += unread_parameters(path.read_text(), path.stem)
    assert found == []


def modules_reading(sources: dict, attr: str) -> list:
    """Names of the modules in ``sources`` (name -> source) that read ``np.<attr>``."""
    return sorted(name for name, source in sources.items()
                  if any(isinstance(n, ast.Attribute) and n.attr == attr
                         and isinstance(n.value, ast.Name) and n.value.id == "np"
                         for n in ast.walk(ast.parse(source))))


def test_the_check_sees_a_second_worst_panel_selection():
    sources = {"a": "import numpy as np\nw = np.argpartition(e, -4)[-4:]\n",
               "b": "import numpy as np\nw = np.argsort(e)  # np.argpartition\n",
               "c": "import numpy as np\npick = np.argpartition\n"}
    assert modules_reading(sources, "argpartition") == ["a", "c"]


def test_one_bisection_loop():
    # np.argpartition picks the worst panels of quadrature._bisect_panels;
    # a second panel-bisection loop elsewhere would pick its own
    sources = {p.stem: p.read_text() for p in sorted(_PACKAGE.glob("*.py"))}
    assert modules_reading(sources, "argpartition") == ["quadrature"]


def functions_calling(sources: dict, name: str) -> list:
    """``module.function`` for each function in ``sources`` (module -> source)
    whose body, nested functions included, calls ``name`` or ``<obj>.name``."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, ast.Call) and name in (getattr(n.func, "id", None),
                                                         getattr(n.func, "attr", None))
                    for n in ast.walk(node)):
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_the_check_sees_a_call_to_zero_mode_integrals():
    sources = {"a": "def f(m):\n    return zero_mode_integrals(m, 1e-6)\n",
               "b": "def g(m):\n    def h(u):\n        return core.zero_mode_integrals(m, u)\n"
                    "    return h\n",
               "c": "def zero_mode_integrals(m):\n    return mode_integrals(m, 0.0)\n\n"
                    "def k():\n    return 'zero_mode_integrals()'\n"}
    assert functions_calling(sources, "zero_mode_integrals") == ["a.f", "b.g", "b.h"]


def test_no_function_calls_zero_mode_integrals():
    # the sum and the shifts take m = 0 as the zeta = 0 row of mode_integrals;
    # the wrapper stays for callers outside the package
    sources = {p.stem: p.read_text() for p in sorted(_PACKAGE.glob("*.py"))}
    assert functions_calling(sources, "zero_mode_integrals") == []


def readme_imports(text: str) -> list:
    """Names the python blocks of a README import with ``from lifshitz import``."""
    names = []
    for block in re.findall(r"```python\n(.*?)```", text, flags=re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "lifshitz":
                names.extend(a.name for a in node.names)
    return names


def test_the_check_sees_a_readme_import():
    text = ("```python\nfrom lifshitz import (GOLD,\n    pressure)\n```\n"
            "```sh\nfrom lifshitz import shell\n```\n"
            "```python\nfrom lifshitz.core import mode_integrals\nimport lifshitz\n```\n")
    assert readme_imports(text) == ["GOLD", "pressure"]


def test_readme_imports_only_public_names():
    import lifshitz

    names = readme_imports((_PACKAGE.parent.parent / "README.md").read_text())
    assert names and sorted(set(names) - set(lifshitz.__all__)) == []


# scipy.interpolate alone costs most of a second and about 50 MB at
# import, so no part of the package imports scipy, tables included
_SCIPY_PROBE = """
import sys
import lifshitz
import lifshitz.cli
lifshitz.cli.build_parser()
{after}
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def scipy_modules_after(after: str = "") -> str:
    """The scipy modules a fresh interpreter holds after the probe and ``after``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE.format(after=after)],
                          capture_output=True, text=True, env=env, check=True)
    return done.stdout.strip()


def test_the_probe_sees_scipy_once_it_is_imported():
    pytest.importorskip("scipy.interpolate")
    assert "'scipy.interpolate'" in scipy_modules_after("import scipy.interpolate")


def test_import_and_parser_leave_scipy_unloaded():
    assert scipy_modules_after() == "[]"


def test_a_table_and_a_table_backed_call_leave_scipy_unloaded():
    table = _PACKAGE.parent.parent / "perfbench" / "data" / "gold_drude_601.txt"
    call = ("from lifshitz import PlateSystem, pressure\n"
            "from lifshitz.dispersion import load_permittivity_table\n"
            f"table = load_permittivity_table({str(table)!r})\n"
            "assert table.zeta.size == 601\n"
            "pressure(PlateSystem(1e-6, 300.0, table))\n")
    assert scipy_modules_after(call) == "[]"
