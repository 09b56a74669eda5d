"""Module boundaries of the oscigeo package, read from its source with ast."""

import ast
import re
from pathlib import Path

import oscigeo

PACKAGE = Path(oscigeo.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
TESTS = Path(__file__).parent


def _private_reaches(path: Path) -> list[str]:
    """Each _-prefixed name the module takes from a sibling oscigeo module.

    Covers ``from .m import _x`` (and ``from oscigeo.m import _x``) as well
    as ``m._x`` after ``from . import m``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module or ""
        if node.level == 0 and package.split(".")[0] != "oscigeo":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {package or '.'}")
            elif package in ("", "oscigeo") and alias.name in MODULES:
                siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
        ):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_private_names_cross_module_boundaries():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 10
    found = [hit for path in paths for hit in _private_reaches(path)]
    assert not found, found


def test_private_reach_detector_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "from .groups import _secret, rotate\n"
        "from oscigeo.scalar import _pgcd\n"
        "from . import floats\n"
        "from math import _private_ok\n"
        "x = floats._rotate\n"
        "y = rotate._not_a_module\n"
    )
    assert _private_reaches(probe) == [
        "probe.py:2 imports _secret from groups",
        "probe.py:3 imports _pgcd from oscigeo.scalar",
        "probe.py:6 reads floats._rotate",
    ]


def _unused_imports(path: Path) -> list[str]:
    """Each name an import binds in the file that no expression ever reads.

    ``import a.b`` binds ``a``; ``from m import x as y`` binds ``y``.  A read
    is any load of the bare name, annotations included; ``__future__``
    imports bind nothing.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.name}:{line} imports {name}" for line, name in sorted(bound) if name not in read]


def test_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(paths) >= 20
    found = [hit for path in paths for hit in _unused_imports(path)]
    assert not found, found


def test_unused_import_detector_sees_aliases_and_annotations(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json.decoder\n"
        "from math import pi as circle, tau\n"
        "from typing import IO\n"
        "def f(stream: IO[str]) -> None:\n"
        "    return json.decoder, pi, tau\n"
    )
    assert _unused_imports(probe) == [
        "probe.py:2 imports os",
        "probe.py:4 imports circle",
    ]


def _fractions_imports(path: Path) -> list[str]:
    """Each absolute import of the standard fractions module, in either form."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "fractions" for module in modules):
            found.append(f"{path.name}:{node.lineno} imports fractions")
    return found


def test_only_scalar_and_verify_import_fractions():
    # Scalar is the engine's one number: scalar.py reads Fractions at the input
    # boundary (coercion and __hash__), and verify.py draws its seeded random
    # inputs as Fractions; no other module needs the type
    paths = sorted(PACKAGE.glob("*.py"))
    found = [hit for path in paths if path.name not in ("scalar.py", "verify.py") for hit in _fractions_imports(path)]
    assert not found, found


def test_fractions_import_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os, fractions\n"
        "from fractions import Fraction as F\n"
        "from .fractions import Fraction\n"
        "import fractionsx\n"
        "def f():\n"
        "    import fractions as fr\n"
        "    return 'fractions'\n"
    )
    assert _fractions_imports(probe) == [
        "probe.py:2 imports fractions",
        "probe.py:3 imports fractions",
        "probe.py:7 imports fractions",
    ]


_REFINEMENT = ("_pi_scaled", "_pbounds")


def _refinement_reads(path: Path) -> list[str]:
    """Each read of _pi_scaled or _pbounds, by bare name or as an attribute,
    outside the body of _enclosures, with the def it sits in."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name in _REFINEMENT and owner != "_enclosures":
                found.append(f"{path.name}:{child.lineno} {owner} reads {name}")
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(tree, "<module>")
    return found


def test_only_enclosures_refines_pi():
    # one refinement loop: sign, floor and the float fallback stop it, none repeats it
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _refinement_reads(path)]
    assert not found, found


def test_refinement_read_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .scalar import _pbounds\n"
        "def _enclosures(n, lo):\n"
        "    yield _pbounds(n, lo, 2, 3), _pi_scaled(40)\n"
        "def sign(n):\n"
        "    lo, hi, scale = _pi_scaled(40)\n"
        "    return _pbounds(n, lo, hi, scale)\n"
        "class Scalar:\n"
        "    def floor(self):\n"
        "        return scalar._pi_scaled(80)\n"
        "bound = _pbounds\n"
        "def _pi_scaled(digits): pass\n"
    )
    assert _refinement_reads(probe) == [
        "probe.py:5 sign reads _pi_scaled",
        "probe.py:6 sign reads _pbounds",
        "probe.py:9 floor reads _pi_scaled",
        "probe.py:10 <module> reads _pbounds",
    ]


def _defined_names(tree: ast.Module) -> list[tuple[int, str, str]]:
    """Each def, class or assigned name at the top level of a module, and
    each method or property a top-level class defines, as (line, name, label)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.lineno, item.name, f"{node.name}.{item.name}")
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (name.lineno, name.id, name.id)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
    return found


def _references(tree: ast.Module) -> set[str]:
    """Every name the module reads, imports, reaches as an attribute or spells
    as a string; a def or class does not count as reading itself."""
    read = set()
    for statement in tree.body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(statement.name)
        read |= names
    return read


def _unreferenced_names(modules: list[Path], readers: list[Path], members: bool = True) -> list[str]:
    """Each top-level name of the modules, and with members each method or
    property of a top-level class, that no reader file refers to.

    Dunder names are exempt, since Python itself reads them.
    """
    read = set()
    for path in readers:
        read |= _references(ast.parse(path.read_text(), filename=str(path)))
    found = []
    for path in modules:
        for line, name, label in _defined_names(ast.parse(path.read_text(), filename=str(path))):
            if not members and label != name:
                continue
            if name not in read and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{line} defines {label}")
    return found


def test_no_unreferenced_top_level_names():
    modules = sorted(PACKAGE.glob("*.py"))
    readers = modules + sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "perfbench").glob("*.py"))
    assert len(readers) >= 25
    found = _unreferenced_names(modules, readers)
    assert not found, found


def test_unreferenced_name_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\n"
        "__version__ = '1'\n"
        "LIMIT, (LOW, HIGH) = 10, (0, 1)\n"
        "Pair: tuple = (LOW, 2)\n"
        "def orphan(n):\n"
        "    return orphan(n - 1) + math.gcd(n, LIMIT)\n"
        "def lazy(): pass\n"
        "class Used:\n"
        "    def __len__(self): return 0\n"
        "    def called(self): return self.left_behind\n"
        "    def left_behind(self): pass\n"
        "    @property\n"
        "    def view(self): pass\n"
    )
    user = tmp_path / "user.py"
    user.write_text("import probe\nprobe.Used().called()\nEXPORTS = ('lazy',)\n")
    assert _unreferenced_names([probe], [probe, user]) == [
        "probe.py:3 defines HIGH",
        "probe.py:4 defines Pair",
        "probe.py:5 defines orphan",
        "probe.py:13 defines Used.view",
    ]


def test_every_top_level_name_is_reached_from_the_package():
    # a command, a verify suite or _EXPORTS reaches each one; tests alone do not
    # count, and a method of an exported class stays API
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = _unreferenced_names(modules, modules, members=False)
    assert not found, found


def test_unreached_top_level_name_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "_EXPORTS = {'probe': ('Exported', 'exported')}\n"
        "__all__ = list(_EXPORTS)\n"
        "def exported(): pass\n"
        "def orphan(): pass\n"
        "def suite_one(rng): return helper(rng)\n"
        "def helper(rng): pass\n"
        "SUITES = {'one': suite_one}\n"
        "def __getattr__(name): return SUITES[name]\n"
        "class Exported:\n"
        "    def method(self): pass\n"
    )
    assert _unreferenced_names([probe], [probe], members=False) == ["probe.py:4 defines orphan"]
    assert _unreferenced_names([probe], [probe]) == [
        "probe.py:4 defines orphan",
        "probe.py:10 defines Exported.method",
    ]


def _unread_exports(package: Path, outside: list[Path], readme: str) -> list[str]:
    """Each name of the package's ``_EXPORTS`` that no module of the package
    reads outside the one that defines it, no file of ``outside`` reads, and
    no backtick span of the README names.

    ``__init__.py``, which lists every export, does not count as a reader.
    """
    init = ast.parse((package / "__init__.py").read_text())
    exports = next(
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets)
    )
    # a span opens and closes with the same run of backticks, so a fenced block is one span
    spans = re.findall(r"(`+)(.+?)\1", readme, re.S)
    documented = {name for _, span in spans for name in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", span)}
    readers = [(path.stem, path) for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    readers += [(None, path) for path in outside]
    reads = [(owner, _references(ast.parse(path.read_text(), filename=str(path)))) for owner, path in readers]
    found = []
    for module, names in exports.items():
        read = documented.union(*(seen for owner, seen in reads if owner != module))
        found += [f"{module}.{name}" for name in names if name not in read]
    return found


def test_every_export_is_read_elsewhere_or_documented():
    # an export that only its own module and the tests read is no API: it
    # must serve another module or perfbench, or be named in the README
    outside = sorted((TESTS.parent / "perfbench").glob("*.py"))
    assert len(outside) >= 5
    found = _unread_exports(PACKAGE, outside, (TESTS.parent / "README.md").read_text())
    assert not found, found


def test_unread_export_detector(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "_EXPORTS = {'a': ('read', 'self_read', 'documented', 'orphan'), 'b': ('benched',)}\n"
    )
    (package / "a.py").write_text(
        "def read(): pass\n"
        "def self_read(): return read()\n"
        "def documented(): pass\n"
        "def orphan(): return self_read()\n"
    )
    (package / "b.py").write_text("from .a import read\ndef benched(): return read()\n")
    bench = tmp_path / "bench.py"
    bench.write_text("from pkg import b\nb.benched()\n")
    readme = "```sh\npkg run\n```\n| `pkg.a` | `documented(x)`, and orphan without backticks |\n"
    assert _unread_exports(package, [bench], readme) == ["a.self_read", "a.orphan"]
    assert _unread_exports(package, [], readme) == ["a.self_read", "a.orphan", "b.benched"]


def _defaulted_parameters(tree: ast.Module) -> list[tuple[int, str, str, int | None]]:
    """Each parameter with a default of each def in the module, dunder methods
    aside, as (line, function, parameter, position): the position is its index
    among the arguments a call passes, after self or cls for a method, and
    None for a keyword-only parameter."""
    methods = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in methods else 0
        first = len(positional) - len(args.defaults)
        found += [
            (node.lineno, node.name, arg.arg, index - skip)
            for index, arg in enumerate(positional)
            if index >= first
        ]
        found += [
            (node.lineno, node.name, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return found


def _calls(tree: ast.Module) -> dict[str, list[tuple[float, set[str] | None]]]:
    """Per called name (``f(...)`` or ``x.f(...)``), each call's positional
    count and keyword names; a ``*args`` or ``**kwargs`` call counts as
    setting every parameter (count infinite, names None)."""
    found: dict[str, list] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        found.setdefault(name, []).append((
            float("inf") if starred else len(node.args),
            None if None in keywords else keywords,
        ))
    return found


def _unset_defaults(modules: list[Path], callers: list[Path]) -> list[str]:
    """Each defaulted parameter of a def in the modules that no call in the
    caller files sets, by keyword or by position: a knob nobody turns."""
    calls: dict[str, list] = {}
    for path in callers:
        for name, seen in _calls(ast.parse(path.read_text(), filename=str(path))).items():
            calls.setdefault(name, []).extend(seen)
    found = []
    for path in modules:
        for line, function, parameter, position in _defaulted_parameters(
            ast.parse(path.read_text(), filename=str(path))
        ):
            if not any(
                keywords is None or parameter in keywords or (position is not None and count > position)
                for count, keywords in calls.get(function, [])
            ):
                found.append(f"{path.name}:{line} {function} never sets {parameter}")
    return found


def test_every_default_is_set_by_some_call():
    modules = sorted(PACKAGE.glob("*.py"))
    callers = modules + sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "perfbench").glob("*.py"))
    assert len(callers) >= 25
    found = _unset_defaults(modules, callers)
    assert not found, found


def test_unset_default_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(a=0, b=1): pass\n"
        "def h(a=0): pass\n"
        "class K:\n"
        "    def __init__(self, x=0): pass\n"
        "    def m(self, p=0, q=1): pass\n"
        "    @staticmethod\n"
        "    def s(p=0, q=1): pass\n"
    )
    user = tmp_path / "user.py"
    user.write_text(
        "import probe\n"
        "probe.f(0, 1, d=5)\n"
        "g(*range(2))\n"
        "h(**{})\n"
        "K().m(0)\n"
        "K.s(0)\n"
    )
    assert _unset_defaults([probe], [probe, user]) == [
        "probe.py:1 f never sets c",
        "probe.py:1 f never sets e",
        "probe.py:6 m never sets q",
        "probe.py:8 s never sets q",
    ]
