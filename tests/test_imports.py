"""No module imports a name it never uses, no function goes unused, every
default is needed, and every annotation resolves.

No linter is configured for this project, so these scans stand in for one:
every name an `import` binds must appear as an `ast.Name` somewhere in the
same module (`planwright/__init__.py` is skipped because its imports are
re-exports), and every function defined in `src/planwright` must be
referenced there: a module-level or nested function as a name, an
attribute or an `__all__` entry, a method or property only as an
attribute. The functions only the benchmark's tracer patches are exempt;
the oracles the tests check the program against live in the tests. A
parameter default of a `src/planwright` function must be left out by some
call there, and set by another, or the parameter is needlessly settable;
the console-script entry point `cli.main(argv)` is exempt. `typing.get_type_hints` must resolve the
annotations of every class, method and function of the package.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

from test_bench_contract import load_tracing

ROOT = Path(__file__).resolve().parent.parent
# the console script calls `main()`; tests pass their own argv
ENTRY_POINT_DEFAULTS = {"main.argv"}


def _modules() -> list[Path]:
    src = sorted((ROOT / "src" / "planwright").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    return [p for p in src if p.name != "__init__.py"] + tests


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_unused_imports_detected():
    source = ("from __future__ import annotations\n"
              "import os, json as j\nfrom x import a, b as c\n"
              "import p.q\nprint(j, c.d, p)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: a"]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text())
             for p in _modules()}
    assert {k: v for k, v in found.items() if v} == {}


def unreferenced_functions(sources: list[str]) -> list[str]:
    """Functions defined in `sources`, dunder methods aside, that none of
    them references: a method (a function defined in a class body) only
    counts as referenced through an attribute, since a name of the same
    spelling is some other variable."""
    functions: set[str] = set()
    methods: set[str] = set()
    names: set[str] = set()
    attributes: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.add(node.name)
            elif isinstance(node, ast.ClassDef):
                methods.update(f.name for f in node.body
                               if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                names.update(e.value for e in node.value.elts)
    unreferenced = (functions - names - attributes) | (methods - attributes)
    return sorted(name for name in unreferenced if not name.startswith("__"))


def test_unreferenced_functions_detected():
    sources = ["def a(): pass\ndef b(): pass\nclass C:\n"
               "    def __init__(self): pass\n    def m(self): pass\n    def n(self): pass\n"
               "    @property\n    def p(self): pass\n",
               "__all__ = ['d']\ndef d(): pass\np = 1\nprint(b, C().m, p)\n"]
    assert unreferenced_functions(sources) == ["a", "n", "p"]


def test_no_unreferenced_functions():
    tracing = load_tracing()
    patched = {attr for _, attr, _, _, _ in tracing._patch_table(tracing.Tracer())}
    sources = [p.read_text() for p in sorted((ROOT / "src" / "planwright").glob("*.py"))]
    found = set(unreferenced_functions(sources)) - patched
    assert found == set()


def unneeded_defaults(sources: list[str]) -> tuple[list[str], list[str]]:
    """Defaulted parameters, as "function.parameter", that no call in
    `sources` leaves out, and those that no call sets. Calls match
    definitions by name; a call's arguments fill a method's parameters
    after `self`. A `*args` or `**kwargs` argument counts as setting every
    parameter it could fill."""
    defaulted: dict[str, list[tuple[str, int | None]]] = {}
    calls: list[ast.Call] = []
    for source in sources:
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            skip = 1 if id(node) in methods else 0
            first = len(positional) - len(a.defaults)
            params = defaulted.setdefault(node.name, [])
            params.extend((arg.arg, i - skip) for i, arg in enumerate(positional)
                          if i >= first)
            params.extend((arg.arg, None) for arg, default
                          in zip(a.kwonlyargs, a.kw_defaults) if default is not None)
    left_out: set[str] = set()
    set_by_call: set[str] = set()
    for call in calls:
        func = call.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        star = any(isinstance(arg, ast.Starred) for arg in call.args)
        n_pos = len(call.args)
        keywords = {k.arg for k in call.keywords}
        for param, index in defaulted.get(name, ()):
            filled = (None in keywords or param in keywords
                      or index is not None and (star or index < n_pos))
            (set_by_call if filled else left_out).add(f"{name}.{param}")
    every = {f"{name}.{param}" for name, params in defaulted.items()
             for param, _ in params}
    return sorted(every - left_out), sorted(every - set_by_call)


def test_unneeded_defaults_detected():
    sources = ["def f(a, b=1, *, c=2, d=3): pass\n"
               "def g(x=0): pass\ndef h(y=0): pass\n"
               "class C:\n    def m(self, k=0): pass\n",
               "f(1, d=4)\nf(1, 2, **kw)\ng(*xs)\nh()\nC().m()\nC().m(1)\n"
               "f = lambda z=0: z\n"]
    assert unneeded_defaults(sources) == (["f.d", "g.x"], ["h.y"])


def test_defaults_are_used():
    sources = [p.read_text() for p in sorted((ROOT / "src" / "planwright").glob("*.py"))]
    never_left_out, never_set = unneeded_defaults(sources)
    assert set(never_left_out) - ENTRY_POINT_DEFAULTS == set()
    assert set(never_set) - ENTRY_POINT_DEFAULTS == set()


def annotated_objects():
    """(qualified name, object) of every class, method, property getter and
    function that `src/planwright` defines."""
    for path in sorted((ROOT / "src" / "planwright").glob("*.py")):
        name = "planwright" if path.stem == "__init__" else f"planwright.{path.stem}"
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != name:
                continue
            if inspect.isclass(obj):
                yield obj.__qualname__, obj
                for attr in vars(obj).values():
                    attr = getattr(attr, "fget", getattr(attr, "__func__", attr))
                    if inspect.isfunction(attr):
                        yield attr.__qualname__, attr
            elif inspect.isfunction(obj):
                yield obj.__qualname__, obj


def test_type_hints_resolve():
    unresolved = []
    for qualname, obj in annotated_objects():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{qualname}: {exc}")
    assert unresolved == []
