"""Every name a module of the package or of its tests imports is read
somewhere in that module: an import nothing uses is dead code that still
costs a load, and the command line loads neither ``dataclasses`` nor
``inspect``. Every function and class the package defines is named
somewhere besides its own definition, in the package or in the benchmark
that drives it, and every attribute a package class stores on ``self`` is
read there too, as is every parameter of a public function or method.
Every function the benchmark's tracer wraps still exists, and a run under
that tracer writes the same event log as one without it."""

import ast
import builtins
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
import tokenize
from collections import Counter

import pytest

import adhoc_sim
from adhoc_sim import cli

TESTS = os.path.dirname(__file__)
PACKAGE = os.path.join(TESTS, os.pardir, "src", "adhoc_sim")
PERFBENCH = os.path.join(TESTS, os.pardir, "perfbench")
# test id -> path; the package's modules keep their bare file names as ids
SOURCES = {f: os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f.endswith(".py")}
SOURCES.update(
    (f"tests/{f}", os.path.join(TESTS, f)) for f in os.listdir(TESTS) if f.endswith(".py")
)


def _imported(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _read(tree):
    """Names the module loads, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _read(ast.parse(sub.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_unused_imports(module):
    with open(SOURCES[module], encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    read = _read(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in read]
    assert not unused, f"{module} imports names it never reads: {', '.join(unused)}"


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """``dataclasses`` imports ``inspect``, which pulls in ``ast``, ``dis``
    and ``tokenize``: about 1.1 MB of a run's peak RSS that no record of
    the package needs. A fresh interpreter (without ``site``, whose path
    hooks may import anything) loads the command line and checks."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(adhoc_sim.__file__)))
    probe = "import sys, adhoc_sim.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_reports_an_unused_import():
    tree = ast.parse(
        "from typing import Optional, Callable\n"
        "import os.path\n"
        "def f(x: 'Callable[[], int]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    read = _read(tree)
    assert [name for name, _ in _imported(tree) if name not in read] == ["Optional"]


def _sources(directory):
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out.append(fh.read())
    return out


def _names(text):
    """The Python name tokens of a source: words inside strings and comments
    do not count. Before Python 3.12 an f-string is one string token, so a
    name used only in its replacement fields does not count either."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return [tok.string for tok in tokens if tok.type == tokenize.NAME]


def dead_definitions(package, readers):
    """Non-dunder functions and classes defined in the `package` sources
    whose name occurs as a name token in `package` and `readers` only as
    often as it is defined."""
    defined = Counter(
        node.name
        for text in package
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    words = Counter(name for text in package + readers for name in _names(text))
    return sorted(name for name, n in defined.items() if words[name] <= n)


def test_no_dead_definitions():
    dead = dead_definitions(_sources(PACKAGE), _sources(PERFBENCH))
    assert not dead, f"defined in adhoc_sim but never named elsewhere: {', '.join(dead)}"


def test_reports_a_dead_definition():
    package = [
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.v = helper()\n"
        "    def unused(self):\n"
        "        return self.v\n"
        "def helper():\n"
        "    return 1\n"
        "def read_by_benchmark():\n"
        "    return Box()\n"
        "def tagged():\n"
        "    return 2\n"
        "KINDS = ('tagged',)  # tagged is named only in a string and a comment\n",
    ]
    readers = ["from m import read_by_benchmark\n"]
    assert dead_definitions(package, readers) == ["tagged", "unused"]


def _exception_classes(trees):
    """Names of the classes in `trees` that derive from a built-in exception,
    directly or through another class there."""
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name, seen=()):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return name not in seen and any(
            is_exception(base, seen + (name,)) for base in bases.get(name, ())
        )

    return {name for name in bases if is_exception(name)}


def unread_attributes(package, readers):
    """``Class.name`` for each attribute that a non-exception class of the
    `package` sources stores on ``self`` and that no attribute load in
    `package` or `readers` reads, nor a ``getattr(obj, "name")`` in
    `readers`. An augmented assignment such as ``self.n += 1`` is a store."""
    package_trees = [ast.parse(text) for text in package]
    reader_trees = [ast.parse(text) for text in readers]
    read = set()
    for tree in package_trees + reader_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    for tree in reader_trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    exempt = _exception_classes(package_trees)
    unread = set()
    for tree in package_trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name in exempt:
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and node.attr not in read):
                    unread.add(f"{cls.name}.{node.attr}")
    return sorted(unread)


def test_no_unread_attributes():
    unread = unread_attributes(_sources(PACKAGE), _sources(PERFBENCH))
    assert not unread, f"stored by adhoc_sim but never read: {', '.join(unread)}"


def test_reports_an_unread_attribute():
    package = [
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.kept = 1\n"
        "        self.counted = 0\n"
        "        self.planted = 2\n"
        "        self.probed = 3\n"
        "    def bump(self):\n"
        "        self.counted += 1\n"
        "        return self.kept\n"
        "class Failure(ValueError):\n"
        "    pass\n"
        "class Abort(Failure):\n"
        "    def __init__(self, at):\n"
        "        self.at = at\n",
    ]
    readers = ["def probe(box):\n    return getattr(box, 'probed')\n"]
    assert unread_attributes(package, readers) == ["Box.counted", "Box.planted"]


def unread_parameters(package):
    """``Owner.function parameter`` for each parameter, ``self`` and ``cls``
    aside, that a module-level function or a method of a module-level class
    in the `package` sources never loads in its body. Functions whose name
    starts with an underscore are exempt, dunders aside: a private handler
    keeps the signature its caller fixes. Nested closures are exempt too,
    but a name they load counts as read by the function around them."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unread = []
    for text in package:
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                owned = [(f"{node.name}.", fn) for fn in node.body if isinstance(fn, functions)]
            elif isinstance(node, functions):
                owned = [("", node)]
            else:
                continue
            for prefix, fn in owned:
                if fn.name.startswith("_") and not fn.name.endswith("__"):
                    continue
                read = {sub.id for stmt in fn.body for sub in ast.walk(stmt)
                        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
                args = fn.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                unread += [f"{prefix}{fn.name} {a.arg}" for a in params
                           if a.arg not in ("self", "cls") and a.arg not in read]
    return sorted(unread)


def test_no_unread_parameters():
    unread = unread_parameters(_sources(PACKAGE))
    assert not unread, f"parameters adhoc_sim never reads: {', '.join(unread)}"


def test_reports_an_unread_parameter():
    package = [
        "def used(a, *rest, key=None, **extra):\n"
        "    return a, rest, key, extra\n"
        "def planted(a, b):\n"
        "    def inner(unused):\n"
        "        return a\n"
        "    return inner\n"
        "class Box:\n"
        "    def __init__(self, size, colour):\n"
        "        self.size = size\n"
        "    @classmethod\n"
        "    def make(cls, t):\n"
        "        return cls(1, 2)\n"
        "    def _on_event(self, event, reason):\n"
        "        return None\n",
    ]
    assert unread_parameters(package) == ["Box.__init__ colour", "Box.make t", "planted b"]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unresolved_spans(spans, package="adhoc_sim"):
    """Names of the spans whose function the benchmark's tracer would not
    find: it follows the attribute path with getattr and takes the last
    name from its owner's ``vars()``. A missing span reads as never called."""
    missing = []
    for name, module_name, path in spans:
        owner = importlib.import_module(f"{package}.{module_name}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(name)
    return missing


def test_layer_spans_resolve():
    tracing = _load_tracing()
    assert unresolved_spans(tracing.LAYER_SPANS) == []
    spans = {name for name, _module, _path in tracing.LAYER_SPANS}
    assert sorted(set(tracing.RESULT_COUNTERS) - spans) == []


def _events_sha256(out_dir):
    with open(os.path.join(out_dir, "events.ndjson"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_traced_run_writes_the_untraced_log(tmp_path):
    """The tracer's wrappers see every reply a round decides on and every
    merged read. Between them, the two goldens call each span whose result
    feeds a counter, so every counter is computed from a real result."""
    tracing = _load_tracing()
    called = Counter()
    for name in ("kv_churn_crash", "mixed"):
        doc = os.path.join(TESTS, "golden", f"{name}.json")
        plain, traced = str(tmp_path / f"{name}-plain"), str(tmp_path / f"{name}-traced")
        assert cli.main(["run", "--scenario", doc, "--out", plain, "--events"]) == 0
        tracer = tracing.Tracer()
        tracer.install(tracing.LAYER_SPANS)
        try:
            code = cli.main(["run", "--scenario", doc, "--out", traced, "--events"])
        finally:
            tracer.uninstall()
        assert code == 0 and tracer.missing == []
        assert _events_sha256(traced) == _events_sha256(plain)
        assert tracer.counters["network.rounds_quorate"] > 0
        assert tracer.counters["engines.read_repairs"] > 0
        called.update({span: tracer.calls[span] for span in tracing.RESULT_COUNTERS})
    assert [span for span in tracing.RESULT_COUNTERS if not called[span]] == []


def test_reports_an_unresolved_span():
    spans = (
        ("engines.submit_task", "engines", "ComputeService.submit_task"),
        ("engines.planted", "engines", "ComputeService.no_such_method"),
        ("engines.planted_owner", "engines", "NoSuchClass.submit_task"),
        ("engines.planted_function", "engines", "no_such_function"),
    )
    assert unresolved_spans(spans) == [
        "engines.planted", "engines.planted_owner", "engines.planted_function",
    ]
