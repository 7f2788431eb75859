"""Source hygiene: the package imports only the standard library and
numpy, every import in a package module is used, every module-level
private name is read somewhere in the package and no module reads
another's private names but the one sanctioned set, every public function,
class and method is read outside the unit tests, and every name the
benchmark's traced mode patches exists, the README names every
dataset format, no module but ``errors.py`` reads a file itself or
tells a JSON boolean from a number, and every command-line option is
read by its command.

No linter ships with the toolchain, so this check stands in for one.
``__init__.py`` is exempt from the unused-import check: its imports are
the package's re-exports.
"""
import argparse
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scribo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported by absolute imports that are neither the
    standard library nor numpy."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names - {"numpy"})


def test_checker_flags_only_the_foreign_imports():
    source = ("import os.path, numpy as np\nfrom scipy.signal import firwin\n"
              "from . import net\nfrom .errors import ScriboError\n"
              "def f():\n    import yaml\n")
    assert foreign_imports(source) == ["scipy", "yaml"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    # the package's one runtime dependency is numpy (pyproject.toml)
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_only_the_unused_import():
    source = "import os\nfrom a.b import c as d, e\nprint(d(os.sep))\n"
    assert unused_imports(source) == ["e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def module_privates(tree: ast.Module) -> set[str]:
    """Module-level ``_name`` functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if _is_private(n)}


def names_read(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_privates(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private name that no module
    of the package reads, by name, attribute or import."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return sorted(f"{mod}:{name}" for mod, tree in trees.items()
                  for name in module_privates(tree) - read)


def test_checker_flags_only_the_unread_privates():
    sources = {
        "a.py": "_K = 1\n_gone = 2\nclass _Old: pass\ndef _f(): return _K\n",
        "b.py": "from a import _f\nimport a\nprint(_f(), a._helper)\n",
        "c.py": "def _helper(): pass\n__all__ = []\n",
    }
    assert unread_privates(sources) == ["a.py:_Old", "a.py:_gone"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_privates(sources) == []


def foreign_privates(sources: dict[str, str]) -> list[str]:
    """``module: other._name`` for each private name that a module reads
    from another module of the package, by ``from .other import _name`` or
    as ``alias._name`` after ``from . import other as alias``."""
    found = []
    for mod, src in sources.items():
        tree = ast.parse(src)
        imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
        found += [f"{mod}: {n.module}.{a.name}" for n in imports if n.module
                  for a in n.names if _is_private(a.name)]
        aliases = {a.asname or a.name: a.name for n in imports if not n.module
                   for a in n.names}
        found += [f"{mod}: {aliases[n.value.id]}.{n.attr}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in aliases and _is_private(n.attr)]
    return sorted(found)


def test_checker_flags_only_the_foreign_privates():
    sources = {
        "a": "from .b import _f, g, __version__\nfrom . import c as cm, d\n"
             "import numpy as np\ndef _own(): pass\n"
             "_own(); cm._h(); cm.k(); d._j; np._x; self._y\n",
        "b": "from .a import own\nown._z\n",
    }
    assert foreign_privates(sources) == ["a: b._f", "a: c._h", "a: d._j"]


# corpus converts audio with the WAV reader of features (its encoding
# table, header parser and sample reader), so one module parses WAV files
SANCTIONED_PRIVATES = {"corpus.py: features._ENCODINGS", "corpus.py: features._open_wav",
                       "corpus.py: features._read_samples"}


def test_no_module_reads_another_modules_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert set(foreign_privates(sources)) - SANCTIONED_PRIVATES == set()


def public_definitions(tree: ast.Module) -> set[str]:
    """Module-level public functions and classes, and ``Class.method``
    for each public method of a module-level class."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {n for n in names if not n.rpartition(".")[2].startswith("_")}


def unread_publics(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module:name`` for each public definition of ``package`` that no
    module of ``package`` or ``readers`` reads by name or attribute."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    read = set().union(*map(names_read, trees.values()),
                       *(names_read(ast.parse(src)) for src in readers.values()))
    return sorted(f"{mod}:{name}" for mod, tree in trees.items()
                  for name in public_definitions(tree)
                  if name.rpartition(".")[2] not in read)


def test_checker_flags_only_the_unread_publics():
    package = {
        "a.py": "def used(): pass\ndef only_tests(): pass\n"
                "class Model:\n    def score(self): pass\n    def count(self): pass\n"
                "    def _own(self): pass\n    def __len__(self): return 0\n",
        "b.py": "from a import used\nclass _Helper:\n    def run(self): pass\n"
                "def main(): used().score()\n",
    }
    readers = {"bench.py": "import a\na.Model()\nmain()\n",
               "acceptance.py": "a.only_tests()\n"}
    assert unread_publics(package, readers) == ["a.py:Model.count", "b.py:_Helper.run"]
    assert unread_publics(package, {**readers, "more.py": "x.count(); y.run()\n"}) == []


def test_every_public_name_is_read_outside_the_unit_tests():
    # ROADMAP aim 2: no public function that only tests call; the
    # acceptance criteria and the benchmark count as callers.
    # __init__.py defines nothing and only re-exports, which is no read
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = {p.name: p.read_text(encoding="utf-8")
               for p in [*sorted((ROOT / "perfbench").glob("*.py")),
                         ROOT / "tests" / "test_acceptance.py"]}
    assert unread_publics(package, readers) == []


def trace_target_names(source: str) -> list[tuple[str, str]]:
    """(module name, attribute) pairs listed by ``trace_targets()``."""
    tree = ast.parse(source)
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "trace_targets"]
    (ret,) = [node for node in ast.walk(func) if isinstance(node, ast.Return)]
    return [(entry.elts[0].id, entry.elts[1].value) for entry in ret.value.elts]


def test_perfbench_trace_targets_exist():
    # perfbench/measure.py loads scipy, so it is read, not imported; a
    # name missing here makes every traced benchmark run fail
    from scribo import cli, net

    source = (ROOT / "perfbench" / "measure.py").read_text(encoding="utf-8")
    targets = trace_target_names(source)
    assert targets
    modules = {"cli": cli, "net": net}
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if mod not in modules or not hasattr(modules[mod], attr)]
    assert missing == []


def test_readme_lists_every_dataset_format():
    # a new reader is one table entry; the README's `corpus convert`
    # line must name it, and nothing the table lacks
    from scribo import corpus

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (listed,) = re.findall(r"# convert a dataset \(([^)]*) input\)", readme)
    assert sorted(re.split(r", | or ", listed)) == sorted(corpus._READERS)


def file_reads(source: str) -> list[int]:
    """Lines of the calls in ``source`` that read a file: ``open`` and any
    ``.open`` whose mode is missing or has none of w, a and x, and
    ``.read_text``, ``.read_bytes`` and ``json.load``. The mode of a
    module's ``open`` (``open``, ``wave.open``) is its second argument,
    that of an object's (``Path.open``) its first."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            of_object = isinstance(func, ast.Attribute) and not (
                isinstance(func.value, ast.Name) and func.value.id in modules)
            args = node.args[0 if of_object else 1:]
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        args[0] if args else None)
            writes = (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                      and set(mode.value) & set("wax"))
            if not writes:
                lines.append(node.lineno)
        elif isinstance(func, ast.Attribute) and (
                name in ("read_text", "read_bytes")
                or (name == "load" and isinstance(func.value, ast.Name)
                    and func.value.id == "json")):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_only_the_file_reads():
    source = ("import json, wave\nfrom pathlib import Path\n"
              "open(p)\nopen(p, 'rb')\nopen(p, mode='r')\nopen(p, 'w')\n"
              "open(p, mode='ab', encoding='utf-8')\nopen(p, m)\n"
              "wave.open(p)\nwave.open(p, 'rb')\nwave.open(str(p), 'wb')\n"
              "Path(p).open()\nPath(p).open('x')\np.open(encoding='utf-8')\n"
              "Path(p).read_text(encoding='utf-8')\np.read_bytes()\njson.load(fh)\n"
              "json.loads(s)\nread_text(p, E)\np.write_text(s)\njson.dump(x, fh)\n")
    assert file_reads(source) == [3, 4, 5, 8, 9, 10, 12, 14, 15, 16, 17]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_only_errors_reads_files(path):
    # every reader goes through errors.opened, read_text or read_json, so
    # a file that cannot be read is named in one form, written once
    source = path.read_text(encoding="utf-8")
    assert file_reads(source) == []
    assert "cannot read" not in source


def bool_checks(source: str) -> list[int]:
    """Lines of the ``isinstance`` calls in ``source`` whose class argument
    is ``bool`` or a tuple holding it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(n, ast.Name) and n.id == "bool" for n in names):
                lines.append(node.lineno)
    return lines


def test_checker_flags_only_the_bool_checks():
    source = ("isinstance(v, bool)\nisinstance(v, (int, bool))\nisinstance(v, int)\n"
              "type(v) is bool\nx = bool(v)\nisinstance(v, (int, float))\n")
    assert bool_checks(source) == [1, 2]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_only_errors_checks_json_types(path):
    # a config read from a file checks its fields through errors.check_fields,
    # so a mistyped value is refused by one rule, written once
    assert bool_checks(path.read_text(encoding="utf-8")) == []


def _param_reads(funcs: dict, name: str) -> set[str]:
    """The attributes that module function ``name`` reads from its first
    parameter, itself or through each module function it passes that
    parameter to, transitively."""
    reads, seen, todo = set(), {name}, [name]
    while todo:
        fn = funcs[todo.pop()]
        param = fn.args.args[0].arg
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == param:
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in funcs
                  and node.func.id not in seen
                  and any(getattr(a, "id", None) == param for a in node.args)):
                seen.add(node.func.id)
                todo.append(node.func.id)
    return reads


def _commands(parser: argparse.ArgumentParser):
    """(``func`` default, option dests) for each subcommand under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _commands(sub)
    func = parser.get_default("func")
    if func is not None:
        yield func, [a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def unread_options(parser: argparse.ArgumentParser, source: str) -> list[str]:
    """``function:dest`` for each option of a subcommand of ``parser`` that
    its ``set_defaults(func=...)`` function, defined in ``source``, does
    not read as ``args.<dest>``, itself or through a module function it
    passes ``args`` to."""
    funcs = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    return sorted(f"{func.__name__}:{dest}" for func, dests in _commands(parser)
                  for dest in set(dests) - _param_reads(funcs, func.__name__))


def test_checker_flags_only_the_unread_options():
    source = ("import argparse\n"
              "def _common(p):\n    p.add_argument('--verbose', action='store_true')\n"
              "def _level(args):\n    return args.verbose\n"
              "def cmd_a(args):\n    return args.name, args.src, _level(args)\n"
              "def cmd_b(args):\n    return args.name\n"
              "def _build_parser():\n    parser = argparse.ArgumentParser()\n"
              "    parser.add_argument('--json', action='store_true')\n"
              "    sub = parser.add_subparsers()\n"
              "    p = sub.add_parser('a')\n    p.add_argument('name')\n"
              "    p.add_argument('--in', dest='src')\n    _common(p)\n"
              "    p.set_defaults(func=cmd_a)\n"
              "    p = sub.add_parser('b')\n    p.add_argument('--name')\n"
              "    p.add_argument('-n', '--dry-run')\n    _common(p)\n"
              "    p.set_defaults(func=cmd_b)\n"
              "    return parser\n")
    namespace: dict = {}
    exec(source, namespace)
    assert unread_options(namespace["_build_parser"](), source) == \
        ["cmd_b:dry_run", "cmd_b:verbose"]


def test_every_cli_option_is_read():
    # an option its command never reads is a flag that changes nothing
    from scribo import cli

    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert unread_options(cli._build_parser(), source) == []
