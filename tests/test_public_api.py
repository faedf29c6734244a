"""The package surface the benchmark scripts rely on, and the imports
nothing reads."""

import ast
import importlib
from pathlib import Path

import numpy as np

import kces
import kces.cli
import kces.errors
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.synth import make_sbm_benchmark

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
SRC = ROOT / "src" / "kces"


def test_benchmark_imports_are_public():
    # a name the benchmark imports but the package no longer exports stops
    # every run of the benchmark at import time
    imported = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kces":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert any(module == "kces" for _, module, _ in imported)
    for script, module, name in imported:
        if module == "kces":
            assert name in kces.__all__, f"{script} imports {name} from kces"
        else:
            assert hasattr(importlib.import_module(module), name), f"{script} imports {name} from {module}"
    # the benchmark's pseudo-labels still name their encoding
    g = make_sbm_benchmark(seed=0, n=40)
    pseudo = kmeans_pseudo_labels(g, 2, 0)
    columns = encode_labels(pseudo, "one-hot").columns
    assert np.array_equal(columns, encode_labels(pseudo).columns)
    assert columns.shape == (40, 2) and (columns.sum(axis=1) == 1.0).all()


def test_one_error_class_per_exit_code(monkeypatch, capsys):
    # the library raises only the three families, each the CLI's exit code
    families = {kces.errors.InputError: 2, kces.errors.NumericError: 3, kces.errors.ConfigError: 4}
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("kces" if path.stem == "__init__" else f"kces.{path.stem}")
        defined[module.__name__] = [
            name
            for name, value in vars(module).items()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and not issubclass(value, Warning)
            and value.__module__ == module.__name__
        ]
    assert defined.pop("kces.errors") == ["KcesError", *(cls.__name__ for cls in families)]
    assert all(names == [] for names in defined.values()), defined
    for family, code in families.items():

        def fail(args, family=family):
            raise family("what failed")

        monkeypatch.setattr(kces.cli, "cmd_score", fail)
        assert kces.cli.main(["score", "--edges", "E", "--features", "F", "--out", "S"]) == code
        assert capsys.readouterr().err.endswith(": what failed\n")


def test_no_unused_module_imports():
    # a module-level import that nothing in its module reads
    unused = []
    for folder in ("src/kces", "tests", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = (alias.asname or alias.name).split(".")[0]
                        if name not in read:
                            unused.append(f"{folder}/{path.name}: {name}")
    assert unused == []


def test_no_unread_private_names():
    # a module-level _name of the package that no module of it reads, by
    # name, attribute or import, is dead code; so is a field of a private
    # dataclass that no module reads as an attribute
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "src/kces").glob("*.py"))]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
    assert private
    assert [name for name in private if name not in read] == []
    loaded = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (cls.name, stmt.target.id)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        and cls.name.startswith("_")
        and any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    assert fields
    assert [f"{cls}.{name}" for cls, name in fields if name not in loaded] == []


def test_no_unread_public_members():
    # the public twin of the test above: a public module-level function or
    # constant of the package, or a public method or dataclass field of
    # one of its classes, that neither the package, the benchmark scripts
    # nor the demos read by name or attribute serves the tests alone
    package = sorted((ROOT / "src/kces").glob("*.py"))
    readers = package + sorted(BENCHMARKS.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    members = []
    for path in package:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                members.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                members += [(path.stem, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, ast.ClassDef):
                dataclass = any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        members.append((node.name, stmt.name))
                    elif dataclass and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        members.append((node.name, stmt.target.id))
    public = [(owner, name) for owner, name in members if not name.startswith("_")]
    assert public
    assert [f"{owner}.{name}" for owner, name in public if name not in read] == []
