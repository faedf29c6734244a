"""The package surface the benchmark scripts rely on."""

import ast
import importlib
from pathlib import Path

import numpy as np

import kces
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.synth import make_sbm_benchmark

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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
