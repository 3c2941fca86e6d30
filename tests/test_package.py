"""The package namespace, and the names the benchmark's tracer hooks."""

import ast
import subprocess
import sys
from pathlib import Path

import lindosc
from lindosc import (
    classicality,
    config_io,
    decoherence,
    fpe,
    model,
    propagate,
    states,
    sweep,
)

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = (model, propagate, states, classicality, decoherence, fpe, config_io, sweep)


def test_package_exports_the_union_of_the_module_names():
    union = [name for module in LIBRARY for name in module.__all__]
    assert lindosc.__all__ == sorted(set(union))
    assert len(union) == len(set(union))  # no name is public in two modules
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(lindosc, name) is getattr(module, name), name


def test_tracer_hooks_find_every_name_they_patch():
    # perfbench/tracer.py looks lindosc's functions up by name: a renamed
    # or moved one fails its install
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; import lindosc.cli, tracer; "
        "tracer.install('x')"
    )
    argv = [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cli_imports_no_private_library_name():
    # the CLI calls the library through its public names only; a private
    # import means library code the CLI should not need
    tree = ast.parse((ROOT / "src" / "lindosc" / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "lindosc")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_fpe_takes_only_the_span_rule_from_propagate():
    # the grid solver is an oracle for the exact route: of propagate it may
    # share the rule for a time span, not a formula
    tree = ast.parse((ROOT / "src" / "lindosc" / "fpe.py").read_text(encoding="utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.module in ("propagate", "lindosc.propagate"):
                taken += names
            elif "propagate" in names:  # the module itself
                taken.append("propagate")
        elif isinstance(node, ast.Import):
            taken += [a.name for a in node.names if a.name.startswith("lindosc.propagate")]
    assert taken == ["whole_steps"]
