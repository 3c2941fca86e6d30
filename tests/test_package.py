"""The package namespace, and the names the benchmark's tracer hooks."""

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
