"""What the benchmark's span tracer (bench/spans.py) wraps in the library.

The tracer replaces every function in the `__all__` of a few modules, some
methods in their class `__dict__` and a few cli rendering functions, and it
finds amoh.cli in sys.modules right after `import amoh`.  A trim of the
library that removes one of these breaks the traced bench run, so the names
are read from the tracer itself and checked here.
"""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("short", spans.MODULES)
def test_all_names_resolve(short):
    mod = importlib.import_module("amoh." + short)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("modname, clsname, meth, name", spans.METHODS)
def test_wrapped_methods_are_defined_on_their_class(modname, clsname, meth, name):
    cls = getattr(importlib.import_module(modname), clsname)
    assert meth in cls.__dict__


def test_render_functions_exist():
    cli = importlib.import_module("amoh.cli")
    assert all(callable(getattr(cli, attr, None)) for attr in spans.RENDER)


def test_import_amoh_loads_cli():
    code = "import json, sys, amoh; print(json.dumps('amoh.cli' in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) is True
