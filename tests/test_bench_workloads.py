"""One round of each benchmark workload, run in process, passes its checks.

The workloads in bench/workloads.py call the library by name (`is_line`,
`is_member`, `eval_bivariate`, `.terms` of certificates and inverses,
`subalgebra._sagbi_cached.cache_clear`, `cli.main`) and check every output
with the benchmark's own arithmetic.  A change to the library that breaks
one of those names or outputs fails here, inside the test suite, rather
than only in a benchmark run.
"""

import importlib.util
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    # workloads.py imports its sibling modules (checks, gen, qpoly) by
    # name; no bytecode is written next to them
    sys.path.insert(0, str(BENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return module


workloads = _workloads()


def _instance(cls):
    if cls is workloads.CliBatch:
        return cls(1, in_process=True)
    return cls(1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_passes_its_checks(name):
    wl = _instance(workloads.WORKLOADS[name])
    wl.prepare()
    ops = wl.round()
    assert ops
    for op in ops:
        assert wl.run(op) >= 0
        assert wl.check(op) is None, (op.kind, wl.check(op))
        assert all(isinstance(n, int) and n >= 0 for n in wl.terms(op))
