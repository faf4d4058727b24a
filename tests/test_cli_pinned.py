"""Pinned output of the command line on a fixed set of invocations.

A sha256 over (argv, stdin, exit status, stdout) of every invocation below,
run in process: each subcommand in text and JSON on a set of curves and
plane maps, parse and domain errors, batch `member --u -` and
`gen-corpus`.  Any change in what the CLI prints or how it exits shows up
in the digest.  argparse help and usage text are left out, since they
differ between Python versions.
"""

import contextlib
import hashlib
import io
import json

from amoh.cli import corpus_pairs, main, render_poly

PINNED = "707a6016790d9ad02c965b6f62ff88e8af2c58d2b84037bc90fdfa93c4ea2762"

CURVES = [
    ("z^3", "z^6 + z^2"),
    ("z", "z^2"),
    ("z^2", "z^3"),
    ("z^4 + z^2", "z^6"),
    ("z + 1", "(z + 1)^3 - 2"),
    ("-z", "-2*z^2"),
    ("z^4", "z^6 + z"),
    ("z^2 + z", "(z^2 + z)^3 + z^2 + z"),
    ("1/2*z^3 - z", "z^2 + 3"),
    ("z^2 - 2", "z^4 - 5*z^2 + z + 5"),
    ("2", "z^3 + z"),
]
QUERIES = ("z", "z^2 + 1", "z^5", "-z^4 + 1/3", "0")
PLANE_MAPS = [
    ("x", "y + x^2"),
    ("x*y + 1", "y^2"),
    ("x + y^3", "y"),
    ("y", "x"),
    ("x^2 + y", "x*y"),
    ("1/2*x - y", "y^2 + x"),
]
ERRORS = [
    ["is-line", "--f", "2z", "--g", "z"],
    ["is-line", "--f", "z +", "--g", "z"],
    ["is-line", "--f", "z", "--g", "w + 1"],
    ["sagbi", "--f", "z + $", "--g", "z"],
    ["delta", "--f", "1/0", "--g", "z"],
    ["decompose", "--f", "(z + 1", "--g", "z"],
    ["prop22", "--f", "z^-2", "--g", "z"],
    ["strong-am", "--f", "z^99999", "--g", "z"],
    ["represent", "--degree", "3", "--f", "z^6000*z^6000", "--g", "z"],
    ["sagbi", "--f", "(2^4096)^4096", "--g", "z"],
    ["sagbi", "--f", "1" * 5000 + "*z", "--g", "z"],
    ["member", "--u", "2z", "--f", "z^2", "--g", "z^3"],
    ["member", "--u", "z", "--f", "z^2", "--g", "((z)"],
    ["jacobian-probe", "--f", "z", "--g", "y"],
    ["jacobian-probe", "--f", "(x^4096)^16", "--g", "y"],
    ["jacobian-probe", "--f", "x +", "--g", "y"],
    ["delta", "--f", "1", "--g", "2"],
    ["delta", "--f", "z", "--g", "3"],
    ["is-line", "--f", "0", "--g", "0"],
    ["member", "--u", "z", "--f", "1", "--g", "2"],
    ["sagbi", "--f", "1", "--g", "2"],
    ["decompose", "--f", "1", "--g", "z"],
    ["prop22", "--f", "2*z", "--g", "z^2"],
    ["prop22", "--f", "z^2", "--g", "1"],
    ["represent", "--degree", "-3", "--f", "z^2", "--g", "z^3"],
    ["represent", "--degree", "100000000000", "--f", "z^2", "--g", "z^3"],
    ["strong-am", "--a", "0", "--f", "z^3", "--g", "z^6 + z^2"],
    ["strong-am", "--a", "-1", "--f", "z^3", "--g", "z^6 + z^2"],
    ["strong-am", "--a", "9", "--f", "z^3", "--g", "z^6 + z^2"],
    ["strong-am", "--f", "1", "--g", "z"],
    ["jacobian-probe", "--f", "1", "--g", "2"],
]
BATCH_STDIN = (
    "z^5\n\nz\n2z\n-z^2\n  z^3  \nz^7 + z^2\n(z^2 + 1)^2\n",
    "z\nz +\n0\n1/2\n",
)


def _curves():
    # one of each kind, of degree at most 8, and a zero generator
    pairs = list(corpus_pairs(16, 2))
    picked = [pairs[i] for i in (0, 2, 4, 9, 13)]
    return CURVES + [(render_poly(f), render_poly(g)) for _, f, g in picked]


def _invocations():
    calls = []
    for f, g in _curves():
        base = ["--f", f, "--g", g]
        argvs = [[cmd, *base] for cmd in ("is-line", "sagbi", "delta", "decompose", "prop22")]
        argvs.append(["strong-am", *base])
        argvs += [["strong-am", "--a", str(a), *base] for a in (1, 2)]
        argvs += [["represent", "--degree", str(d), *base] for d in (1, 5, 12)]
        argvs += [["member", "--u", u, *base] for u in QUERIES + (f, g)]
        for argv in argvs:
            calls += [(argv, ""), (argv + ["--json"], "")]
    for f, g in PLANE_MAPS:
        argv = ["jacobian-probe", "--f", f, "--g", g]
        calls += [(argv, ""), (argv + ["--json"], "")]
    for argv in ERRORS:
        calls += [(argv, ""), (argv + ["--json"], "")]
    for f, g in CURVES[:4]:
        argv = ["member", "--u", "-", "--f", f, "--g", g]
        for stdin in BATCH_STDIN:
            calls += [(argv, stdin), (argv + ["--json"], stdin)]
    for count, seed in ((0, 0), (1, 0), (5, 1), (20, 2), (-1, 0)):
        calls.append((["gen-corpus", "--count", str(count), "--seed", str(seed)], ""))
    return calls


def _run(argv, stdin, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue()


def test_pinned_cli_digest(monkeypatch):
    digest = hashlib.sha256()
    for argv, stdin in _invocations():
        status, out = _run(argv, stdin, monkeypatch)
        digest.update(json.dumps([argv, stdin, status, out]).encode())
    assert digest.hexdigest() == PINNED
