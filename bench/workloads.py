"""The three workloads: their inputs, one op each, and the op's check.

Each workload yields rounds of ops.  A round has a fixed make-up (the same
slots in every round, in seeded order, with seeded coefficients), so a run
of any length has the same class shares, and the 50th and 90th percentile
ranks fall in the middle of a slot's share rather than on the edge between
a cheap and a heavy class: with 25 slots (15 on cli-batch) they sit at
slot 13 and slot 23 (8 and 14) of the sorted round.

amoh is imported lazily, after the set-up probes and after the bytecode
cache is warm; the checks never call amoh.
"""

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import checks
import gen
import qpoly

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLI_ENTRY = os.path.join(BENCH_DIR, "cli_entry.py")


def z(k, c=1):
    return qpoly.monomial(k, c)


def _p(*coeffs):
    return [Fraction(c) for c in coeffs]


# Curves of member-certify and cli-batch.  `gaps` lists the degrees that
# the benchmark knows are gaps of the degree semigroup, each for a reason
# that does not use amoh:
# * (z^a, z^b) with gcd(a, b) = 1: the gaps of <a, b>, computed here;
# * deg f and deg g fail divisibility both ways: by the Abhyankar-Moh
#   theorem the curve is no line, so z is not in k[f, g] and no element has
#   degree 1, so 1 is a gap.
# An embedded line has no gaps: every u is a member.
def _curves():
    curves = {
        # embedded line: z = g - f^2 + f + 1; large certificates
        "line": (_p(-2, 0, 1), _p(5, 1, -5, 0, 1), ()),
        # completion adjoins an element of degree 25
        "t12-18": (qpoly.add(z(12), z(1)), qpoly.add(z(18), z(2)), (1,)),
        "e4-6": (_p(0, 2, 0, 1, 1), _p(0, 1, 1, 0, 0, 0, 1), (1,)),
    }
    for a, b in ((5, 7), (4, 9), (3, 8)):
        curves[f"m{a}-{b}"] = (z(a), z(b), tuple(qpoly.semigroup_gaps((a, b))))
    for name, (f, g, gaps) in curves.items():
        m, n = qpoly.deg(f), qpoly.deg(g)
        if gaps == (1,) and not (m % n and n % m):
            raise ValueError(f"gap 1 of {name} needs degrees that fail divisibility")
    return curves


CURVES = _curves()
POINTS = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))


def _query(rng, curve, weight, member):
    """(u, k): u = P(f, g) for a random P of weight <= weight, plus
    c * z^k for a known gap k when member is False (k is None then)."""
    f, g, gaps = CURVES[curve]
    terms = gen.rand_bivar(rng, qpoly.deg(f), qpoly.deg(g), weight)
    u = qpoly.bivar_poly(terms, f, g)
    if member:
        return u, None
    k = rng.choice(gaps)
    return qpoly.add(u, z(k, Fraction(gen.nonzero(rng), rng.choice((1, 2, 5))))), k


class Op:
    """One op: its kind and inputs, then its result and raw CPU seconds.
    Each workload's run(op) fills these in and returns the seconds."""

    __slots__ = ("kind", "data", "result", "seconds", "rss_kb")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data


# ---------------------------------------------------------------------------

class LineSurvey:
    """Each op is is_line(f, g) on a curve not seen earlier in the run."""

    name = "line-survey"
    kernel = "resident"  # reference kernel of run.py that scales its times
    # Degrees of the triangular moves that build each line (see
    # gen.make_line): a shape (a, b, c) gives a curve of degrees
    # (a*b, a*b*c), at most 30.
    LINES = ((2, 3), (3, 2), (2, 2, 2), (4, 3), (2, 3, 4), (3, 3, 3), (5, 6), (2, 2, 7), (5,), (2, 5))
    COMPOSED = (((2, 2), 2), ((2, 3), 3), ((3, 3), 2), ((2, 5), 3), ((3, 2), 2))
    OBSTRUCTIONS = (
        ((3, 2), (2, 2)), ((2, 5), (2,)), ((4, 3), ()), ((3, 5), (2,)), ((5, 4), ()),
        ((2, 7), (2,)), ((3, 7), ()), ((4, 5), (2,)), ((3, 2), (2,)), ((4, 3), (2, 2)),
    )

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seen = set()

    def _fresh(self, make):
        while True:
            f, g = make()
            key = hash(gen.curve_key(f, g))
            if key not in self.seen and qpoly.deg(f) > 0 and qpoly.deg(g) > 0:
                self.seen.add(key)
                return f, g

    def round(self):
        rng = self.rng
        ops = []
        for shape in self.LINES:
            ops.append(Op("line", self._fresh(lambda: gen.make_line(rng, shape)) + (shape,)))
        for shape, e in self.COMPOSED:
            ops.append(Op("composed", self._fresh(lambda: gen.make_composed(rng, shape, e)) + (e,)))
        for base, disguise in self.OBSTRUCTIONS:
            ops.append(Op("obstruction", self._fresh(
                lambda: gen.make_obstruction(rng, base, disguise)) + (base,)))
        rng.shuffle(ops)
        return ops

    def prepare(self):
        pass

    def run(self, op):
        from amoh import Poly, line

        f, g = Poly(op.data[0]), Poly(op.data[1])
        t0 = time.thread_time()
        op.result = line.is_line(f, g)
        op.seconds = time.thread_time() - t0
        return op.seconds

    def check(self, op):
        f, g, extra = op.data
        if op.kind == "line":
            return checks.line(op.result, f, g, POINTS)
        if op.kind == "composed":
            return checks.composed(op.result, extra)
        return checks.obstruction(op.result)

    def terms(self, op):
        """Sizes of the certificates or inverses the op returned."""
        return [len(op.result.inverse.terms)] if op.kind == "line" else []


class MemberCertify:
    """Each op is is_member(u, f, g) on a curve whose basis was completed in
    set-up, then the user's check eval_bivariate(cert, f, g) == u."""

    name = "member-certify"
    kernel = "resident"
    # (curve, weight of P, member?)
    SLOTS = (
        [("line", w, True) for w in (8, 11, 14, 17, 20)]
        + [(c, w, m) for c in ("t12-18",) for w in (60, 100, 140) for m in (True, False)]
        + [(c, w, m) for c in ("m5-7", "m4-9") for w in (40, 80, 120) for m in (True, False)]
        + [("e4-6", 60, True), ("e4-6", 60, False)]
    )
    SETUP_CURVES = ("line", "t12-18", "e4-6", "m5-7", "m4-9")

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.polys = {}

    def round(self):
        ops = []
        for curve, weight, member in self.SLOTS:
            u, k = _query(self.rng, curve, weight, member)
            ops.append(Op("member" if member else "non-member", (curve, u, k)))
        self.rng.shuffle(ops)
        return ops

    def prepare(self):
        self.polys = complete_bases(self.SETUP_CURVES)

    def run(self, op):
        from amoh import Poly, field_poly, subalgebra

        curve, u, _ = op.data
        f, g = self.polys[curve]
        up = Poly(u)
        t0 = time.thread_time()
        res = subalgebra.is_member(up, f, g)
        same = field_poly.eval_bivariate(res.certificate, f, g) == up if res.member else None
        op.seconds = time.thread_time() - t0
        op.result = (res, same)
        return op.seconds

    def check(self, op):
        curve, u, k = op.data
        f, g, _ = CURVES[curve]
        res, same = op.result
        if op.kind == "member":
            if not res.member:
                return "member rejected"
            if not same:
                return "certificate does not evaluate to u"
            cert = [(i, j, c) for (i, j), c in res.certificate.terms.items()]
            return checks.member(True, cert, u, f, g, POINTS[:1])
        return checks.non_member(res.member, res.obstruction_degree, k)

    def terms(self, op):
        res, _ = op.result
        return [len(res.certificate.terms)] if res.member else []


def complete_bases(curves):
    """Poly pairs of the named curves, with their bases completed (and held
    in amoh's completion cache)."""
    from amoh import Poly, subalgebra

    polys = {}
    for name in curves:
        f, g, _ = CURVES[name]
        polys[name] = (Poly(f), Poly(g))
        subalgebra.sagbi_basis(*polys[name])
    return polys


class CliBatch:
    """Each op is one `amoh member --u - --json` invocation on one curve,
    with a few query lines piped in and the output read to exit."""

    name = "cli-batch"
    kernel = "scattered"
    # (curve, [(weight, member?), ...]) per invocation
    SLOTS = (
        ("m5-7", ((30, True), (60, True))),
        ("m5-7", ((90, True),)),
        ("m5-7", ((50, False),)),
        ("m5-7", ((120, True),)),
        ("m3-8", ((30, True), (30, False))),
        ("m3-8", ((80, True),)),
        ("m3-8", ((100, True),)),
        ("e4-6", ((40, True),)),
        ("e4-6", ((70, True), (60, False))),
        ("e4-6", ((100, True),)),
        ("t12-18", ((60, True),)),
        ("t12-18", ((100, True),)),
        ("m4-9", ((60, True),)),
        ("m4-9", ((90, False),)),
        ("m4-9", ((200, True),)),
    )

    def __init__(self, seed, env=None, in_process=False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.env = env
        self.in_process = in_process

    def round(self):
        ops = []
        for curve, queries in self.SLOTS:
            qs = []
            for weight, member in queries:
                u, k = _query(self.rng, curve, weight, member)
                qs.append((qpoly.render(u), u, k))
            ops.append(Op("invocation", (curve, qs)))
        self.rng.shuffle(ops)
        return ops

    def prepare(self):
        pass

    @staticmethod
    def argv(curve):
        f, g, _ = CURVES[curve]
        return ["member", "--u", "-", "--f", qpoly.render(f), "--g", qpoly.render(g), "--json"]

    def run(self, op):
        curve, qs = op.data
        text = "".join(q[0] + "\n" for q in qs)
        if self.in_process:
            op.result, op.seconds = self._run_in_process(curve, text)
            op.rss_kb = None
        else:
            op.result, op.seconds, op.rss_kb = run_cli(self.argv(curve), text, self.env)
        if op.result[0] != 0:
            raise RuntimeError(f"amoh exited with status {op.result[0]}")
        return op.seconds

    def _run_in_process(self, curve, text):
        from amoh import cli, subalgebra

        # A fresh process starts with an empty completion cache.
        subalgebra._sagbi_cached.cache_clear()
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            t0 = time.thread_time()
            with redirect_stdout(out):
                status = cli.main(self.argv(curve))
            seconds = time.thread_time() - t0
        finally:
            sys.stdin = saved
        return (status, out.getvalue()), seconds

    def check(self, op):
        curve, qs = op.data
        f, g, _ = CURVES[curve]
        status, stdout = op.result
        return checks.cli_output(status, stdout, qs, f, g, POINTS[:2])

    def terms(self, op):
        return [len(json.loads(line).get("certificate") or ())
                for line in op.result[1].splitlines() if '"certificate"' in line]


def run_cli(argv, stdin_text, env):
    """Run the CLI once; ((status, stdout), cpu seconds, peak rss in kB) of
    the child, read from its own resource usage when it exits."""
    data = stdin_text.encode()
    # Written in one go before reading: a child blocked on a full stdout
    # pipe while the parent still writes would deadlock.
    if len(data) >= 60_000:
        raise ValueError("query batch larger than a pipe buffer")
    proc = subprocess.Popen(
        [sys.executable, CLI_ENTRY, *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        proc.stdin.write(data)
        proc.stdin.close()
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    if err:
        sys.stderr.write(err.decode(errors="replace"))
    return (proc.returncode, out.decode()), usage.ru_utime + usage.ru_stime, usage.ru_maxrss


WORKLOADS = {cls.name: cls for cls in (LineSurvey, MemberCertify, CliBatch)}
