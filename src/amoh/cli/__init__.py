"""Command-line front end: exact expression parsing, subcommands wrapping
the library operations, and stable text/JSON output.

Polynomials are written in z (curves) or x, y (planar maps), with integer
and rational literals, + - *, ^ with a nonnegative integer exponent, and
parentheses.  Multiplication is always explicit: 2*z^2, never 2z^2.  All
scalars serialize as exact rational strings.

Exit status: 0 when a result was computed, even a negative verdict;
1 on usage, parse, or domain errors; 2 when an internal cross-check
failed, which is a bug worth reporting.

`import amoh` loads this module for parse_poly and render_poly, so it
does only library work at import: the tokenizer's pattern compiles on the
first parse.  A command loads neither argparse nor json: _scan reads the
options from _COMMANDS as argparse did, with its error messages, and
_dumps writes what json.dumps would.  Usage errors and help therefore read
the same on every Python version.

`member --u -` decodes stdin one line at a time, so every line before an
undecodable one is answered before the error.  A stdout that cannot be
written (`> /dev/full`) ends the run with status 1 and one line on stderr,
`error: cannot write stdout: ...`.  The `amoh` command (run) ends its
process once its answers are flushed and the atexit handlers have run,
without tearing the interpreter down; main is the in-process API and
returns the status instead.
"""

from __future__ import annotations

import codecs
import math
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from ..decompose import common_parameter
from ..errors import (
    AmohError,
    InternalInconsistency,
    InternalLimitExceeded,
    NotInSemigroup,
    ParseError,
    PreconditionViolated,
)
from ..field_poly import BivarExpr, Poly, RatFunc, _combine
from ..jacobian import prop21_probe
from ..line import is_line, random_line_curve
from ..subalgebra import delta_sequence, is_member, sagbi_basis, semigroup_represent
from ..theorems import check_prop22, check_strong_am

__all__ = ["parse_poly", "render_poly", "main", "run"]

MAX_EXPONENT = 4096
MAX_DEGREE = 10_000
MAX_COEFF_BITS = 16_384
# Bound on the summed cost of the products and powers of one input: the
# predicted terms (one for a monomial, else degree + 1) times coefficient
# bits of each result, times x-degree + 1 for planar inputs, about the size
# in bits of the results.  The time to expand grows faster than linearly in
# it: powers of cost 3.9 to 4.2 million, (1+z)^2000 among them, took 0.26
# to 0.52 s of CPU on a 2-vCPU Xeon with CPython 3.11.7.
MAX_EXPAND_COST = 1 << 22
MAX_PAREN_DEPTH = 200


# ---------------------------------------------------------------------------
# expression parsing

# Only ASCII digits and letters: str.isdigit accepts characters like
# superscript two that int() then rejects.  Whitespace is what str.isspace
# accepts; any other character is a token of its own and an error.  re's
# own cache compiles the pattern on the first parse.
_TOKEN = r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()/])|(\S)"


def _tokenize(text: str):
    out = []
    for match in re.finditer(_TOKEN, text):
        num, name, sym, other = match.groups()
        i = match.start()
        if num:
            try:
                value = int(num)
            except ValueError:
                # more digits than int() converts (sys.get_int_max_str_digits)
                raise ParseError("number is too large", i) from None
            out.append(("num", value, i))
        elif name:
            out.append(("name", name, i))
        elif sym:
            out.append(("sym", sym, i))
        else:
            raise ParseError(
                f"unexpected character {other!r}", i, expected=("digit", "variable", "operator")
            )
    out.append(("end", "", len(text)))
    return out


class _Parser:
    """Recursive descent over the token list.  `atoms` maps variable names
    to their values; `const` lifts a Fraction into the target algebra.  The
    same grammar therefore serves polynomials in z over Q and plane maps,
    polynomials in y over RatFunc(x)."""

    def __init__(self, tokens, atoms, const):
        self.tokens = tokens
        self.pos = 0
        self.atoms = atoms
        self.const = const
        self.depth = 0
        self.cost = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect_sym(self, ch):
        kind, value, pos = self._peek()
        if kind != "sym" or value != ch:
            raise ParseError("unexpected token", pos, expected=(ch,))
        return self._take()

    @staticmethod
    def _size(value):
        """(degree, x-degree, numerator bits, denominator bits, monomial)
        of a value.

        The degree is in z (in y for a plane map); zero counts as degree 0.
        Write the value as integer numerators over one common denominator
        D: the bits are log2 of the numerators' absolute sum and log2 D.
        Each entry of a product is at most the sum of the factors'
        entries, and each entry of a power at most the exponent times the
        base's.  monomial says whether at most one coefficient (in y for
        a plane map) is nonzero."""
        deg = value.degree
        if value.field is Fraction:
            nums, den, xdeg = value.nums, value.den, 0
            terms = len(nums) - nums.count(0)
            norm = abs(nums[-1]) if terms == 1 else sum(map(abs, nums))
        else:
            polys = [c.num for c in value.nums]
            xdeg = max((p.degree for p in polys if p), default=0)
            terms = sum(1 for p in polys if p)
            den = math.lcm(*(p.den for p in polys))
            norm = sum(sum(map(abs, p.nums)) * (den // p.den) for p in polys)
        return (
            deg if isinstance(deg, int) else 0,
            xdeg,
            math.log2(norm) if norm else 0.0,
            math.log2(den),
            terms <= 1,
        )

    def _charge(self, deg, xdeg, num_bits, den_bits, monomial, pos):
        # Products and powers are checked on their predicted size before
        # they are computed, and their costs add up over the input.  Only a
        # monomial result is charged one term: a product whose shorter
        # factor has ten or more nonzero terms is computed on one dense
        # integer (field_poly._kronecker_mul), however sparse its factors.
        # A sum is no larger than its operands put together, so the length
        # of the input bounds it.
        if max(deg, xdeg) > MAX_DEGREE:
            raise ParseError("expression degree is too large", pos)
        bits = max(num_bits, den_bits)
        if bits > MAX_COEFF_BITS:
            raise ParseError("expression coefficients are too large", pos)
        self.cost += (1 if monomial else deg + 1) * (xdeg + 1) * max(bits, 1)
        if self.cost > MAX_EXPAND_COST:
            raise ParseError("expression is too costly to expand", pos)

    def parse(self):
        value = self.expr()
        kind, _, pos = self._peek()
        if kind != "end":
            raise ParseError("trailing input", pos, expected=("+", "-", "*", "^", "end"))
        return value

    def expr(self):
        kind, value, pos = self._peek()
        sign = 1
        if kind == "sym" and value == "-":
            self._take()
            sign = -1
        terms = [(sign, self.term())]
        kind, value, pos = self._peek()
        while kind == "sym" and value in "+-":
            self._take()
            terms.append((1 if value == "+" else -1, self.term()))
            kind, value, pos = self._peek()
        if len(terms) == 1 and sign == 1:
            return terms[0][1]
        # one accumulator for all the terms: linear in the size of the sum
        return _combine(terms, 1, terms[0][1].field)

    def term(self):
        acc = self.factor()
        while True:
            kind, value, pos = self._peek()
            if kind != "sym" or value != "*":
                return acc
            self._take()
            rhs = self.factor()
            (da, xa, na, ea, ma), (db, xb, nb, eb, mb) = self._size(acc), self._size(rhs)
            self._charge(da + db, xa + xb, na + nb, ea + eb, ma and mb, pos)
            acc = acc * rhs

    def factor(self):
        base = self.atom()
        kind, value, pos = self._peek()
        if kind != "sym" or value != "^":
            return base
        self._take()
        kind, value, pos = self._peek()
        if kind != "num":
            raise ParseError(
                "exponent must be a nonnegative integer", pos, expected=("integer",)
            )
        self._take()
        if value > MAX_EXPONENT:
            raise ParseError("exponent is too large", pos)
        deg, xdeg, num_bits, den_bits, monomial = self._size(base)
        self._charge(deg * value, xdeg * value, num_bits * value, den_bits * value, monomial, pos)
        return base**value

    def atom(self):
        kind, value, pos = self._take()
        if kind == "num":
            nk, nv, npos = self._peek()
            if nk == "sym" and nv == "/":
                self._take()
                dk, dv, dpos = self._peek()
                if dk != "num":
                    raise ParseError("denominator must be an integer", dpos, expected=("integer",))
                self._take()
                if dv == 0:
                    raise ParseError("zero denominator", dpos)
                return self.const(Fraction(value, dv))
            return self.const(Fraction(value))
        if kind == "name":
            got = self.atoms.get(value)
            if got is None:
                raise ParseError(
                    f"unknown variable {value!r}", pos, expected=tuple(sorted(self.atoms))
                )
            return got
        if kind == "sym" and value == "(":
            self.depth += 1
            if self.depth > MAX_PAREN_DEPTH:
                raise ParseError("parentheses nested too deeply", pos)
            inner = self.expr()
            self._expect_sym(")")
            self.depth -= 1
            return inner
        raise ParseError(
            "unexpected token", pos, expected=("number", "variable", "(", "-")
        )


def parse_poly(text: str, variable: str = "z") -> Poly:
    """Parse a univariate polynomial over Q in the named variable."""
    parser = _Parser(
        _tokenize(text),
        {variable: Poly.variable(Fraction)},
        lambda c: Poly.constant(c, Fraction),
    )
    return parser.parse()


def _parse_plane(text: str) -> Poly:
    """Parse a plane map in x and y, as a polynomial in y over RatFunc(x)."""
    parser = _Parser(
        _tokenize(text),
        {"x": Poly.constant(RatFunc.x(), RatFunc), "y": Poly.variable(RatFunc)},
        lambda c: Poly.constant(c, RatFunc),
    )
    return parser.parse()


# ---------------------------------------------------------------------------
# rendering

def _signed_sum(terms) -> str:
    """'c*m - c*m + ...' from (nonzero rational c, monomial text m) pairs,
    with '' for the monomial of a constant term; '0' from no pairs."""
    parts = []
    for c, mono in terms:
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        sign = (" - " if c < 0 else " + ") if parts else ("-" if c < 0 else "")
        parts.append(sign + body)
    return "".join(parts) or "0"


def render_poly(p: Poly, variable: str = "z") -> str:
    """High-to-low rendering that parse_poly inverts exactly."""
    return _signed_sum(
        (c, "" if i == 0 else variable if i == 1 else f"{variable}^{i}")
        for i, c in reversed(list(enumerate(p.coeffs)))
        if c
    )


def _scalar_str(c) -> str:
    if isinstance(c, Fraction):
        return str(c)
    # a rational function over x
    num = render_poly(c.num, "x")
    if c.den == Poly.one(Fraction):
        return num
    return f"({num})/({render_poly(c.den, 'x')})"


def _monomial_str(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("X" if i == 1 else f"X^{i}")
    if j:
        parts.append("Y" if j == 1 else f"Y^{j}")
    return "*".join(parts)


def render_expr(expr: BivarExpr) -> str:
    """Certificates and inverses over Q as expressions in X, Y
    (placeholders for f and g), lowest weight first: 'Y - X^2',
    'X*Y - X^3'."""
    return _signed_sum((c, _monomial_str(i, j)) for i, j, c in expr.sorted_terms())


def _cert_terms(expr: BivarExpr):
    return [
        {"i": i, "j": j, "coeff": _scalar_str(c)} for i, j, c in expr.sorted_terms()
    ]


def _json_value(value):
    """Expressions as term lists, scalars as exact strings, the rest as is."""
    if isinstance(value, BivarExpr):
        return _cert_terms(value)
    if isinstance(value, (Fraction, RatFunc)):
        return _scalar_str(value)
    return value


def _record_obj(record, drop_none=False):
    return {
        key: _json_value(value)
        for key, value in record._asdict().items()
        if value is not None or not drop_none
    }


class _StdoutError(OSError):
    """Writing stdout failed other than by a closed pipe; run() reports it."""


def _emit(lines, flush=False) -> None:
    """Write each line and a newline to stdout.  An OSError there is raised
    as a _StdoutError, so that main does not take it for an unreadable
    stdin or an unwritable --out and report it on stdout again."""
    try:
        for line in lines:
            sys.stdout.write(line + "\n")
        if flush:
            sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _StdoutError(*exc.args) from None


class _Escapes(dict):
    """The str.translate table of json.dumps's ASCII escapes: printable ASCII
    stays, the rest is written as \\uXXXX, as a surrogate pair above the
    BMP."""

    def __missing__(self, n):
        if n < 0x10000:
            return f"\\u{n:04x}"
        n -= 0x10000
        return f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}"


_ESCAPES = _Escapes({n: chr(n) for n in range(0x20, 0x7F)})
_ESCAPES.update({0x22: '\\"', 0x5C: "\\\\", 8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r"})


def _dumps(obj) -> str:
    """obj as json.dumps(obj) writes it, for dicts with str keys, lists,
    tuples, str, int, bool and None; any other type is a TypeError."""
    if isinstance(obj, str):
        return '"' + obj.translate(_ESCAPES) + '"'
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_dumps, obj)) + "]"
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        return "{" + ", ".join(f"{_dumps(k)}: {_dumps(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _tuple_str(xs) -> str:
    return "(" + ", ".join(str(x) for x in xs) + ")"


# ---------------------------------------------------------------------------
# subcommands
#
# A handler gets the arguments and, if its command has inputs, the parsed
# --f and --g.  It returns (JSON object, text lines) for main to print, or
# the exit status when it prints its own lines.

def _reason_text(obj) -> str:
    detail = ", ".join(f"{key}={value}" for key, value in obj.items() if key != "kind")
    return obj["kind"] + (f" ({detail})" if detail else "")


def _cmd_is_line(args, f, g):
    verdict = is_line(f, g)
    reason = _record_obj(verdict.reason, drop_none=True)
    obj = {"is_line": verdict.is_line, "reason": reason, "inverse": _json_value(verdict.inverse)}
    lines = [f"line: {'yes' if verdict.is_line else 'no'}"]
    if verdict.inverse is not None:
        lines.append(f"inverse: {render_expr(verdict.inverse)}")
    if not verdict.is_line:
        lines.append(f"reason: {_reason_text(reason)}")
    return obj, lines


def _member_obj(res):
    return _record_obj(res, drop_none=True)


def _stdin_lines():
    """The lines of stdin, each decoded as it arrives: a text stream
    decodes a whole read-sized chunk, so an undecodable line would lose the
    lines before it.  A stream without bytes beneath it (io.StringIO) is
    read as text.  A closed or undecodable stdin raises an OSError that
    names stdin, which main reports as an unreadable one."""
    stdin = sys.stdin
    if stdin is None:
        raise OSError("cannot read stdin: it is closed")
    raw = getattr(stdin, "buffer", None)
    try:
        if raw is None:
            yield from stdin
            return
        decoder = codecs.getincrementaldecoder(stdin.encoding)(stdin.errors)
        for line in raw:
            yield decoder.decode(line)
        yield decoder.decode(b"", True)
    except UnicodeDecodeError as exc:
        raise OSError(f"cannot read stdin: {exc}") from None


def _cmd_member(args, f, g):
    if args.u != "-":
        res = is_member(parse_poly(args.u), f, g)
        if res.member:
            lines = ["member: yes", f"certificate: {render_expr(res.certificate)}"]
        else:
            lines = [f"member: no (obstruction at degree {res.obstruction_degree})"]
        return _member_obj(res), lines
    # batch: one query polynomial per line, blank lines skipped
    status = 0
    for raw in _stdin_lines():
        text = raw.strip()
        if not text:
            continue
        try:
            res = is_member(parse_poly(text), f, g)
        except ParseError as exc:
            status = 1
            if args.json:
                answer = _dumps({"u": text, "error": str(exc)})
            else:
                answer = f"{text}: error: {exc}"
        else:
            if args.json:
                answer = _dumps({"u": text, **_member_obj(res)})
            else:
                answer = f"{text}: {'member' if res.member else 'not a member'}"
        # flushed per answer, so a client can wait for it before writing on
        _emit([answer], flush=True)
    return status


def _cmd_sagbi(args, f, g):
    basis = sagbi_basis(f, g)
    obj = {
        "degrees": list(basis.degrees),
        "elements": [
            {
                "degree": el.degree,
                "poly": render_poly(el.poly),
                "provenance": _cert_terms(el.provenance),
            }
            for el in basis.elements
        ],
    }
    lines = [
        f"degree {el.degree}: {render_poly(el.poly)} (from {render_expr(el.provenance)})"
        for el in basis.elements
    ]
    return obj, lines


def _cmd_delta(args, f, g):
    seq = delta_sequence(f, g)
    lines = [f"delta = {_tuple_str(seq.deltas)}", f"d = {_tuple_str(seq.ds)}", f"h = {seq.h}"]
    return _record_obj(seq), lines


def _cmd_represent(args, f, g):
    seq = delta_sequence(f, g)
    deltas = _tuple_str(seq.deltas)
    try:
        rep = semigroup_represent(args.degree, seq)
    except NotInSemigroup:
        obj = {"representable": False, "degree": args.degree, "deltas": list(seq.deltas)}
        return obj, [f"degree {args.degree} is not representable over δ = {deltas}"]
    obj = {
        "representable": True,
        "degree": args.degree,
        "alphas": list(rep.alphas),
        "deltas": list(seq.deltas),
    }
    return obj, [f"α = {_tuple_str(rep.alphas)} over δ = {deltas}"]


def _cmd_decompose(args, f, g):
    dec = common_parameter(f, g)
    obj = {
        "h": render_poly(dec.h),
        "f_tilde": render_poly(dec.f_tilde, "w"),
        "g_tilde": render_poly(dec.g_tilde, "w"),
        "faithful": dec.h.degree == 1,
    }
    lines = [
        f"h = {render_poly(dec.h)}",
        f"f = f~(h) with f~ = {render_poly(dec.f_tilde, 'w')}",
        f"g = g~(h) with g~ = {render_poly(dec.g_tilde, 'w')}",
    ]
    return obj, lines


def _strong_am_obj(rep):
    return {"a": rep.a, **_record_obj(rep)}


def _strong_am_text(rep) -> str:
    if not rep.applicable:
        return f"a={rep.a}: not applicable"
    return (
        f"a={rep.a}: applicable, deg u = {rep.u_degree}, deg v = {rep.v_degree}, "
        f"divisibility {'holds' if rep.divisibility_holds else 'FAILS'}"
    )


def _cmd_strong_am(args, f, g):
    if args.a is not None:
        rep = check_strong_am(f, g, args.a)
        return _strong_am_obj(rep), [_strong_am_text(rep)]
    # a = 1 is admissible for every nonconstant pair, and on a constant or
    # zero generator it raises before min() sees a degree
    reports = [check_strong_am(f, g, 1)]
    reports += [check_strong_am(f, g, a) for a in range(2, min(f.degree, g.degree) + 1)]
    obj = {"reports": [_strong_am_obj(r) for r in reports]}
    return obj, [_strong_am_text(r) for r in reports]


def _cmd_prop22(args, f, g):
    rep = check_prop22(f, g)
    lines = [
        "derivative combination n*f'*g - m*f*g' constant: "
        + (f"yes (a = {_scalar_str(rep.a)})" if rep.condition_221_holds else "no"),
        "power difference f^(n/d) - g^(m/d) constant: "
        + (f"yes (b = {_scalar_str(rep.b)})" if rep.condition_222_holds else "no"),
        f"line: {'yes' if rep.is_line else 'no'}",
    ]
    if rep.canonical_c is not None:
        lines.append(
            f"canonical form: f = z + c, g = (z+c)^n - b with "
            f"c = {_scalar_str(rep.canonical_c)}, b = {_scalar_str(rep.canonical_b)}"
        )
    return _record_obj(rep), lines


def _cmd_jacobian_probe(args, f, g):
    rep = prop21_probe(f, g)
    obj = {
        "jacobian_constant": rep.jacobian_constant,
        "fy_member": rep.fy_member.member,
        "gy_member": rep.gy_member.member,
        "fy_certificate": _json_value(rep.fy_member.certificate),
        "gy_certificate": _json_value(rep.gy_member.certificate),
    }
    lines = [
        f"jacobian determinant constant: {'yes' if rep.jacobian_constant else 'no'}",
        f"f_y in k(x)[f, g]: {'yes' if rep.fy_member.member else 'no'}",
        f"g_y in k(x)[f, g]: {'yes' if rep.gy_member.member else 'no'}",
    ]
    return obj, lines


def corpus_pairs(count: int, seed: int):
    """Deterministic test corpus: automorphism lines, the small lines
    composed with z^2 and z^3 (unfaithful non-lines), and degree-(3, 2)
    obstruction curves f = z^3 + a*z, g = f^2 + z^2 + c.  Yields
    (kind, f, g) with kind in line | composed_square | composed_cube |
    pattern."""
    n_lines = (count * 11 + 19) // 20
    n_comp = count // 8
    n_pattern = max(0, count - n_lines - 2 * n_comp)
    lines = [
        random_line_curve(seed * 1009 + i, 3 + i % 6, 2) for i in range(n_lines)
    ]
    for f, g in lines:
        yield "line", f, g
    small = [
        (f, g)
        for f, g in lines
        if not f.is_constant and not g.is_constant and max(f.degree, g.degree) <= 10
    ] or [(Poly.variable(Fraction), Poly.variable(Fraction) ** 2)]
    for power, kind in ((2, "composed_square"), (3, "composed_cube")):
        inner = Poly.variable(Fraction) ** power
        for k in range(n_comp):
            f, g = small[k % len(small)]
            yield kind, f.compose(inner), g.compose(inner)
    z = Poly.variable(Fraction)
    for k in range(n_pattern):
        a, c = Fraction(k % 5 - 2), Fraction(k % 7 - 3)
        f = z**3 + z.scale(a)
        g = f * f + z * z + Poly.constant(c, Fraction)
        yield "pattern", f, g


def _cmd_gen_corpus(args) -> int:
    if args.count < 0:
        raise PreconditionViolated(f"--count must be nonnegative, got {args.count}")
    records = (
        _dumps({"kind": kind, "f": render_poly(f), "g": render_poly(g)})
        for kind, f, g in corpus_pairs(args.count, args.seed)
    )
    if args.out == "-":
        _emit(records)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as sink:
            sink.writelines(record + "\n" for record in records)
    except BrokenPipeError as exc:
        # a reader of --out that goes away makes --out unwritable, an error
        # main reports; only a closed stdout ends the run quietly (run())
        raise OSError(str(exc)) from None
    return 0


# ---------------------------------------------------------------------------
# wiring

# name: (help, handler, input kind, extra value options).  The input kind
# says how main parses --f and --g: "z" as curves through parse_poly,
# "x, y" as plane maps through _parse_plane, None for no inputs.  main looks the
# parsers up by name, so a wrapper installed on the module sees every parse.
# An option's spec may say required, type=int, a default and its help.
_COMMANDS = {
    "is-line": ("decide whether (f, g) is an embedded line", _cmd_is_line, "z", {}),
    "member": ("test u for membership in k[f, g]", _cmd_member, "z", {
        "--u": dict(required=True, help="query polynomial in z, or - to read one per stdin line"),
    }),
    "sagbi": ("completed basis of k[f, g] with provenances", _cmd_sagbi, "z", {}),
    "delta": ("degree semigroup delta and gcd sequences", _cmd_delta, "z", {}),
    "represent": ("write a degree over the delta sequence", _cmd_represent, "z", {
        "--degree": dict(required=True, type=int, help="degree to represent"),
    }),
    "decompose": ("maximal common inner composition factor", _cmd_decompose, "z", {}),
    "strong-am": ("degree divisibility from two low-drop members", _cmd_strong_am, "z", {
        "--a": dict(type=int, help="degree drop; omitted sweeps all"),
    }),
    "prop22": ("constant-combination line test for monic pairs", _cmd_prop22, "z", {}),
    "jacobian-probe": (
        "Jacobian and y-derivative memberships over k(x)", _cmd_jacobian_probe, "x, y", {}
    ),
    "gen-corpus": ("write a line-delimited JSON curve corpus", _cmd_gen_corpus, None, {
        "--count": dict(type=int, default=200, help="number of curves"),
        "--seed": dict(type=int, default=0, help="generator seed"),
        "--out": dict(default="-", help="output path, - for stdout"),
    }),
}

_VALUE_FLAGS = frozenset({"--f", "--g"}.union(*(spec[3] for spec in _COMMANDS.values())))


def _options(name: str) -> dict:
    """The flags of a command in the order of its help, each with its spec
    from _COMMANDS; --json is the one switch."""
    _, _, kind, extra = _COMMANDS[name]
    if kind is None:
        return extra
    what = f"{'generator' if kind == 'z' else 'map component'}, a polynomial in {kind}"
    return {
        "--f": dict(required=True, help=f"first {what}"),
        "--g": dict(required=True, help=f"second {what}"),
        "--json": dict(switch=True, help="machine-readable output"),
        **extra,
    }


def _help_lines(name: str):
    """The usage line, description and options of a command, as help."""
    rows = [("-h, --help", "show this help message and exit")]
    usage = f"usage: amoh {name} [-h]"
    for flag, spec in _options(name).items():
        shown = flag if spec.get("switch") else f"{flag} {flag[2:].upper()}"
        usage += f" {shown}" if spec.get("required") else f" [{shown}]"
        rows.append((shown, spec["help"]))
    width = max(len(shown) for shown, _ in rows)
    return [usage, "", _COMMANDS[name][0], "", "options:",
            *(f"  {shown:<{width}}  {text}" for shown, text in rows)]


class _UsageError(Exception):
    """A command line that does not fit its command's options."""


def _scan(name: str, tokens):
    """The options of a command from the tokens after its name, or None
    when they ask for help.

    The reading is argparse's: a flag may be cut to a unique prefix
    (`--js`), `--flag=value` gives the value in the flag's token and the
    last of repeated flags wins.  Without `=` a value flag takes the next
    token that is not an option; a token that starts with - is one, unless
    it is -, looks like a negative number or has a space in it.  `--` is
    no value and no token after it is an option, so, as no command takes
    bare values, `--` and what follows are unrecognized.  The errors are
    argparse's, word for word."""
    options = _options(name)
    flags = ["-h", "--help", *options]
    # each token as (flag, value given with =), as (None, None) for an
    # unknown option or the first --, or as None for a value
    found, after_dashes = [], False
    for tok in tokens:
        if after_dashes or tok[:1] != "-" or tok == "-":
            found.append(None)
            continue
        head, eq, tail = tok.partition("=")
        if tok == "--":
            found.append((None, None))
            after_dashes = True
        elif tok in flags:
            found.append((tok, None))
        elif eq and head in flags:
            found.append((head, tail))
        elif tok[1] != "-":
            if tok[1] == "h":
                found.append(("-h", tok[2:]))
            elif re.match(r"-\d+$|-\d*\.\d+$", tok) or " " in tok:
                found.append(None)
            else:
                found.append((None, None))
        else:
            matches = [flag for flag in flags if flag.startswith(head)]
            if len(matches) > 1:
                raise _UsageError(f"ambiguous option: {tok} could match {', '.join(matches)}")
            if matches:
                found.append((matches[0], tail if eq else None))
            else:
                found.append(None if " " in tok else (None, None))
    args = {
        flag[2:]: False if spec.get("switch") else spec.get("default")
        for flag, spec in options.items()
    }
    seen, extras, dashes = set(), [], None
    i = 0
    while i < len(tokens):
        tok, kind = tokens[i], found[i]
        i += 1
        if kind is None or kind[0] is None:
            extras.append(tok)
            continue
        flag, value = kind
        if flag in ("-h", "--help"):
            # -hh is -h twice; a value given to help is an error
            left = value.lstrip("h") if flag == "-h" and value else value
            if left or value == "":
                raise _UsageError(f"argument -h/--help: ignored explicit argument {left!r}")
            return None
        spec = options[flag]
        seen.add(flag)
        if spec.get("switch"):
            if value is not None:
                raise _UsageError(f"argument {flag}: ignored explicit argument {value!r}")
            args[flag[2:]] = True
            continue
        if value is None:
            if i == len(tokens) or found[i] is not None:
                raise _UsageError(f"argument {flag}: expected one argument")
            value = tokens[i]
            i += 1
        elif value == "--":
            # `--f --` arrives as `--f=--`: a flag with no value
            dashes = dashes or tok.partition("=")[0]
            continue
        if spec.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"argument {flag}: invalid int value: {value!r}") from None
        args[flag[2:]] = value
    missing = [flag for flag, spec in options.items() if spec.get("required") and flag not in seen]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    if dashes:
        raise _UsageError(f"{dashes} needs a value, got --")
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    # A value flag written out in full takes the next token whatever it
    # is: `--f -2*z` reads as `--f=-2*z`.  A bare - (stdin) is a value anyway.
    tokens = []
    for tok in (sys.argv[1:] if argv is None else argv):
        if tokens and tokens[-1] in _VALUE_FLAGS and tok[:1] == "-" and tok != "-":
            tokens[-1] += "=" + tok
        else:
            tokens.append(tok)
    command = tokens[0] if tokens else None
    # The corpus is JSON lines, so its errors are JSON objects too.  A usage
    # error can come before --json is read, so this reads the tokens (a
    # prefix such as --js counts too).
    as_json = command == "gen-corpus" or any(
        len(t) > 2 and "--json".startswith(t) for t in tokens
    )

    def fail(status, message):
        if as_json:
            _emit([_dumps({"error": message})])
        else:
            print(f"error: {message}", file=sys.stderr)
        return status

    if command in ("-h", "--help"):
        _emit([
            "usage: amoh <command> [options]; amoh <command> --help lists them\n",
            *(f"  {name:<15} {spec[0]}" for name, spec in _COMMANDS.items()),
        ])
        return 0
    if command not in _COMMANDS:
        given = "no command" if command is None else f"unknown command {command!r}"
        return fail(1, f"{given}; choose from {', '.join(_COMMANDS)}")
    try:
        args = _scan(command, tokens[1:])
    except _UsageError as exc:
        return fail(1, str(exc))
    if args is None:
        _emit(_help_lines(command))
        return 0
    _, handler, kind, _ = _COMMANDS[command]
    try:
        if kind is None:
            out = handler(args)
        else:
            parse = parse_poly if kind == "z" else _parse_plane
            out = handler(args, parse(args.f), parse(args.g))
    except (InternalInconsistency, InternalLimitExceeded) as exc:
        return fail(2, str(exc))
    except (MemoryError, RecursionError) as exc:
        return fail(2, str(exc) or type(exc).__name__)
    except (BrokenPipeError, _StdoutError):
        # stdout's own failures, which run() ends the run on: a reader that
        # is gone (a broken --out arrives as a plain OSError) has no one to
        # tell, any other is reported on stderr
        raise
    except (AmohError, OSError) as exc:
        # OSError: unreadable stdin or an unwritable --out path
        return fail(1, str(exc))
    if isinstance(out, int):
        return out
    obj, lines = out
    _emit([_dumps(obj)] if as_json else lines)
    return 0


def run() -> None:
    """Entry point: end the process with main()'s status.

    Once stdout is flushed and the atexit handlers have run, the process
    ends with os._exit: tearing the interpreter down would only free what
    the exit frees anyway.  A stdout that cannot be written ends the run
    with status 1 and one line on stderr.  A reader that closes the pipe
    early (`amoh ... | head -n 1`) ends the run with status 1 and no
    traceback; stdout then points at devnull, so that the interpreter's
    last flush does not fail again (the recipe of Python's signal docs).
    A stdout closed at start (`amoh ... >&-`) ends the run the same way
    before any work, since no answer could reach a reader."""
    import atexit  # here, as 3.10 and 3.13 do not load it at start-up

    if sys.stdout is None:
        sys.exit(1)
    streams = (sys.stdout, sys.stderr)
    try:
        status = main()
        _emit((), flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except _StdoutError as exc:
        # the answers left in stdout's buffer are dropped with the process
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        status, streams = 1, (sys.stderr,)
    atexit._run_exitfuncs()
    for stream in streams:
        if stream is not None:
            stream.flush()
    os._exit(status or 0)
