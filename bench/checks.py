"""Output checks.  Each returns None when the output is right, else a
message.  They use the benchmark's own arithmetic (qpoly) and properties
the method must have, never a stored copy of an earlier output.
"""

import json
from fractions import Fraction

from qpoly import bivar_value, value

UNFAITHFUL = "UnfaithfulParameter"


def line(verdict, f, g, points):
    """An embedded line is accepted, and its inverse P has P(f(t), g(t)) = t."""
    if not verdict.is_line or verdict.inverse is None:
        return f"embedded line rejected ({verdict.reason.kind})"
    terms = [(i, j, c) for (i, j), c in verdict.inverse.terms.items()]
    for t in points:
        if bivar_value(terms, value(f, t), value(g, t)) != t:
            return f"inverse misses z at t = {t}"
    return None


def composed(verdict, e):
    """A curve composed with an inner polynomial of degree e is rejected as
    unfaithful, with an inner degree that e divides."""
    if verdict.is_line:
        return "composed curve accepted as a line"
    if verdict.reason.kind != UNFAITHFUL:
        return f"composed curve rejected for {verdict.reason.kind}"
    if verdict.reason.deg_h is None or verdict.reason.deg_h % e:
        return f"inner degree {verdict.reason.deg_h} is not a multiple of {e}"
    return None


def obstruction(verdict):
    """A faithful curve whose degrees fail divisibility, after invertible
    moves, is no line (Abhyankar-Moh), and not for an unfaithful parameter."""
    if verdict.is_line or verdict.inverse is not None:
        return "obstruction curve accepted as a line"
    if verdict.reason.kind == UNFAITHFUL:
        return "faithful curve rejected as unfaithful"
    return None


def member(is_member, cert_terms, u, f, g, points):
    """A member is accepted, and its certificate P has P(f(t), g(t)) = u(t)."""
    if not is_member:
        return "member rejected"
    for t in points:
        if bivar_value(cert_terms, value(f, t), value(g, t)) != value(u, t):
            return f"certificate misses u at t = {t}"
    return None


def non_member(is_member, obstruction_degree, k):
    """P(f, g) + c*z^k with k a gap is rejected at degree exactly k."""
    if is_member:
        return "non-member accepted"
    if obstruction_degree != k:
        return f"obstruction at degree {obstruction_degree}, expected {k}"
    return None


def cli_output(status, stdout, queries, f, g, points):
    """`amoh member --u - --json` answers each query line, in order."""
    if status != 0:
        return f"exit status {status}"
    lines = stdout.splitlines()
    if len(lines) != len(queries):
        return f"{len(lines)} output lines for {len(queries)} queries"
    for line_text, (text, u, k) in zip(lines, queries):
        try:
            obj = json.loads(line_text)
        except ValueError:
            return f"output is not JSON: {line_text[:80]!r}"
        if obj.get("u") != text:
            return "output line answers another query"
        if k is None:
            try:
                cert = [(t["i"], t["j"], Fraction(t["coeff"])) for t in obj.get("certificate") or ()]
            except (KeyError, TypeError, ValueError):
                return "malformed certificate"
            bad = member(obj.get("member") is True, cert, u, f, g, points)
        else:
            bad = non_member(obj.get("member") is not False, obj.get("obstruction_degree"), k)
        if bad:
            return bad
    return None
