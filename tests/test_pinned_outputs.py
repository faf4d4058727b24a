"""Pinned outputs of the semigroup engine on a fixed curve set.

A sha256 over completed bases with their provenances, line verdicts with
their inverses, delta sequences, membership results with certificates,
strong-AM witnesses and y-partial memberships over k(x) on 171 curves and
836 membership queries.  Every value is exact, so any change in what the
engine builds shows up in the digest.  Verdict-only paths are checked to
build no expression products at all.
"""

import hashlib
import json
from fractions import Fraction

from amoh import (
    BivarExpr,
    check_strong_am,
    delta_sequence,
    is_line,
    is_member,
    prop21_probe,
    random_line_curve,
    random_tame_automorphism,
    sagbi_basis,
)
from amoh.cli import corpus_pairs
from amoh.subalgebra import _sagbi_cached

from conftest import Z, const

PINNED = "93ed1d9ac9957a9b56ab473330e0d0af681af097e1b9a8f4ef1fa3b8d3b1e546"


def _expr(e):
    if e is None:
        return None
    return [[i, j, str(c)] for i, j, c in e.sorted_terms()]


def _poly(p):
    return [str(c) for c in p.coeffs]


def _curves():
    curves = [
        (Z**3, Z**6 + Z**2),
        (Z**4, Z**6 + Z),
        (Z**4 + Z, Z**6 + Z**3 + const(2)),
        (Z**6 + Z, Z**9 + Z**2),
        ((Z + const(1)) ** 3, Z**2),
        (const(2), Z**3 + Z),
        (Z**2 + Z, (Z**2 + Z) ** 3 + Z**2 + Z),
        (Z**12 + Z, Z**18 + Z**2),
        (Z**24 + Z, Z**36 + Z**2),
        ((Z + const(1)) ** 20, Z**2),
        (Z**8 + Z**3, Z**12 + Z**5 + Z),
    ]
    curves += [(f, g) for _, f, g in corpus_pairs(120, 3)]
    curves += [random_line_curve(500 + s, 3 + s % 6, 3) for s in range(40)]
    return curves


def _queries(f, g, line):
    """Small members and non-members; high-degree certificates on lines are
    slow, so lines get queries only when both degrees are at most 10."""
    if line and max(f.degree, g.degree) > 10:
        return []
    out = [Z, Z**2 + const(1), Z**5]
    if not f.is_constant:
        out.append(f.derivative())
    if not g.is_constant:
        out.append(g.derivative())
    out.append(f * g + f.scale(Fraction(1, 3)))
    return out


def _record(f, g):
    rec = {"f": _poly(f), "g": _poly(g)}
    basis = sagbi_basis(f, g)
    rec["basis"] = [
        [el.degree, _poly(el.poly), _expr(el.provenance)] for el in basis.elements
    ]
    v = is_line(f, g)
    r = v.reason
    rec["line"] = [v.is_line, _expr(v.inverse), r.kind, r.which, r.m, r.n, r.deg_h]
    if not f.is_constant and not g.is_constant:
        d = delta_sequence(f, g)
        rec["delta"] = [list(d.deltas), list(d.ds), d.h]
        if not v.is_line and max(f.degree, g.degree) <= 18:
            rec["strong_am"] = []
            for a in range(1, min(f.degree, g.degree) + 1):
                rep = check_strong_am(f, g, a)
                rec["strong_am"].append(
                    [rep.applicable, _expr(rep.u_witness), _expr(rep.v_witness)]
                )
    rec["member"] = []
    for u in _queries(f, g, v.is_line):
        res = is_member(u, f, g)
        rec["member"].append(
            [_poly(u), res.member, res.obstruction_degree, _expr(res.certificate)]
        )
    return rec


def _digest():
    _sagbi_cached.cache_clear()
    records = [_record(f, g) for f, g in _curves()]
    for seed in range(2):
        F, G = random_tame_automorphism(seed, 3)
        rep = prop21_probe(F, G)
        records.append(
            [
                rep.jacobian_constant,
                [rep.fy_member.member, _expr(rep.fy_member.certificate)],
                [rep.gy_member.member, _expr(rep.gy_member.certificate)],
            ]
        )
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_pinned_digest():
    assert _digest() == PINNED


def test_verdicts_build_no_expression_products(monkeypatch):
    """Completion, subduction without certificates and the derivative
    criterion work on polynomials only.  The elimination decider inside
    is_line builds its inverse from expression powers by design, so the
    is_line pairs here are ones where elimination stops before any power:
    a generator of degree 1, or two degrees that do not divide."""
    calls = []
    original = BivarExpr.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(BivarExpr, "__mul__", counting)
    _sagbi_cached.cache_clear()
    f, g = Z**3, Z**6 + Z**2
    assert not is_member(Z, f, g, certify=False).member
    assert is_member(Z**5, f, g, certify=False).member
    assert not is_line(Z**3, Z**5 + Z).is_line
    assert is_line(Z + const(1), Z**7 + Z**3).is_line
    assert calls == []
    assert is_member(Z**5, f, g).certificate is not None
    assert calls
