"""Acceptance runs for the whole pipeline.

Each test exercises one pinned end-to-end scenario, asserts exact values
(the arithmetic is rational, so there is no numeric tolerance anywhere)
plus a wall-clock budget where one is stated, and prints a single
summary line.  Run with -s to see the lines on passing tests.
"""

import itertools
import random
import time
from fractions import Fraction

from amoh import (
    BivarExpr,
    NotInSemigroup,
    Poly,
    check_prop22,
    check_strong_am,
    common_parameter,
    criterion_check,
    delta_sequence,
    eval_bivariate,
    is_line,
    is_member,
    prop21_probe,
    random_line_curve,
    random_tame_automorphism,
    reduce_to_line,
    sagbi_basis,
    semigroup_represent,
)
from amoh.line import DIVISIBILITY_FAILURE, UNFAITHFUL_PARAMETER
from amoh.subalgebra import _sagbi_cached

from conftest import Z, const
from oracle import brute_force_member


def _report(tag, failures, elapsed, detail=""):
    status = "FAIL" if failures else "PASS"
    line = f"{tag}: {status} ({elapsed:.2f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert not failures, f"{tag}: {failures[:5]}"


def test_criterion_1_worked_example_reproduction():
    _sagbi_cached.cache_clear()
    failures = []
    start = time.perf_counter()
    f, g = Z**3, Z**6 + Z**2

    basis = sagbi_basis(f, g)
    if basis.degrees != (2, 3):
        failures.append(("basis degrees", basis.degrees))

    seq = delta_sequence(f, g)
    if (seq.deltas, seq.ds, seq.h) != ((6, 3, 2), (3, 1), 2):
        failures.append(("delta sequence", seq))

    verdict = is_line(f, g)
    if verdict.is_line or verdict.reason.kind != DIVISIBILITY_FAILURE:
        failures.append(("line verdict", verdict))
    if (verdict.reason.m, verdict.reason.n) != (3, 2):
        failures.append(("reduced degrees", verdict.reason))

    for query in (Z**2, Z**5):
        res = is_member(query, f, g)
        if not res.member:
            failures.append(("membership", query.coeffs, res))
        elif eval_bivariate(res.certificate, f, g) != query:
            failures.append(("certificate evaluation", query.coeffs))
    res = is_member(Z**5, f, g)
    if res.certificate.sorted_terms() != [
        (1, 1, Fraction(1)),
        (3, 0, Fraction(-1)),
    ]:
        failures.append(("certificate terms", res.certificate.sorted_terms()))

    gap = check_strong_am(f, g, 1)
    if not gap.applicable:
        failures.append(("gap test not applicable", gap))
    elif not gap.divisibility_holds:
        failures.append(("divisibility", gap))

    rep = semigroup_represent(5, seq)
    if rep.alphas != (0, 1, 1):
        failures.append(("representation", rep.alphas))

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(("time budget 1s", elapsed))
    _report("criterion 1 (worked example)", failures, elapsed)


def test_criterion_2_corpus_deciders_agree(corpus):
    _sagbi_cached.cache_clear()
    failures = []
    start = time.perf_counter()

    if len(corpus) < 200:
        failures.append(("corpus size", len(corpus)))
    line_degrees = [
        max(f.degree, g.degree) for kind, f, g in corpus if kind == "line"
    ]
    if len(line_degrees) < 100:
        failures.append(("line count", len(line_degrees)))
    if max(line_degrees) < 25:
        failures.append(("top line degree", max(line_degrees)))
    if sum(1 for d in line_degrees if d >= 20) < 3:
        failures.append(("high-degree lines", line_degrees))
    kinds = {kind for kind, _, _ in corpus}
    if not {"composed_square", "composed_cube", "pattern"} <= kinds:
        failures.append(("kind mix", kinds))

    for kind, f, g in corpus:
        fast = criterion_check(f, g)
        constructive = reduce_to_line(f, g)
        if fast != constructive.is_line:
            failures.append(("decider disagreement", kind, f.coeffs, g.coeffs))
            continue
        if kind == "line":
            if not constructive.is_line:
                failures.append(("line rejected", f.coeffs, g.coeffs))
            elif eval_bivariate(constructive.inverse, f, g) != Z:
                failures.append(("bad inverse", f.coeffs, g.coeffs))
        elif constructive.is_line:
            failures.append(("non-line accepted", kind, f.coeffs, g.coeffs))

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(("time budget 60s", elapsed))
    _report(
        "criterion 2 (corpus deciders)",
        failures,
        elapsed,
        f"{len(corpus)} curves, {len(line_degrees)} embedded lines, "
        f"top degree {max(line_degrees)}",
    )


def test_criterion_3_certificate_round_trips():
    failures = []
    start = time.perf_counter()
    rng = random.Random(2026)

    known_gap = [
        (Z**2, Z**3),
        (Z**3, Z**6 + Z**2),
        (Z**2, Z**7),
        (Z**3, Z**4),
        (Z**3, Z**5),
        (Z**4 + 2 * Z**2, Z**6),
        (Z**6, Z**8 + Z**7),
    ]
    other = [
        (Z**4, Z**6 + Z**3),
        (Z**5, Z**7 + Z**2),
        (Z**4, Z**5 + Z),
    ]
    lines = []
    seed = 900
    while len(lines) < 10:
        f, g = random_line_curve(seed, 3, 2)
        seed += 1
        if not f.is_constant and not g.is_constant:
            lines.append((f, g))
    curves = known_gap + other + lines
    assert len(curves) == 20

    brute_checked = 0
    for k in range(500):
        f, g = curves[k % len(curves)]
        m, n = f.degree, g.degree
        expr = BivarExpr.zero()
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, 40 // m)
            j = rng.randint(0, (40 - i * m) // n)
            c = Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.randint(1, 3))
            expr = expr + BivarExpr.monomial(i, j, c)
        if expr.weight(m, n) > 40:
            failures.append(("weight overflow", k, expr.weight(m, n)))
            continue
        u = eval_bivariate(expr, f, g)
        res = is_member(u, f, g)
        if not res.member:
            failures.append(("member rejected", k, res.obstruction_degree))
            continue
        if eval_bivariate(res.certificate, f, g) != u:
            failures.append(("certificate mismatch", k))
            continue
        if k % 12 == 0:
            bound = max(u.degree, 0) + m * n
            cert = brute_force_member(u, f, g, bound)
            if cert is None or eval_bivariate(cert, f, g) != u:
                failures.append(("brute force disagrees on member", k))
            brute_checked += 1

    non_members = 0
    for f, g in known_gap:
        m, n = f.degree, g.degree
        res = is_member(Z, f, g)
        if res.member or res.obstruction_degree != 1:
            failures.append(("degree-1 query should obstruct", f.coeffs, g.coeffs))
            continue
        if brute_force_member(Z, f, g, 1 + m * n) is not None:
            failures.append(("brute force invented a member", f.coeffs, g.coeffs))
            continue
        non_members += 1
        # A member plus the obstructed monomial must stay outside.
        shifted = f * g + Z
        res2 = is_member(shifted, f, g)
        if res2.member:
            failures.append(("shifted member accepted", f.coeffs, g.coeffs))
            continue
        if brute_force_member(shifted, f, g, shifted.degree + m * n) is not None:
            failures.append(("brute force accepted shifted", f.coeffs, g.coeffs))
            continue
        non_members += 1
        brute_checked += 2

    if non_members < 10:
        failures.append(("non-member count", non_members))
    if brute_checked < 50:
        failures.append(("brute-force subsample size", brute_checked))

    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (membership certificates)",
        failures,
        elapsed,
        f"500 round trips, {brute_checked} brute-force comparisons, "
        f"{non_members} non-members",
    )


def _all_constrained_reprs(deltas, ds, target):
    h = len(deltas) - 1
    bounds = [range(ds[i - 2] // ds[i - 1]) for i in range(2, h + 1)]
    out = []
    for tail in itertools.product(*bounds):
        rest = target - sum(a * d for a, d in zip(tail, deltas[2:]))
        if rest < 0:
            continue
        for a1 in range(rest // deltas[1] + 1):
            rem = rest - a1 * deltas[1]
            if rem % deltas[0] == 0:
                out.append((rem // deltas[0], a1) + tail)
    return out


def test_criterion_4_representation_against_enumeration():
    failures = []
    start = time.perf_counter()
    seq = delta_sequence(Z**3, Z**6 + Z**2)
    assert seq.deltas == (6, 3, 2)

    representable = 0
    for target in range(31):
        candidates = _all_constrained_reprs(seq.deltas, seq.ds, target)
        try:
            got = semigroup_represent(target, seq)
        except NotInSemigroup:
            if candidates:
                failures.append(("missed representation", target, candidates))
            continue
        representable += 1
        if got.alphas not in candidates:
            failures.append(("unconstrained answer", target, got.alphas))
            continue
        tails = {c[2:] for c in candidates}
        if len(tails) != 1:
            failures.append(("tail not unique", target, tails))
        if got.alphas != max(candidates):
            failures.append(("tie-break violated", target, got.alphas))
        if sum(a * d for a, d in zip(got.alphas, seq.deltas)) != target:
            failures.append(("sum mismatch", target, got.alphas))

    elapsed = time.perf_counter() - start
    _report(
        "criterion 4 (semigroup representation)",
        failures,
        elapsed,
        f"targets 0..30, {representable} representable, 0 mismatches"
        if not failures
        else "",
    )


def test_criterion_5_degree_gap_theorem_sweep(corpus):
    failures = []
    start = time.perf_counter()

    pairs = [
        (kind, f, g)
        for kind, f, g in corpus
        if not f.is_constant
        and not g.is_constant
        and (kind != "line" or max(f.degree, g.degree) <= 15)
    ]
    if len(pairs) < 100:
        failures.append(("pair count", len(pairs)))

    applicable_seen = 0
    witnesses_evaluated = 0
    for kind, f, g in pairs:
        m, n = f.degree, g.degree
        for a in range(1, min(m, n) + 1):
            rep = check_strong_am(f, g, a)
            if rep.applicable and not rep.divisibility_holds:
                failures.append(("conclusion violated", kind, f.coeffs, g.coeffs, a))
                continue
            if rep.applicable:
                applicable_seen += 1
                if rep.u_witness is None or rep.v_witness is None:
                    failures.append(("witness missing", kind, a))
                    continue
                if max(m, n) <= 8:
                    u = eval_bivariate(rep.u_witness, f, g)
                    v = eval_bivariate(rep.v_witness, f, g)
                    if u.degree != m - a or v.degree != n - a:
                        failures.append(("witness evaluation", kind, a))
                    witnesses_evaluated += 1

    if applicable_seen == 0:
        failures.append(("no applicable case exercised",))
    if witnesses_evaluated == 0:
        failures.append(("no witness evaluated",))

    elapsed = time.perf_counter() - start
    _report(
        "criterion 5 (degree-gap sweep)",
        failures,
        elapsed,
        f"{len(pairs)} pairs, {applicable_seen} applicable cases, "
        f"{witnesses_evaluated} witnesses evaluated",
    )


def test_criterion_6_coefficient_family_grid():
    failures = []
    start = time.perf_counter()

    checked = 0
    for c, b, n in itertools.product(
        range(-3, 4), (-3, -2, -1, 1, 2, 3), range(2, 8)
    ):
        f = Z + const(c)
        g = f**n - const(b)
        rep = check_prop22(f, g)
        if not (rep.condition_221_holds and rep.condition_222_holds):
            failures.append(("conditions fail on family", c, b, n))
            continue
        if not rep.is_line or not rep.derived_derivatives_verified:
            failures.append(("family member not certified", c, b, n))
            continue
        if rep.canonical_c != Fraction(c) or rep.canonical_b != Fraction(b):
            failures.append(
                ("recovery", c, b, n, rep.canonical_c, rep.canonical_b)
            )
            continue
        perturbed = check_prop22(f, g + Z)
        if perturbed.condition_221_holds and perturbed.condition_222_holds:
            failures.append(("perturbation undetected", c, b, n))
            continue
        checked += 1

    if checked != 7 * 6 * 6:
        failures.append(("grid coverage", checked))

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(("time budget 10s", elapsed))
    _report(
        "criterion 6 (coefficient family grid)",
        failures,
        elapsed,
        f"{checked} grid points with perturbed twins",
    )


def test_criterion_7_automorphism_probes():
    failures = []
    start = time.perf_counter()

    for seed in range(50):
        F, G = random_tame_automorphism(seed, 5)
        if F.degree > 16 or G.degree > 16:
            failures.append(("degree cap", seed, F.degree, G.degree))
            continue
        rep = prop21_probe(F, G)
        if not rep.jacobian_constant:
            failures.append(("jacobian not scalar", seed))
            continue
        if not (rep.fy_member.member and rep.gy_member.member):
            failures.append(("partial not a member", seed))
            continue
        fy = eval_bivariate(rep.fy_member.certificate, F, G)
        gy = eval_bivariate(rep.gy_member.certificate, F, G)
        if fy != F.derivative() or gy != G.derivative():
            failures.append(("certificate mismatch", seed))

    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(("time budget 120s", elapsed))
    _report(
        "criterion 7 (automorphism probes)",
        failures,
        elapsed,
        "50 maps, all certificates re-evaluated",
    )


def test_criterion_8_shared_parameter_recovery():
    failures = []
    start = time.perf_counter()
    rng = random.Random(8)

    def rand_poly(deg):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(deg + 1)]
        coeffs[-1] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        return Poly(coeffs)

    for k in range(100):
        e = rng.choice((2, 3))
        h = rand_poly(e)
        f_outer = rand_poly(rng.randint(1, 24 // e))
        g_outer = rand_poly(rng.randint(1, 24 // e))
        f, g = f_outer.compose(h), g_outer.compose(h)
        if f.degree > 24 or g.degree > 24:
            failures.append(("degree overflow", k, f.degree, g.degree))
            continue

        dec = common_parameter(f, g)
        if dec.h.degree < e:
            failures.append(("parameter missed", k, e, dec.h.degree))
            continue
        if dec.f_tilde.compose(dec.h) != f or dec.g_tilde.compose(dec.h) != g:
            failures.append(("recomposition inexact", k))
            continue

        verdict = is_line(f, g)
        if verdict.is_line or verdict.reason.kind != UNFAITHFUL_PARAMETER:
            failures.append(("verdict", k, verdict.reason.kind))
        elif verdict.reason.deg_h != dec.h.degree:
            failures.append(("verdict degree", k, verdict.reason.deg_h))

    elapsed = time.perf_counter() - start
    _report(
        "criterion 8 (shared parameter recovery)",
        failures,
        elapsed,
        "100 composed pairs",
    )
