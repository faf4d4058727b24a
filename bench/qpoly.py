"""The benchmark's own exact arithmetic, kept apart from amoh.

Inputs are built and outputs are checked with these helpers, so that a
fault in amoh's arithmetic cannot both make an input and pass its check.
A polynomial is a list of Fractions, low degree first, with no trailing
zeros; the zero polynomial is the empty list.
"""

from fractions import Fraction


def trim(p):
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return p[:n]


def deg(p):
    return len(p) - 1


def add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        if c:
            out[i] += c
    return trim(out)


def scale(p, c):
    return trim([x * c if x else x for x in p])


def mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    qs = [(j, y) for j, y in enumerate(q) if y]
    for i, x in enumerate(p):
        if x:
            for j, y in qs:
                out[i + j] += x * y
    return trim(out)


def compose(outer, inner):
    """outer(inner) by Horner's rule."""
    out = []
    for c in reversed(outer):
        out = add(mul(out, inner), [Fraction(c)])
    return out


def monomial(k, c=1):
    return trim([Fraction(0)] * k + [Fraction(c)])


def value(p, t):
    """p(t) for a rational t."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def bivar_value(terms, x, y):
    """Sum of c * x^i * y^j over terms given as (i, j, c)."""
    xp, yp = {0: Fraction(1)}, {0: Fraction(1)}

    def pw(cache, base, e):
        if e not in cache:
            cache[e] = pw(cache, base, e - 1) * base
        return cache[e]

    total = Fraction(0)
    for i, j, c in sorted(terms):
        total += c * pw(xp, x, i) * pw(yp, y, j)
    return total


def bivar_poly(terms, f, g):
    """The polynomial sum of c * f^i * g^j, expanded with this module's
    arithmetic: Horner's rule in f over rows that are polynomials in g."""
    rows = {}
    for i, j, c in terms:
        rows.setdefault(i, {})[j] = Fraction(c)
    if not rows:
        return []
    gp = [[Fraction(1)]]
    for _ in range(max(j for row in rows.values() for j in row)):
        gp.append(mul(gp[-1], g))
    total = []
    for i in range(max(rows), -1, -1):
        total = mul(total, f)
        for j, c in rows.get(i, {}).items():
            total = add(total, scale(gp[j], c))
    return total


def render(p, var="z"):
    """Expanded text, high degree first, in the syntax the amoh CLI parses."""
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            mono = var if i == 1 else f"{var}^{i}"
            body = mono if mag == 1 else f"{mag}*{mono}"
        if parts:
            parts.append((" - " if c < 0 else " + ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return "".join(parts) or "0"


def semigroup_gaps(gens):
    """Positive integers that are not sums of gens (gcd(gens) must be 1)."""
    limit = max(gens) * max(gens)
    reach = [False] * (limit + 1)
    reach[0] = True
    for v in range(1, limit + 1):
        reach[v] = any(v >= d and reach[v - d] for d in gens)
    return [v for v in range(1, limit + 1) if not reach[v]]
