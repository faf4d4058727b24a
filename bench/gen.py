"""Seeded input generators, built on the benchmark's own arithmetic.

Every generator takes a random.Random and returns plain coefficient lists
(see qpoly); amoh only ever sees the finished polynomials.
"""

import math
from fractions import Fraction

from qpoly import add, compose, monomial, scale

Z = [Fraction(0), Fraction(1)]


def nonzero(rng, bound=3):
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def rand_poly(rng, d, bound=3):
    """Random polynomial of degree exactly d with small integer coefficients."""
    coeffs = [Fraction(rng.randint(-bound, bound)) for _ in range(d)]
    return coeffs + [Fraction(nonzero(rng, bound))]


def triangular(rng, f, g, degrees):
    """Apply the moves g += p1(f), f += p2(g), g += p3(f), ... with
    deg p_k = degrees[k].  Each move is invertible, so k[f, g] is kept."""
    for k, d in enumerate(degrees):
        if k % 2 == 0:
            g = add(g, compose(rand_poly(rng, d), f))
        else:
            f = add(f, compose(rand_poly(rng, d), g))
    return f, g


def affine(rng, f, g):
    """Scale and shift each component, and swap them half the time."""
    f = add(scale(f, Fraction(nonzero(rng))), [Fraction(rng.randint(-3, 3))])
    g = add(scale(g, Fraction(nonzero(rng))), [Fraction(rng.randint(-3, 3))])
    return (g, f) if rng.random() < 0.5 else (f, g)


def make_line(rng, shape):
    """An embedded line: the image of (z, 0) under triangular moves."""
    return affine(rng, *triangular(rng, Z, [], shape))


def make_composed(rng, shape, e):
    """A small line composed with z^e: unfaithful, with inner degree e."""
    f, g = make_line(rng, shape)
    inner = monomial(e)
    return compose(f, inner), compose(g, inner)


def make_obstruction(rng, base, disguise):
    """A pair (F, G) with deg F = base[0], deg G = base[1], neither
    dividing the other and coprime, moved by triangular moves.  k[f, g] =
    k[F, G] is not k[z] by the Abhyankar-Moh theorem, and the pair is
    faithful because the degrees are coprime."""
    m, n = base
    if not (m % n and n % m and math.gcd(m, n) == 1):
        raise ValueError(f"degrees {base} must be coprime, neither dividing the other")
    F, G = rand_poly(rng, m), rand_poly(rng, n)
    f, g = triangular(rng, F, G, disguise) if disguise else (F, G)
    return affine(rng, f, g)


def rand_bivar(rng, wf, wg, weight, bound=3):
    """Random P(X, Y) = sum c * X^i * Y^j with i*wf + j*wg <= weight, every
    such monomial present with a nonzero small coefficient, given as
    (i, j, c) triples."""
    terms = []
    for i in range(weight // wf + 1):
        for j in range((weight - i * wf) // wg + 1):
            terms.append((i, j, Fraction(nonzero(rng, bound), rng.choice((1, 1, 2, 3)))))
    return terms


def curve_key(f, g):
    return tuple(f), tuple(g)
