"""Exact coefficient fields and univariate polynomial arithmetic.

Everything downstream works over an exact field with decidable equality:
either the rationals (``fractions.Fraction``) or rational functions in one
variable over the rationals (:class:`RatFunc`).  A :class:`Poly` is a dense,
immutable coefficient sequence over one of those fields, stored low degree
first with no trailing zeros; the zero polynomial is the empty sequence and
its degree is the distinguished :data:`NEG_INF` marker, which compares below
every integer but supports no arithmetic.  The formal two-variable
expressions used as membership certificates live in :class:`BivarExpr`.

All values are immutable; operations return fresh objects and never mutate
their inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .errors import DivisionByZeroPoly

__all__ = [
    "NEG_INF",
    "Fraction",
    "RatFunc",
    "Poly",
    "BivarExpr",
    "poly_divmod",
    "eval_bivariate",
]


class _NegInf:
    """Degree of the zero polynomial: below every integer, no arithmetic."""

    __slots__ = ()

    def __lt__(self, other):
        if isinstance(other, _NegInf):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (_NegInf, int)):
            return True
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (_NegInf, int)):
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, _NegInf):
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, _NegInf)

    def __hash__(self):
        return hash("amoh.NEG_INF")

    def __repr__(self):
        return "-Infinity"


NEG_INF = _NegInf()


class Poly:
    """Dense univariate polynomial over an exact field.

    The coefficient field is carried as ``self.field``, the coefficient
    class itself (``Fraction`` or :class:`RatFunc`); calling it on an int or
    a lower field element coerces.  Binary operations require both operands
    over the same field.
    """

    __slots__ = ("coeffs", "field", "_hash")

    def __init__(self, coeffs=(), field=None):
        items = list(coeffs)
        if field is None:
            field = Fraction
            for c in items:
                if isinstance(c, RatFunc):
                    field = RatFunc
                    break
        coerced = tuple(c if isinstance(c, field) else field(c) for c in items)
        n = len(coerced)
        while n and not coerced[n - 1]:
            n -= 1
        self.coeffs = coerced[:n]
        self.field = field
        self._hash = None

    @classmethod
    def _make(cls, coeffs, field):
        # Trusted constructor: coeffs already lie in `field`.
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        obj = object.__new__(cls)
        obj.coeffs = tuple(coeffs[:n])
        obj.field = field
        obj._hash = None
        return obj

    @classmethod
    def zero(cls, field=Fraction):
        return cls._make((), field)

    @classmethod
    def one(cls, field=Fraction):
        return cls._make((field(1),), field)

    @classmethod
    def constant(cls, value, field=None):
        if field is None:
            field = RatFunc if isinstance(value, RatFunc) else Fraction
        return cls._make((value if isinstance(value, field) else field(value),), field)

    @classmethod
    def variable(cls, field=Fraction):
        return cls._make((field(0), field(1)), field)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lead(self):
        """Leading coefficient; undefined on the zero polynomial."""
        if not self.coeffs:
            raise DivisionByZeroPoly("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        """Coefficient of the degree-i term (zero beyond the length)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field(0)

    def constant_value(self):
        """The scalar value of a constant polynomial (zero for the zero poly)."""
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else self.field(0)

    # -- arithmetic --------------------------------------------------------

    def _coerce_scalar(self, c):
        return c if isinstance(c, self.field) else self.field(c)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self._coerce_scalar(other), self.field)
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly._make(out, self.field)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(tuple(-c for c in self.coeffs), self.field)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self._coerce_scalar(other), self.field)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        zero = self.field(0)
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return Poly._make(out, self.field)

    __rmul__ = __mul__

    def scale(self, c):
        c = self._coerce_scalar(c)
        if not c:
            return Poly.zero(self.field)
        return Poly._make(tuple(x * c for x in self.coeffs), self.field)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self._coerce_scalar(other), self.field)
        self._check_field(other)
        if other.is_zero:
            raise DivisionByZeroPoly("polynomial division by zero")
        if self.is_zero or len(self.coeffs) < len(other.coeffs):
            return Poly.zero(self.field), self
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        lead = other.coeffs[-1]
        quot = [self.field(0)] * (len(rem) - dlen + 1)
        for top in range(len(rem) - 1, dlen - 2, -1):
            c = rem[top]
            if not c:
                continue
            q = c / lead
            quot[top - dlen + 1] = q
            for k in range(dlen):
                rem[top - dlen + 1 + k] = rem[top - dlen + 1 + k] - q * other.coeffs[k]
        return Poly._make(quot, self.field), Poly._make(rem, self.field)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            raise DivisionByZeroPoly("cannot normalize the zero polynomial")
        lc = self.coeffs[-1]
        if lc == self.field(1):
            return self
        inv = self.field(1) / lc
        return Poly._make(tuple(c * inv for c in self.coeffs), self.field)

    def derivative(self):
        if len(self.coeffs) <= 1:
            return Poly.zero(self.field)
        return Poly._make(
            tuple(self.coeffs[i] * i for i in range(1, len(self.coeffs))), self.field
        )

    def compose(self, inner: "Poly") -> "Poly":
        """The composition self(inner), by Horner evaluation."""
        self._check_field(inner)
        result = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            result = result * inner + Poly.constant(c, self.field)
        return result

    # -- comparison --------------------------------------------------------

    def _check_field(self, other: "Poly"):
        if self.field is not other.field:
            raise TypeError(
                f"mixed coefficient fields: {self.field.__name__} vs {other.field.__name__}"
            )

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.__name__, self.coeffs))
        return self._hash

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def _content(p: Poly) -> Fraction:
    """Positive rational c with p/c primitive with integer coefficients."""
    num = reduce(math.gcd, (c.numerator for c in p.coeffs), 0)
    den = reduce(math.lcm, (c.denominator for c in p.coeffs), 1)
    return Fraction(num, den)


def _qpoly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals, with primitive scaling between steps."""
    while not b.is_zero:
        r = a % b
        if not r.is_zero:
            r = r.scale(1 / _content(r))
        a, b = b, r
    if a.is_zero:
        return a
    return a.monic()


class RatFunc:
    """Rational function in one variable over the rationals.

    Canonical form: the denominator is monic and coprime to the numerator;
    zero is 0/1.  Equality is coefficient-wise on the canonical form.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num=0, den=None):
        if isinstance(num, RatFunc) and den is None:
            self.num, self.den = num.num, num.den
            self._hash = None
            return
        num = self._as_poly(num)
        den = Poly.one(Fraction) if den is None else self._as_poly(den)
        if den.is_zero:
            raise DivisionByZeroPoly("rational function with zero denominator")
        if num.is_zero:
            self.num = Poly.zero(Fraction)
            self.den = Poly.one(Fraction)
        elif den.is_constant:
            c = den.constant_value()
            self.num = num if c == 1 else num.scale(Fraction(1) / c)
            self.den = Poly.one(Fraction)
        else:
            g = _qpoly_gcd(num, den)
            if not g.is_constant:
                num = num // g
                den = den // g
            lc = den.lead
            if lc != 1:
                inv = Fraction(1) / lc
                num = num.scale(inv)
                den = den.scale(inv)
            self.num = num
            self.den = den
        self._hash = None

    @staticmethod
    def _as_poly(v) -> Poly:
        if isinstance(v, Poly):
            if v.field is not Fraction:
                raise TypeError("rational functions take numerators over the rationals")
            return v
        if isinstance(v, RatFunc):
            raise TypeError("nested rational function; divide explicitly instead")
        return Poly.constant(Fraction(v), Fraction)

    @classmethod
    def x(cls) -> "RatFunc":
        return cls(Poly.variable(Fraction))

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_constant

    def as_poly(self) -> Poly:
        if not self.is_polynomial:
            raise ValueError("rational function has a nontrivial denominator")
        return self.num

    @property
    def is_rational_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)) or isinstance(other, Poly):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        r = object.__new__(RatFunc)
        r.num, r.den, r._hash = -self.num, self.den, None
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise DivisionByZeroPoly("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("rational function exponent must be an integer")
        if n < 0:
            return RatFunc(1) / (self ** (-n))
        return RatFunc(self.num**n, self.den**n)

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __bool__(self):
        return not self.num.is_zero

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("amoh.RatFunc", self.num.coeffs, self.den.coeffs))
        return self._hash

    def __repr__(self):
        if self.is_polynomial:
            return f"RatFunc({list(self.num.coeffs)!r})"
        return f"RatFunc({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"


class BivarExpr:
    """Formal expression in two generators X and Y with exact coefficients.

    Stored as a finite map (i, j) -> coefficient with no zero entries.  These
    expressions serve as membership certificates and basis provenance: they
    record how to rebuild a polynomial from the pair (f, g) by substituting
    X -> f and Y -> g.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in dict(terms).items():
                if not isinstance(c, (Fraction, RatFunc)):
                    c = Fraction(c)
                if c:
                    clean[(int(i), int(j))] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def zero(cls) -> "BivarExpr":
        return cls()

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1) -> "BivarExpr":
        return cls({(i, j): coeff})

    @classmethod
    def X(cls) -> "BivarExpr":
        return cls.monomial(1, 0)

    @classmethod
    def Y(cls) -> "BivarExpr":
        return cls.monomial(0, 1)

    @classmethod
    def const(cls, c) -> "BivarExpr":
        return cls.monomial(0, 0, c)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, BivarExpr):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = object.__new__(BivarExpr)
        r.terms, r._hash = out, None
        return r

    def __neg__(self):
        r = object.__new__(BivarExpr)
        r.terms = {k: -c for k, c in self.terms.items()}
        r._hash = None
        return r

    def __sub__(self, other):
        if not isinstance(other, BivarExpr):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BivarExpr):
            return NotImplemented
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        r = object.__new__(BivarExpr)
        r.terms, r._hash = out, None
        return r

    def scale(self, c) -> "BivarExpr":
        if not c:
            return BivarExpr.zero()
        r = object.__new__(BivarExpr)
        r.terms = {k: v * c for k, v in self.terms.items()}
        r._hash = None
        return r

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("certificate exponent must be a nonnegative integer")
        result = BivarExpr.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def eval(self, f: Poly, g: Poly) -> Poly:
        """Substitute X -> f and Y -> g and expand exactly.

        Nested Horner over the sparse exponents: one multiplication per
        exponent gap rather than one full f^i * g^j product per term,
        which matters for the certificates of high-degree members.
        """
        field = f.field
        if g.field is not field:
            raise TypeError("mixed coefficient fields in substitution")
        fpows, gpows = {}, {}
        by_i: dict = {}
        for (i, j), c in self.terms.items():
            by_i.setdefault(i, {})[j] = c

        def horner_y(row: dict) -> Poly:
            acc = Poly.zero(field)
            prev = None
            for j in sorted(row, reverse=True):
                if prev is not None:
                    acc = acc * _cached_power(gpows, g, prev - j)
                c = row[j]
                if not isinstance(c, field):
                    c = field(c)
                acc = acc + Poly.one(field).scale(c)
                prev = j
            if prev:
                acc = acc * _cached_power(gpows, g, prev)
            return acc

        total = Poly.zero(field)
        prev = None
        for i in sorted(by_i, reverse=True):
            if prev is not None:
                total = total * _cached_power(fpows, f, prev - i)
            total = total + horner_y(by_i[i])
            prev = i
        if prev:
            total = total * _cached_power(fpows, f, prev)
        return total

    def sorted_terms(self):
        """Terms as a list of (i, j, coeff), ordered lexicographically."""
        return [(i, j, c) for (i, j), c in sorted(self.terms.items())]

    def weight(self, wx: int, wy: int):
        """Max of i*wx + j*wy over the support, NEG_INF when empty."""
        if not self.terms:
            return NEG_INF
        return max(i * wx + j * wy for (i, j) in self.terms)

    def __eq__(self, other):
        if not isinstance(other, BivarExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        return f"BivarExpr({self.terms!r})"


# -- module-level operation surface ---------------------------------------


def _cached_power(cache: dict, base, e: int):
    """base**e, memoized in cache (exponent -> power); e >= 1 unless the
    caller seeded cache[0].  Callers sweep nearby exponents, so a miss
    fills every exponent from the highest cached one below e, one
    multiplication each."""
    cache.setdefault(1, base)
    got = cache.get(e)
    if got is not None:
        return got
    k = e - 1
    while k not in cache:
        k -= 1
    acc = cache[k]
    while k < e:
        k += 1
        acc = acc * base
        cache[k] = acc
    return acc


def poly_divmod(p: Poly, q: Poly):
    return divmod(p, q)


def eval_bivariate(expr: BivarExpr, f: Poly, g: Poly) -> Poly:
    return expr.eval(f, g)
