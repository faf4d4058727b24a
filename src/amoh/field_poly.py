"""Exact coefficient fields and univariate polynomial arithmetic.

Everything downstream works over an exact field with decidable equality:
either the rationals (``fractions.Fraction``) or rational functions in one
variable over the rationals (:class:`RatFunc`).  A :class:`Poly` is a dense,
immutable coefficient sequence over one of those fields, stored low degree
first with no trailing zeros; the zero polynomial is the empty sequence and
its degree is the distinguished :data:`NEG_INF` marker, which compares below
every integer but supports no arithmetic.  Over the rationals a Poly keeps
integer numerators over one common denominator and multiplies large
operands by Kronecker substitution: one big-integer product.  The formal
two-variable expressions used as membership certificates live in
:class:`BivarExpr`.

All values are immutable; operations return fresh objects and never mutate
their inputs.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from fractions import Fraction
from itertools import repeat

from .errors import DivisionByZeroPoly

__all__ = [
    "NEG_INF",
    "Fraction",
    "RatFunc",
    "Poly",
    "BivarExpr",
    "eval_bivariate",
]


@functools.total_ordering
class _NegInf:
    """Degree of the zero polynomial: below every integer, no arithmetic."""

    __slots__ = ()

    def __lt__(self, other):
        if isinstance(other, _NegInf):
            return False
        if isinstance(other, int):
            return True
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
    over the same field; division with remainder is over the rationals
    only.

    Over the rationals the coefficients are ``nums[i] / den``: a tuple of
    integer numerators over one positive common denominator, in lowest
    terms (``gcd(den, *nums) == 1``), so equal polynomials are stored
    alike.  Over :class:`RatFunc`, ``nums`` holds the coefficients
    themselves and ``den`` is 1.  ``coeffs`` is the coefficient tuple in
    the field, built on each access.
    """

    __slots__ = ("nums", "den", "field", "_hash")

    def __init__(self, coeffs=(), field=None):
        items = list(coeffs)
        if field is None:
            field = RatFunc if any(isinstance(c, RatFunc) for c in items) else Fraction
        if field is Fraction:
            items = [c if isinstance(c, Fraction) else Fraction(c) for c in items]
            den = math.lcm(*(c.denominator for c in items))
            nums = [c.numerator * (den // c.denominator) for c in items]
        else:
            nums = [c if isinstance(c, field) else field(c) for c in items]
            den = 1
        canon = Poly._make(nums, den, field)
        self.nums, self.den, self.field, self._hash = canon.nums, canon.den, field, None

    @classmethod
    def _make(cls, nums, den, field):
        # Trusted constructor: nums lie in the field (ints over Q) and
        # den > 0.  Strips trailing zeros and reduces to lowest terms.
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        nums = tuple(nums[:n])
        if not n:
            den = 1
        elif den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = tuple([x // g for x in nums])
                den //= g
        obj = object.__new__(cls)
        obj.nums = nums
        obj.den = den
        obj.field = field
        obj._hash = None
        return obj

    @classmethod
    def zero(cls, field=Fraction):
        return cls._make((), 1, field)

    @classmethod
    def one(cls, field=Fraction):
        return cls.constant(1, field)

    @classmethod
    def constant(cls, value, field=None):
        if field is None:
            field = RatFunc if isinstance(value, RatFunc) else Fraction
        if field is Fraction:
            value = value if isinstance(value, Fraction) else Fraction(value)
            return cls._make((value.numerator,), value.denominator, field)
        return cls._make((value if isinstance(value, field) else field(value),), 1, field)

    @classmethod
    def variable(cls, field=Fraction):
        if field is Fraction:
            return cls._make((0, 1), 1, field)
        return cls._make((field(0), field(1)), 1, field)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients in the field, low degree first."""
        if self.field is Fraction:
            return tuple([Fraction(n, self.den) for n in self.nums])
        return self.nums

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    @property
    def lead(self):
        """Leading coefficient; undefined on the zero polynomial."""
        if not self.nums:
            raise DivisionByZeroPoly("zero polynomial has no leading coefficient")
        return self.coeff(len(self.nums) - 1)

    def coeff(self, i: int):
        """Coefficient of the degree-i term (zero beyond the length)."""
        if not 0 <= i < len(self.nums):
            return self.field(0)
        if self.field is Fraction:
            return Fraction(self.nums[i], self.den)
        return self.nums[i]

    def constant_value(self):
        """The scalar value of a constant polynomial (zero for the zero poly)."""
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.coeff(0)

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly.constant(other, self.field)
        self._check_field(other)
        return other

    def _add(self, other, op):
        other = self._lift(other)
        a, b, den = self.nums, other.nums, self.den
        if other.den != den:
            # only over Q: bring both to the lcm of the denominators
            g = math.gcd(den, other.den)
            ka, kb = other.den // g, den // g
            if ka != 1:
                a = [x * ka for x in a]
            if kb != 1:
                b = [x * kb for x in b]
            den *= ka
        out = list(map(op, a, b))
        if len(a) > len(b):
            out.extend(a[len(b):])
        elif len(b) > len(a):
            out.extend(b[len(a):] if op is operator.add else map(operator.neg, b[len(a):]))
        return Poly._make(out, den, self.field)

    def __add__(self, other):
        return self._add(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make([-x for x in self.nums], self.den, self.field)

    def __sub__(self, other):
        return self._add(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_field(other)
        a, b = self.nums, other.nums
        if not a or not b:
            return Poly.zero(self.field)
        if self.field is not Fraction:
            return Poly._make(_schoolbook_mul(a, b, self.field(0)), 1, self.field)
        short = a if len(a) <= len(b) else b
        terms = len(short) - short.count(0)
        if terms == 1:
            # a monomial c*z^d times the other operand: shift and scale it
            long = b if short is a else a
            c = short[-1]
            if long.count(0) == len(long) - 1:
                out = (0,) * (len(short) + len(long) - 2) + (c * long[-1],)
            else:
                out = (0,) * (len(short) - 1) + tuple(map(operator.mul, long, repeat(c)))
        elif terms >= _KRONECKER_MIN_TERMS:
            out = _kronecker_mul(a, b, words_only=terms < _KRONECKER_WIDE_MIN_TERMS)
        else:
            out = _schoolbook_mul(a, b, 0)
        return Poly._make(out, self.den * other.den, Fraction)

    __rmul__ = __mul__

    def scale(self, c):
        field = self.field
        c = c if isinstance(c, field) else self._coerce(c)
        if not c:
            return Poly.zero(field)
        if field is not Fraction:
            return Poly._make([x * c for x in self.nums], 1, field)
        p = c.numerator
        nums = self.nums if p == 1 else [x * p for x in self.nums]
        return Poly._make(nums, self.den * c.denominator, field)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if n == 0:
            return Poly.one(self.field)
        nums = self.nums
        if self.field is Fraction and len(nums) - nums.count(0) == 1:
            # a monomial: (c*z^d)^n = c^n * z^(d*n), with no products; the
            # numerator and denominator of c^n stay coprime, so no gcd either
            out = Poly._make((0,) * ((len(nums) - 1) * n) + (nums[-1] ** n,), 1, Fraction)
            out.den = self.den**n
            return out
        return _power(self, n)

    def __divmod__(self, other):
        other = self._lift(other)
        if self.field is not Fraction:
            raise TypeError("polynomial division is over the rationals only")
        if other.is_zero:
            raise DivisionByZeroPoly("polynomial division by zero")
        if len(self.nums) < len(other.nums):
            return Poly.zero(Fraction), self
        return _divmod_q(self, other)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        """self / self.lead; self itself when already monic.  Over Q the
        lead is nums[-1] / den, so the result is nums / nums[-1] (signs
        flipped to keep the denominator positive), with no Fraction."""
        if self.is_zero:
            raise DivisionByZeroPoly("cannot normalize the zero polynomial")
        if self.field is Fraction:
            lead = self.nums[-1]
            if lead == self.den:
                return self
            nums = self.nums if lead > 0 else [-x for x in self.nums]
            return Poly._make(nums, abs(lead), Fraction)
        lc = self.lead
        if lc == self.field(1):
            return self
        return self.scale(self.field(1) / lc)

    def _cancel_lead(self, other):
        """(self - c*other, c) for c = self.lead / other.lead, where other
        has self's degree: the difference has a lower degree.

        Over Q this is one integer pass.  With T/dt and L/dl the leads of
        self and other, g = gcd(T, L), a = L/g and b = T/g (both negated
        when a < 0), the difference is (a*self.nums - b*other.nums) /
        (dt*a), and only c = T*dl / (dt*L) is built as a Fraction."""
        self._check_field(other)
        if self.field is not Fraction:
            c = self.lead / other.lead
            return self - other.scale(c), c
        top, low = self.nums[-1], other.nums[-1]
        g = math.gcd(top, low)
        a, b = low // g, top // g
        if a < 0:
            a, b = -a, -b
        nums = self.nums if a == 1 else [x * a for x in self.nums]
        out = list(map(operator.sub, nums, map(operator.mul, other.nums, repeat(b))))
        return Poly._make(out, self.den * a, Fraction), Fraction(b * other.den, self.den * a)

    def derivative(self):
        return Poly._make([x * i for i, x in enumerate(self.nums)][1:], self.den, self.field)

    def compose(self, inner: "Poly") -> "Poly":
        """The composition self(inner), by Horner evaluation on the
        numerators; the common denominator divides out at the end."""
        self._check_field(inner)
        field = self.field
        result = Poly.zero(field)
        for c in reversed(self.nums):
            result = result * inner + Poly._make((c,), 1, field)
        if self.den == 1:
            return result
        return Poly._make(result.nums, result.den * self.den, field)

    # -- comparison --------------------------------------------------------

    def _check_field(self, other):
        # shared with BivarExpr: reads only the operands' fields
        if self.field is not other.field:
            raise TypeError(
                f"mixed coefficient fields: {self.field.__name__} vs {other.field.__name__}"
            )

    def _coerce(self, c):
        # a scalar not in self's field, into it; shared with BivarExpr.
        # Rationals lift to RatFunc, but a RatFunc does not drop to Q.
        if isinstance(c, RatFunc):
            self._check_field(c)
        return self.field(c)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.field is other.field
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.__name__, self.nums, self.den))
        return self._hash

    def __bool__(self):
        return bool(self.nums)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


# Products whose shorter operand has fewer nonzero terms than this run
# faster by schoolbook, which skips zero terms, than by Kronecker
# substitution, which packs every slot: measured on CPython 3.11 over the
# products of the three benchmark workloads, all of which (from 2 to 16
# terms) pack at 1 to 8 bytes, with one struct call per pack.  Slots
# wider than 8 bytes go one to_bytes per slot, which on synthetic dense
# products with 40- to 100-bit coefficients paid only from 6 to 9 terms
# on, so those keep the threshold of 10 they had before (see CHANGES.md).
_KRONECKER_MIN_TERMS = 5
_KRONECKER_WIDE_MIN_TERMS = 10


def _schoolbook_mul(a, b, zero):
    """Coefficients of the product of two coefficient sequences."""
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [zero] * (n + len(b) - 1)
    add, mul = operator.add, operator.mul
    for j, y in enumerate(b):
        if y:
            out[j:j + n] = map(add, out[j:j + n], map(mul, a, repeat(y, n)))
    return out


# struct codes of the machine-word slot widths: little-endian standard
# sizes, the same on every platform
_WORDS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _width(bits: int) -> int:
    """Bytes per Kronecker slot for coefficients below 2**bits in absolute
    value: the smallest of 1, 2, 4 or 8 bytes whose signed range holds
    them, so that _pack and _unpack make one struct call, and above 8 bytes
    the smallest byte count that does, bits // 8 + 1."""
    for width in _WORDS:
        if bits < 8 * width:
            return width
    return bits // 8 + 1


def _slot_tops(slots: int, width: int) -> int:
    """The top bit of each of `slots` width-byte slots, as one integer."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack(nums, width: int) -> int:
    """sum(nums[k] * 2**(8*width*k)), in time linear in its size.

    Each coefficient goes into its own width-byte slot in two's
    complement: one struct call at a width of 1, 2, 4 or 8 bytes (_width
    picks those whenever they hold the coefficients), one to_bytes per
    slot above.  Flipping every slot's top bit turns that into offset
    binary (nums[k] + 2**(8*width-1) per slot, with no carries between
    slots), and subtracting the offsets leaves the sum."""
    tops = _slot_tops(len(nums), width)
    code = _WORDS.get(width)
    if code is not None:
        raw = struct.pack(f"<{len(nums)}{code}", *nums)
    else:
        raw = b"".join([x.to_bytes(width, "little", signed=True) for x in nums])
    return (int.from_bytes(raw, "little") ^ tops) - tops


def _unpack(value: int, n: int, width: int) -> list:
    """The n coefficients that _pack put into value, low degree first;
    each must lie below 2**(8*width-1) in absolute value.  Adding the
    offsets back and flipping every slot's top bit undoes _pack's two
    steps, and the slots read back in two's complement: in one struct
    call at a width of 1, 2, 4 or 8 bytes, one from_bytes per slot above."""
    tops = _slot_tops(n, width)
    raw = ((value + tops) ^ tops).to_bytes(n * width, "little")
    code = _WORDS.get(width)
    if code is not None:
        return list(struct.unpack(f"<{n}{code}", raw))
    frombytes = int.from_bytes
    return [
        frombytes(raw[k:k + width], "little", signed=True)
        for k in range(0, n * width, width)
    ]


def _kronecker_mul(a, b, words_only=False):
    """Integer coefficient product by Kronecker substitution: evaluate both
    at 2**(8*width), multiply once, and read the product's coefficients
    back (_unpack).  Every product coefficient is at most bound in absolute
    value, and width = _width(bound.bit_length()), 1, 2, 4 or 8 bytes when
    those suffice: each coefficient fits its slot.  With words_only, a
    product whose slots would be wider than 8 bytes goes by schoolbook
    instead."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = _width(bound.bit_length())
    if words_only and width > 8:
        return _schoolbook_mul(a, b, 0)
    pa = _pack(a, width)
    c = pa * pa if a is b else pa * _pack(b, width)
    return _unpack(c, len(a) + len(b) - 1, width)


def _power(base, n: int):
    """base**n for n >= 1 by repeated squaring, starting from the base."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _divmod_q(a: Poly, b: Poly):
    """Division with remainder over Q on integer numerators.

    Works on the primitive part B of b's numerators.  Each step cancels the
    top remainder numerator c against B's lead L after scaling the working
    numerators by |L| / gcd(c, L), so the invariant
    scale * A == quot * B + rem holds in integers throughout."""
    A = a.nums
    content = math.gcd(*b.nums)
    B = b.nums if content == 1 else tuple([x // content for x in b.nums])
    dlen = len(B)
    lead = abs(B[-1])
    sign = 1 if B[-1] > 0 else -1
    low = B[:-1]
    rem = list(A)
    quot = [0] * (len(A) - dlen + 1)
    scale = 1
    for top in range(len(A) - 1, dlen - 2, -1):
        c = rem[top]
        if not c:
            continue
        g = math.gcd(c, lead)
        m = lead // g
        if m != 1:
            rem[:top] = [x * m for x in rem[:top]]
            quot = [x * m for x in quot]
            scale *= m
        t = sign * (c // g)
        base = top - dlen + 1
        quot[base] = t
        rem[base:top] = map(operator.sub, rem[base:top], map(operator.mul, low, repeat(t)))
        rem[top] = 0
    # a = A / a.den and b = B * content / b.den
    q = Poly._make([x * b.den for x in quot], scale * a.den * content, Fraction)
    r = Poly._make(rem, scale * a.den, Fraction)
    return q, r


def _qpoly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals, with primitive scaling between steps."""
    while not b.is_zero:
        r = a % b
        if not r.is_zero:
            g = math.gcd(*r.nums)
            r = Poly._make([x // g for x in r.nums], 1, Fraction)
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
    def field(self):
        """RatFunc: a scalar's field, read as a Poly's field is."""
        return RatFunc

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
            self._hash = hash(("amoh.RatFunc", self.num, self.den))
        return self._hash

    def __repr__(self):
        if self.is_polynomial:
            return f"RatFunc({list(self.num.coeffs)!r})"
        return f"RatFunc({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"


class BivarExpr:
    """Formal expression in two generators X and Y with exact coefficients.

    A finite map (i, j) -> coefficient with no zero entries.  These
    expressions serve as membership certificates and basis provenance: they
    record how to rebuild a polynomial from the pair (f, g) by substituting
    X -> f and Y -> g.

    Stored as :class:`Poly` stores its coefficients.  Over the rationals
    the coefficient of (i, j) is ``nums[(i, j)] / den``: integer numerators
    over one positive common denominator, in lowest terms, so equal
    expressions are stored alike.  Over :class:`RatFunc`, ``nums`` holds
    the coefficients themselves and ``den`` is 1.  ``terms`` is the map in
    the field, built on each access.

    An expression keeps the field it was built over, as a Poly does:
    arithmetic, scaling and substitution across fields raise TypeError,
    and expressions over different fields are never equal.
    """

    __slots__ = ("nums", "den", "field", "_hash")

    def __init__(self, terms=None):
        items = list(dict(terms or {}).items())
        for (i, j), _ in items:
            if type(i) is not int or type(j) is not int or i < 0 or j < 0:
                raise ValueError(
                    f"certificate exponents must be nonnegative integers, got {(i, j)!r}"
                )
        if any(isinstance(c, RatFunc) for _, c in items):
            field, den = RatFunc, 1
            items = [(k, c if isinstance(c, RatFunc) else RatFunc(c)) for k, c in items]
        else:
            field = Fraction
            items = [(k, c if isinstance(c, (int, Fraction)) else Fraction(c)) for k, c in items]
            den = math.lcm(*(c.denominator for _, c in items))
            items = [(k, c.numerator * (den // c.denominator)) for k, c in items]
        self._set({k: c for k, c in items if c}, den, field)

    def _set(self, nums, den, field):
        # Trusted: nums has no zero values and den > 0.  Reduces to lowest terms.
        if not nums:
            den = 1
        elif den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {k: c // g for k, c in nums.items()}
                den //= g
        self.nums, self.den, self.field, self._hash = nums, den, field, None

    @classmethod
    def _make(cls, nums, den, field):
        obj = object.__new__(cls)
        obj._set(nums, den, field)
        return obj

    @classmethod
    def zero(cls, field=Fraction) -> "BivarExpr":
        return cls._make({}, 1, field)

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
    def terms(self) -> dict:
        """The map (i, j) -> coefficient in the field."""
        if self.field is Fraction:
            return {k: Fraction(c, self.den) for k, c in self.nums.items()}
        return dict(self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    _check_field = Poly._check_field
    _coerce = Poly._coerce

    def _add(self, other, op):
        self._check_field(other)
        a, da, b, db = self.nums, self.den, other.nums, other.den
        if da != db:
            # only over Q: bring both to the lcm of the denominators
            g = math.gcd(da, db)
            ka, kb = db // g, da // g
            if ka != 1:
                a = {k: c * ka for k, c in a.items()}
            if kb != 1:
                b = {k: c * kb for k, c in b.items()}
            da *= ka
        out = dict(a)
        for k, c in b.items():
            s = op(out.get(k, 0), c)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return BivarExpr._make(out, da, self.field)

    def __add__(self, other):
        if not isinstance(other, BivarExpr):
            return NotImplemented
        return self._add(other, operator.add)

    def __neg__(self):
        return BivarExpr._make({k: -c for k, c in self.nums.items()}, self.den, self.field)

    def __sub__(self, other):
        if not isinstance(other, BivarExpr):
            return NotImplemented
        return self._add(other, operator.sub)

    def __mul__(self, other):
        if not isinstance(other, BivarExpr):
            return NotImplemented
        self._check_field(other)
        out = {}
        for (i1, j1), c1 in self.nums.items():
            for (i2, j2), c2 in other.nums.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return BivarExpr._make(out, self.den * other.den, self.field)

    def scale(self, c) -> "BivarExpr":
        field = self.field
        c = c if isinstance(c, field) else self._coerce(c)
        if not c:
            return BivarExpr.zero(field)
        if field is not Fraction:
            return BivarExpr._make({k: v * c for k, v in self.nums.items()}, 1, field)
        p = c.numerator
        nums = self.nums if p == 1 else {k: v * p for k, v in self.nums.items()}
        return BivarExpr._make(nums, self.den * c.denominator, field)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("certificate exponent must be a nonnegative integer")
        if n == 0:
            return BivarExpr.const(self.field(1))
        return _power(self, n)

    def eval(self, f: Poly, g: Poly) -> Poly:
        """Substitute X -> f and Y -> g and expand exactly.

        Horner runs over the generator with fewer distinct exponents, the
        short axis: Y for every canonical certificate, whose Y-degree is
        below m.  Each of its exponents has a row, the sum of c_ij times
        powers of the other generator.  Those powers are streamed in
        increasing order, each one product from the one before, and each
        is added into the row of its terms as it comes, so only the
        current power is held.  Horner then does one product per row.

        Over Q this runs on Python integers, by Kronecker substitution
        (_packed), and N's a*deg f + b*deg g + 1 coefficients are read back
        once (_unpack).  Slots are 1, 2, 4 or 8 bytes wide whenever the
        bound on N's coefficients fits one of those (_width), so packing
        and reading back are one struct call each; wider bounds take the
        smallest byte count that holds them.  _evaluates_to compares a
        target with the packed N itself, read back nowhere.
        """
        self._check_field(f)
        self._check_field(g)
        if not self.nums:
            return Poly.zero(self.field)
        if self.field is not Fraction:
            return _short_axis(*self._axis(f, g), Poly.one(RatFunc))
        value, n, width, den = self._packed(f, g)
        return Poly._make(_unpack(value, n, width), den, Fraction)

    def _axis(self, f: Poly, g: Poly):
        """(terms, inner, outer) for _short_axis: outer is the generator
        with fewer distinct exponents, and each term (e, r, c) is the
        coefficient c of inner**e * outer**r, sorted by e."""
        keys = self.nums.keys()
        if len({i for i, _ in keys}) < len({j for _, j in keys}):
            return sorted((j, i, c) for (i, j), c in self.nums.items()), g, f
        return sorted((i, j, c) for (i, j), c in self.nums.items()), f, g

    def _packed(self, f: Poly, g: Poly):
        """(N, n, width, den) for a nonzero expression over Q: its value at
        (f, g) is the n coefficients packed in N at z = 2**(8*width) (as
        _pack packs them), over den.

        With f = F/df and g = G/dg (integer numerators F, G) and a, b the
        top exponents of X and Y, the value is N / (den * df**a * dg**b),
        where N = sum c_ij * F**i * df**(a-i) * G**j * dg**(b-j).  F and
        G are packed once (_pack), and the terms run through _short_axis
        on the packed integers.  Every coefficient of N is at most
        sum |c_ij| * |F|**i * df**(a-i) * |G|**j * dg**(b-j) in absolute
        value, where |F|, the sum of the absolute values of F's
        coefficients, bounds every coefficient of F**i.  Before any
        product, width is chosen from bit lengths alone so that
        2**(8*width-1) exceeds that bound and |F| and |G|: every slot then
        holds its coefficient, and the result is exact.  _width rounds
        the width up to 1, 2, 4 or 8 bytes when one of those holds the
        bound, so that F, G and N pack and read back with one struct call
        each; a wider slot than needed changes only the size of N."""
        terms, inner, outer = self._axis(f, g)
        a_in, a_out = terms[-1][0], max([r for _, r, _ in terms])
        d_in, d_out = inner.den, outer.den
        l_in, l_out = _clog2(sum(map(abs, inner.nums))), _clog2(sum(map(abs, outer.nums)))
        ld_in, ld_out = _clog2(d_in), _clog2(d_out)
        k_in, k_out = l_in - ld_in, l_out - ld_out
        top = max([c.bit_length() + e * k_in + r * k_out for e, r, c in terms])
        # every coefficient of N is below 2**bits, as abs(c) < 2**c.bit_length();
        # those of F and G are at most 2**l, so below 2**(l + 1)
        bits = top + a_in * ld_in + a_out * ld_out + _clog2(len(terms))
        width = _width(max(bits, l_in + 1, l_out + 1))
        if d_in != 1 or d_out != 1:
            terms = [(e, r, c * d_in ** (a_in - e) * d_out ** (a_out - r)) for e, r, c in terms]
        value = _short_axis(terms, _pack(inner.nums, width), _pack(outer.nums, width), 1)
        n = a_in * max(len(inner.nums) - 1, 0) + a_out * max(len(outer.nums) - 1, 0) + 1
        return value, n, width, self.den * d_in**a_in * d_out**a_out

    def _evaluates_to(self, f: Poly, g: Poly, target: Poly) -> bool:
        """Whether eval(f, g) == target, by one comparison of packed integers
        over Q: with N, n, width and den from _packed, the value is target
        exactly when den * target has integer coefficients, each below
        2**(8*width-1) in absolute value as N's are, and at most n of them,
        and packs at the same width to N, since packing is one-to-one on
        such coefficients.  Over RatFunc it is eval(f, g) == target."""
        if self.field is not Fraction or target.field is not Fraction or not self.nums:
            return self.eval(f, g) == target
        self._check_field(f)
        self._check_field(g)
        value, n, width, den = self._packed(f, g)
        # target is in lowest terms: den * target is integral iff its den divides den
        scale, rest = divmod(den, target.den)
        if rest or len(target.nums) > n:
            return False
        want = [x * scale for x in target.nums]
        if want and max(map(abs, want)).bit_length() >= 8 * width:
            return False
        return _pack(want, width) == value

    def sorted_terms(self):
        """Terms as a list of (i, j, coeff), ordered lexicographically."""
        return [(i, j, c) for (i, j), c in sorted(self.terms.items())]

    def weight(self, wx: int, wy: int):
        """Max of i*wx + j*wy over the support, NEG_INF when empty."""
        if not self.nums:
            return NEG_INF
        return max(i * wx + j * wy for (i, j) in self.nums)

    def __eq__(self, other):
        if not isinstance(other, BivarExpr):
            return NotImplemented
        return (
            self.field is other.field
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        return f"BivarExpr({self.terms!r})"


def _clog2(x: int) -> int:
    """ceil(log2(x)) for x >= 1, and 1 at x = 0: x <= 2**_clog2(x)."""
    return (x - 1).bit_length()


def _short_axis(terms, inner, outer, one):
    """sum(c * inner**e * outer**r for e, r, c in terms), with terms
    sorted by e, over Python integers or Polys (one is the ring's unit).
    The powers of inner are streamed in increasing order, each one
    product from the one before, into one row per r; Horner over outer
    then does one product per row."""
    rows, steps, outer_pows = {}, {}, {}
    power, at = one, 0
    for e, r, c in terms:
        if e != at:
            power = power * _cached_power(steps, inner, e - at)
            at = e
        t = power * c
        rows[r] = rows[r] + t if r in rows else t
    order = sorted(rows, reverse=True)
    total = rows[order[0]]
    for hi, r in zip(order, order[1:]):
        total = total * _cached_power(outer_pows, outer, hi - r) + rows[r]
    if order[-1]:
        total = total * _cached_power(outer_pows, outer, order[-1])
    return total


def _combine(terms, den, field) -> Poly:
    """sum(c * p for c, p in terms) / den, for nonzero coefficients c in
    the form BivarExpr stores them (integer numerators over Q): one
    multiply-add pass per term over the numerators, one normalization.
    A monomial over Q adds its one nonzero entry, so a sum of monomials
    costs time linear in its size."""
    lcm = math.lcm(*(p.den for _, p in terms))
    acc = [0 if field is Fraction else field(0)] * max(len(p.nums) for _, p in terms)
    add, mul = operator.add, operator.mul
    for c, p in terms:
        k = c if p.den == lcm else c * (lcm // p.den)
        nums = p.nums
        n = len(nums)
        if field is Fraction and nums.count(0) == n - 1:
            acc[n - 1] += nums[-1] * k
        else:
            acc[:n] = map(add, acc[:n], map(mul, nums, repeat(k, n)))
    return Poly._make(acc, den * lcm, field)


# -- module-level operation surface ---------------------------------------


def _cached_power(cache: dict, base, e: int, mul=operator.mul):
    """base**e, memoized in cache (exponent -> power); e >= 1 unless the
    caller seeded cache[0].  Callers sweep nearby exponents, so a miss
    fills every exponent from the highest cached one below e, one
    multiplication (mul) each."""
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
        acc = mul(acc, base)
        cache[k] = acc
    return acc


def eval_bivariate(expr: BivarExpr, f: Poly, g: Poly) -> Poly:
    return expr.eval(f, g)
