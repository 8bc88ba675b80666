"""Sparse Laurent polynomials over arbitrary-precision integers.

Polynomials in one variable t, or in two commuting invertible variables
(t1, t2), with integer coefficients stored sparsely as exponent -> coeff.
Zero coefficients are never stored, so equality is structural.
"""


def json_int(term, key):
    """term[key] of a JSON payload: an integer or decimal string, never bool or float."""
    value = term[key]
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError("%s must be an integer or a decimal string, got %r" % (key, value))
    return int(value)


class LaurentPoly1:
    """Integer Laurent polynomial in one variable."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                c = d.get(k, 0) + c
                if c:
                    d[k] = c
                else:
                    d.pop(k, None)
        self.terms = d

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, k, c=1):
        return cls({k: c}) if c else cls()

    def is_zero(self):
        return not self.terms

    def coeff(self, k):
        return self.terms.get(k, 0)

    def support(self):
        return sorted(self.terms)

    def add(self, other):
        if not isinstance(other, LaurentPoly1):
            raise TypeError("arity mismatch: expected a one-variable polynomial")
        d = dict(self.terms)
        for k, c in other.terms.items():
            c = d.get(k, 0) + c
            if c:
                d[k] = c
            else:
                del d[k]
        p = LaurentPoly1.__new__(LaurentPoly1)
        p.terms = d
        return p

    __add__ = add

    def neg(self):
        p = LaurentPoly1.__new__(LaurentPoly1)
        p.terms = {k: -c for k, c in self.terms.items()}
        return p

    __neg__ = neg

    def sub(self, other):
        return self.add(other.neg())

    __sub__ = sub

    def scale(self, a):
        if a == 0:
            return LaurentPoly1()
        p = LaurentPoly1.__new__(LaurentPoly1)
        p.terms = {k: a * c for k, c in self.terms.items()}
        return p

    def bar(self):
        """The involution t^k -> t^(-k), extended Z-linearly."""
        p = LaurentPoly1.__new__(LaurentPoly1)
        p.terms = {-k: c for k, c in self.terms.items()}
        return p

    def __eq__(self, other):
        return isinstance(other, LaurentPoly1) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            c = self.terms[k]
            bits.append(("%+d*t^%d" % (c, k)))
        return "".join(bits)

    def to_json(self):
        return {"terms": [{"e": k, "c": str(self.terms[k])} for k in sorted(self.terms)]}

    @classmethod
    def from_json(cls, obj):
        return cls((json_int(t, "e"), json_int(t, "c")) for t in obj.get("terms", []))


class AffineMap2:
    """Affine map Z^2 -> Z^2, x -> M.x + b, with M integer-invertible."""

    __slots__ = ("m", "b")

    def __init__(self, m, b=(0, 0)):
        a11, a12, a21, a22 = m
        if a11 * a22 - a12 * a21 not in (1, -1):
            raise ValueError("map is not invertible over the integers")
        self.m = (a11, a12, a21, a22)
        self.b = (b[0], b[1])

    def apply(self, x, y):
        a11, a12, a21, a22 = self.m
        return (a11 * x + a12 * y + self.b[0], a21 * x + a22 * y + self.b[1])

    def inverse(self):
        a11, a12, a21, a22 = self.m
        det = a11 * a22 - a12 * a21
        # adjugate over det; det is +-1 so entries stay integral
        i11, i12, i21, i22 = a22 * det, -a12 * det, -a21 * det, a11 * det
        bx = -(i11 * self.b[0] + i12 * self.b[1])
        by = -(i21 * self.b[0] + i22 * self.b[1])
        return AffineMap2((i11, i12, i21, i22), (bx, by))

    def compose(self, other):
        # self after other
        a11, a12, a21, a22 = self.m
        b11, b12, b21, b22 = other.m
        m = (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
             a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
        bx, by = self.apply(*other.b)
        return AffineMap2(m, (bx, by))

    def __eq__(self, other):
        return isinstance(other, AffineMap2) and self.m == other.m and self.b == other.b

    def __repr__(self):
        return "AffineMap2(%r, %r)" % (self.m, self.b)


class LaurentPoly2:
    """Integer Laurent polynomial in two commuting invertible variables."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                k = (k[0], k[1])
                c = d.get(k, 0) + c
                if c:
                    d[k] = c
                else:
                    d.pop(k, None)
        self.terms = d

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, a, b, c=1):
        return cls({(a, b): c}) if c else cls()

    def is_zero(self):
        return not self.terms

    def coeff(self, a, b):
        return self.terms.get((a, b), 0)

    def support(self):
        return sorted(self.terms)

    def add(self, other):
        if not isinstance(other, LaurentPoly2):
            raise TypeError("arity mismatch: expected a two-variable polynomial")
        d = dict(self.terms)
        for k, c in other.terms.items():
            c = d.get(k, 0) + c
            if c:
                d[k] = c
            else:
                del d[k]
        p = LaurentPoly2.__new__(LaurentPoly2)
        p.terms = d
        return p

    __add__ = add

    def neg(self):
        p = LaurentPoly2.__new__(LaurentPoly2)
        p.terms = {k: -c for k, c in self.terms.items()}
        return p

    __neg__ = neg

    def sub(self, other):
        return self.add(other.neg())

    __sub__ = sub

    def scale(self, a):
        if a == 0:
            return LaurentPoly2()
        p = LaurentPoly2.__new__(LaurentPoly2)
        p.terms = {k: a * c for k, c in self.terms.items()}
        return p

    def reindex(self, amap, sign=1):
        """Send each monomial (a, b) to amap(a, b), coefficients times sign."""
        if not isinstance(amap, AffineMap2):
            amap = AffineMap2(*amap)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        d = {}
        for (a, b), c in self.terms.items():
            k = amap.apply(a, b)
            c2 = d.get(k, 0) + sign * c
            if c2:
                d[k] = c2
            else:
                d.pop(k, None)
        p = LaurentPoly2.__new__(LaurentPoly2)
        p.terms = d
        return p

    def __eq__(self, other):
        return isinstance(other, LaurentPoly2) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for a, b in sorted(self.terms):
            c = self.terms[(a, b)]
            bits.append("%+d*t1^%d*t2^%d" % (c, a, b))
        return "".join(bits)

    def to_json(self):
        return {"terms": [{"e1": a, "e2": b, "c": str(self.terms[(a, b)])}
                          for a, b in sorted(self.terms)]}

    @classmethod
    def from_json(cls, obj):
        return cls(((json_int(t, "e1"), json_int(t, "e2")), json_int(t, "c"))
                   for t in obj.get("terms", []))
