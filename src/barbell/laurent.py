"""Sparse term algebra over arbitrary-precision integers.

`combine` sums (key, coeff) pairs into key -> coeff with no zero ever
stored; every sparse class but DClass normalises through it.
`Terms` is the free Z-module arithmetic on such dicts.  Here it backs
the Laurent polynomials in one variable t and in two commuting
invertible variables (t1, t2).
"""

import re
from itertools import chain

from . import DomainError

_DECIMAL = re.compile(r"-?[0-9]+")
_END = object()  # closes the last run in Terms.sum


def json_int(value, key):
    """The int that a JSON payload term holds under key: an integer, or a
    decimal string of an optional "-" and ASCII digits only; never bool,
    float, "+1", "1_0" or " 1"."""
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError("%s must be an integer or a decimal string, got %r" % (key, value))
    return value


def term_items(terms):
    """The (key, coeff) pairs of a dict, of an iterable of such pairs, or of
    None (no pairs)."""
    return terms.items() if isinstance(terms, dict) else terms or ()


def combine(terms):
    """key -> summed coeff of term_items(terms), with no zero stored."""
    d = {}
    for k, c in term_items(terms):
        c = d.get(k, 0) + c
        if c:
            d[k] = c
        else:
            d.pop(k, None)
    return d


class Terms:
    """Sparse integer combination of basis keys, stored as key -> coeff.

    Zero coefficients are never stored, so equality is structural.  A
    subclass names its JSON key fields in FIELDS (one field: the key is an
    int; several: a tuple of ints) and its printed term in TERM, a format
    applied to (coeff, *key).  Arithmetic never mixes two subclasses.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = combine(terms)

    @classmethod
    def sum(cls, items):
        """Sum of an iterable of cls instances, summed in one combine pass.

        A run of m consecutive references to one object streams its terms
        once, each coefficient times m; only the current run is held.
        """
        def pairs():
            run, m = _END, 0
            for x in chain(items, (_END,)):
                if x is run:
                    m += 1
                    continue
                if m == 1:
                    yield from run.terms.items()
                elif m:
                    yield from ((k, m * c) for k, c in run.terms.items())
                if type(x) is not cls and x is not _END:
                    raise TypeError("cannot add %s to %s" % (type(x).__name__, cls.__name__))
                run, m = x, 1
        out = object.__new__(cls)  # the items are normalised instances of cls
        out.terms = combine(pairs())
        return out

    def is_zero(self):
        return not self.terms

    def add(self, other):
        cls = type(self)
        if type(other) is not cls:
            raise TypeError("cannot add %s to %s" % (type(other).__name__, cls.__name__))
        out = object.__new__(cls)
        out.terms = combine(chain(self.terms.items(), other.terms.items()))
        return out

    __add__ = add

    def neg(self):
        out = object.__new__(type(self))
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    __neg__ = neg

    def sub(self, other):
        return self.add(other.neg())

    __sub__ = sub

    def scale(self, a):
        out = object.__new__(type(self))
        out.terms = {k: a * c for k, c in self.terms.items()} if a else {}
        return out

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def _key_tuples(self):
        # (key fields as a tuple, coeff) in key order
        one = len(self.FIELDS) == 1
        return [((k,) if one else k, c) for k, c in sorted(self.terms.items())]

    def __repr__(self):
        return "".join(self.TERM % ((c,) + k) for k, c in self._key_tuples()) or "0"

    def to_json(self):
        return {"terms": [dict(zip(self.FIELDS, k), c=str(c)) for k, c in self._key_tuples()]}

    @classmethod
    def from_json(cls, obj):
        terms = obj.get("terms") if isinstance(obj, dict) else None
        if not isinstance(terms, list):
            raise DomainError('expected an object with a "terms" list')
        for key in obj:
            if key != "terms":
                raise DomainError("unknown key %r next to \"terms\"" % (key,))
        keys, one = cls.FIELDS + ("c",), len(cls.FIELDS) == 1
        pairs = []
        for t in terms:
            t = t if isinstance(t, dict) else {}  # a non-object lacks every key
            vals = []
            for key in keys:  # FIELDS, then c: the first error wins
                if key not in t:
                    raise DomainError("each term must be an object with an integer %s" % key)
                vals.append(json_int(t[key], key))
            c = vals.pop()
            pairs.append((vals[0] if one else tuple(vals), c))
        return cls(pairs)


class LaurentPoly1(Terms):
    """Integer Laurent polynomial in one variable."""

    __slots__ = ()
    FIELDS = ("e",)
    TERM = "%+d*t^%d"


class LaurentPoly2(Terms):
    """Integer Laurent polynomial in two commuting invertible variables."""

    __slots__ = ()
    FIELDS = ("e1", "e2")
    TERM = "%+d*t1^%d*t2^%d"

    @classmethod
    def monomial(cls, a, b, c=1):
        return cls({(a, b): c})

