"""Fundamental-class algebra on the free module spanned by G(p,q).

All derived families reduce to fixed integer combinations of the
primitive classes:

    G*(p,q) = -G(p, p-q)
    E(p,q)  = -G(-q, p) + G(p, -q)
    D(p,q)  = -E(q, p) - E(p, q)
            = -G(q,-p) + G(-q,p) - G(p,-q) + G(-p,q)

The (k-1) x (k-1) matrix F_k factors the symmetric k-strand family; it
is skew symmetric with zero total sum, and twisting multiplies rows and
columns by the twist vectors.  Every entry of F_k is an integer
combination of D's, through the five roman forms, so the entries are
built once, as DClass values over canonical D keys (f_closed_d,
f_levels_d), and the G-valued f_closed, f_levels, twist_class and delta
are their expansions.  Distinct canonical D's expand to
disjoint G supports, so the expansion is injective and an F_k identity
may be checked in either basis.  The third-order invariant sends G(p,q)
to the monomial t1^p t2^q on [w13, w23] (global sign fixed to +1).
Each class is built once, from a flat list of (key, coeff) pairs.
"""

from . import DomainError
from .hexagon import hex_normal_form
from .intlat import IntegerRowSpan
from .laurent import LaurentPoly2, Terms, term_items

ROMAN_FORMS = ("I", "IIb", "IIbe", "IIr", "IIre")


class GClass(Terms):
    """Integer combination of the primitive classes G(p,q)."""

    __slots__ = ()
    FIELDS = ("p", "q")
    TERM = "%+d*G(%d,%d)"


def g(p, q):
    return GClass({(p, q): 1})


def gstar(p, q):
    return GClass({(p, p - q): -1})


def e(p, q):
    return GClass([((-q, p), -1), ((p, -q), 1)])


class DClass(Terms):
    """Integer combination of the classes D(x,y), each key canonical.

    D(y,x) = D(x,y) and D(-x,-y) = -D(x,y) rewrite every key into the
    form x >= y, x + y > 0; D(x,-x) = 0 is dropped.  The G key (a,b)
    occurs only in the expansion of the D-orbit of (a,-b), so distinct
    canonical keys expand to disjoint nonzero G supports: `expand` is
    injective, and an identity holds in the D basis exactly when its G
    expansion does.
    """

    __slots__ = ()
    FIELDS = ("x", "y")
    TERM = "%+d*D(%d,%d)"

    def __init__(self, terms=None):
        d = {}
        for (x, y), c in term_items(terms):
            s = x + y
            if s < 0:
                x, y, c = -x, -y, -c
            elif not s:
                continue
            key = (x, y) if x >= y else (y, x)
            c += d.get(key, 0)
            if c:
                d[key] = c
            else:
                d.pop(key, None)
        self.terms = d

    def expand(self):
        """The GClass of this combination, its dict built directly: the
        supports are disjoint, so no key is summed twice."""
        out = {}
        for (x, y), c in self.terms.items():
            if x == y:
                out[(x, -x)] = -2 * c
                out[(-x, x)] = 2 * c
            else:
                out[(y, -x)] = -c
                out[(-y, x)] = c
                out[(x, -y)] = -c
                out[(-x, y)] = c
        g = object.__new__(GClass)
        g.terms = out
        return g


def _roman(form, p, q, c):
    # the raw D (key, coeff) pairs of c times the roman form
    if form == "I":
        return [((p, -q), c)]
    if form == "IIb":
        return [((-q, p), c), ((p - q, -p), -c)]
    if form == "IIbe":
        return [((-q, p), c), ((-p - q, p), -c), ((p - q, -p), -c), ((-q, -p), c)]
    if form == "IIr":
        return [((p, -q), c), ((p - q, q), -c)]
    if form == "IIre":
        return [((p, -q), c), ((p + q, -q), -c), ((p - q, q), -c), ((p, q), c)]
    raise ValueError("unknown roman form %r" % (form,))


def _check_fk_args(k, p, q):
    if k < 2:
        raise DomainError("k must be >= 2")
    if not (1 <= p <= k - 1 and 1 <= q <= k - 1):
        raise DomainError("need 1 <= p, q <= k-1")


def _level_form(k, level, p, q):
    # the per-level case table: the roman form of the level-L entry, or
    # None for zero
    big_p = p >= k - level
    big_q = q >= level
    if big_p and big_q:
        return "I"
    if not big_p and not big_q:
        return None
    if big_p:  # q < level
        return "IIr" if p + q >= k else "IIre"
    # p < k - level, q >= level
    return "IIb" if p + q >= k else "IIbe"


def f_levels_d(k, p, q):
    """The level-L entries of the factored family for L = 1..k-1 in the D
    basis, by the per-level case table, one class built per distinct case:
    levels in the same case share one DClass object."""
    _check_fk_args(k, p, q)
    forms = [_level_form(k, level, p, q) for level in range(1, k)]
    built = {form: DClass(_roman(form, p, q, 1) if form else ())
             for form in dict.fromkeys(forms)}
    return tuple(map(built.__getitem__, forms))


def f_levels(k, p, q):
    """f_levels_d expanded to G, each shared class once, so levels in the
    same case still share one GClass object."""
    column = f_levels_d(k, p, q)
    built = {id(x): x.expand() for x in column}
    return tuple(built[id(x)] for x in column)


def _f_closed(k, p, q, c):
    # the raw D (key, coeff) pairs of c * F_k(p, q)
    if p + q < k:
        return _roman("IIre", p, q, c * p) + _roman("IIbe", p, q, c * q)
    return (_roman("IIb", p, q, c * (k - p - 1))
            + _roman("IIr", p, q, c * (k - q - 1))
            + _roman("I", p, q, c * (p + q + 1 - k)))


def f_closed_d(k, p, q):
    """Closed form of F_k(p,q) in the D basis, the sum of its f_levels_d
    entries."""
    _check_fk_args(k, p, q)
    return DClass(_f_closed(k, p, q, 1))


def f_closed(k, p, q):
    """Closed form of F_k(p,q), the sum of its f_levels entries."""
    return f_closed_d(k, p, q).expand()


def twist_class(k, v, w):
    """Class of the family twisted by integer vectors v, w of length k-1.

    Twisting scales row p of F_k by v_p and column q by w_q, so the total
    class is sum_{p,q} v_p w_q F_k(p,q).
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    if len(v) != k - 1 or len(w) != k - 1:
        raise DomainError("twist vectors must have length k-1")
    return DClass([pair for p in range(1, k) if v[p - 1] for q in range(1, k) if w[q - 1]
                   for pair in _f_closed(k, p, q, v[p - 1] * w[q - 1])]).expand()


def delta_expansion(k):
    # the published 8-term expansion of delta_k
    a = (GClass([((k - 2, k - 1), 1), ((k - 1, k - 2), -1),
                 ((1 - k, 2 - k), 1), ((2 - k, 1 - k), -1)])).scale(k - 1)
    b = GClass([((k - 2, -1), -1), ((-(k - 2), 1), 1),
                ((1, -(k - 2)), -1), ((-1, k - 2), 1)])
    return a - b


def delta(k):
    """The twisted class F_k(k-1, k-2), checked against its expansion."""
    if k < 3:
        raise DomainError("delta_k needs k >= 3")
    out = f_closed(k, k - 1, k - 2)
    if out != delta_expansion(k):
        raise AssertionError("delta_%d disagrees with its closed expansion" % k)
    return out


def w3(x):
    """Third-order invariant: G(p,q) -> t1^p t2^q [w13, w23], linearly, as
    the (t1, t2)-polynomial of the bracket's coefficient."""
    return LaurentPoly2(x.terms)


def independence_rank(classes, n):
    """Exact rank of the stacked W3 normal forms.

    Returns (rank, cols, rows).  Row i is the free-part coordinates of
    class i's normal form as a sparse {column: value} dict; the `cols`
    columns index the sorted union of touched (orbit rep, position)
    keys.  Each class touches only its own orbit blocks, so no dense
    matrix is built.  The rank is the number of rows in the integer
    echelon basis of `rows`, which equals their rank over Q; full rank
    certifies linear independence in the quotient group.
    """
    if not classes:
        raise DomainError("need at least one class")
    frees = [{(rep, pos): v for rep, coords in hex_normal_form(w3(x), n).orbits.items()
              for pos, (v, m) in enumerate(coords) if m == 0 and v} for x in classes]
    col_index = {c: i for i, c in enumerate(sorted(set().union(*frees)))}
    rows = [{col_index[key]: val for key, val in f.items()} for f in frees]
    return len(IntegerRowSpan(rows).rows), len(col_index), rows
