"""Exact integer-lattice normal forms: Smith form, row spans, rank.

Two algorithms, each exact in Python integers (never a float):

* the Smith normal form over Z of a dense `IntMatrix`: it derives the
  hexagon shape table, and is the oracle for the closed-form structures.
  Its row and column phases share one 2x2 row step: v is kept transposed,
  so a column operation is a row operation on the columns in play;
* an incremental echelon basis of an integer row span, for membership,
  span equality (so unimodularity: a square matrix whose rows span Z^n)
  and `rank_over_rationals`: an echelon basis over Z has as many rows as
  the rank over Q.

The row span takes {column: int} dicts or dense lists and keeps them
sparse. It reduces by Euclid on the pivot and shares no step with the
Smith form, so it checks the Smith transforms independently.
"""

from collections import namedtuple


class IntMatrix:
    """Dense integer matrix; rows and cols survive even when empty."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix data does not match declared shape")
            self.data = [list(r) for r in data]

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = IntMatrix(self.rows, other.cols)
        for i in range(self.rows):
            ai = self.data[i]
            oi = out.data[i]
            for k in range(self.cols):
                a = ai[k]
                if a:
                    bk = other.data[k]
                    for j in range(other.cols):
                        if bk[j]:
                            oi[j] += a * bk[j]
        return out

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)


class QuotientStructure(namedtuple("QuotientStructure", "free_rank torsion")):
    """Finitely generated abelian group: free rank plus invariant factors."""

    __slots__ = ()

    def __new__(cls, free_rank, torsion=()):
        torsion = tuple(torsion)
        if any(t < 2 for t in torsion):
            raise ValueError("torsion factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        return super().__new__(cls, free_rank, torsion)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # _replace runs the checks too

    def __repr__(self):
        parts = []
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z_%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _pivot_search(a, t, rows, cols):
    # first entry (row-major) of minimal nonzero absolute value in a[t:, t:]:
    # each row's least, by builtins, at its first column
    best = None
    best_abs = None
    for i in range(t, rows):
        row = list(map(abs, a[i][t:cols]))
        av = min(filter(None, row), default=None)
        if av is not None and (best_abs is None or av < best_abs):
            best, best_abs = (i, t + row.index(av)), av
            if av == 1:
                return best
    return best


def _gcd_step(p, q):
    # rows (x, y), (z, w) of a unimodular 2x2 matrix taking (p, q) to (g, 0),
    # g = gcd(p, q) > 0; extended Euclid finds x*p + y*q == g
    x, y, g, nx, ny, ng = 1, 0, p, 0, 1, q
    while ng:
        k = g // ng
        x, y, g, nx, ny, ng = nx, ny, ng, x - k * nx, y - k * ny, g - k * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return x, y, -(q // g), p // g


def _combine(a, u, t, i):
    # one 2x2 transform on rows (t, i) of a and of u: gcd(a[t][t], a[i][t])
    # lands at (t, t) and zero at (i, t); both rows of a are zero left of t.
    # When p | q row t must stay: the extended-gcd (x, y) can differ from (1, 0)
    # Only columns where a row is nonzero are touched.
    p, q = a[t][t], a[i][t]
    pairs = ((a[t], a[i], t), (u[t], u[i], 0))
    if q % p == 0:
        f = q // p
        for r, s, start in pairs:
            for j in range(start, len(r)):
                if r[j]:
                    s[j] -= f * r[j]
        return
    x, y, z, w = _gcd_step(p, q)
    for r, s, start in pairs:
        for j in range(start, len(r)):
            rj, sj = r[j], s[j]
            if rj or sj:
                r[j], s[j] = x * rj + y * sj, z * rj + w * sj


def _clear(a, u, t, lines):
    # zero column t of each of a's `lines` into row t
    for i in lines:
        if a[i][t]:
            _combine(a, u, t, i)


def smith_normal_form(m):
    """Diagonalize m over Z.

    Returns (d, u, v) with d = u * m * v, u and v unimodular, and the
    diagonal of d nonnegative with each entry dividing the next.  Each
    elimination step is a single extended-gcd 2x2 transform (so a pivot
    becomes the gcd of its line in one pass), with the smallest nonzero
    entry of the remaining submatrix promoted first; both choices keep
    coefficient growth tame.
    """
    rows, cols = m.rows, m.cols
    a = [row[:] for row in m.data]
    u = IntMatrix.identity(rows).data
    vt = IntMatrix.identity(cols).data
    for t in range(min(rows, cols)):
        piv = _pivot_search(a, t, rows, cols)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            vt[t], vt[pj] = vt[pj], vt[t]
        while True:
            _clear(a, u, t, range(t + 1, rows))
            # each column operation touches only column t and its partner,
            # so the partners are fixed before the sweep; rows above t are zero
            js = [j for j in range(t + 1, cols) if a[t][j]]
            if js:
                lines = {j: [row[j] for row in a] for j in [t] + js}
                _clear(lines, vt, t, js)
                for j, line in lines.items():
                    for i in range(t, rows):
                        a[i][j] = line[i]
                # a column combine may resurrect entries below the pivot
                if any(a[i][t] for i in range(t + 1, rows)):
                    continue
            # the pivot must divide the remaining block (a unit always does);
            # if it does not, fold the offending row in and restart the loop
            p = a[t][t]
            if p in (1, -1):
                break
            offender = None
            for i in range(t + 1, rows):
                ai = a[i]
                for j in range(t + 1, cols):
                    if ai[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            ai, at = a[offender], a[t]
            for j in range(t, cols):
                at[j] += ai[j]
            ui, ut = u[offender], u[t]
            for j in range(rows):
                ut[j] += ui[j]
        if a[t][t] < 0:
            for j in range(t, cols):
                a[t][j] = -a[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
    return (IntMatrix(rows, cols, a), IntMatrix(rows, rows, u),
            IntMatrix(cols, cols, list(zip(*vt))))


def _nonzero(row):
    """(column, value) of each nonzero entry of a {column: int} dict or dense list."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return ((j, c) for j, c in items if c)


def _subtract(v, q, row):
    # v -= q * row, in place on sparse {column: value} dicts; no zero stored
    for k, c in row.items():
        c = v.get(k, 0) - q * c
        if c:
            v[k] = c
        else:
            v.pop(k, None)


def cokernel_structure(relations):
    """Structure of Z^cols / (integer row span of `relations`)."""
    d, _, _ = smith_normal_form(relations)
    diag = [x for x in d.diagonal() if x]
    free_rank = relations.cols - len(diag)
    torsion = [x for x in diag if x > 1]
    return QuotientStructure(free_rank, torsion)


class IntegerRowSpan:
    """Incremental echelon basis for an integer row span.

    Rows are sparse (column -> coefficient), with a positive pivot at their
    least column.  `contains` divides exactly at each pivot; `add` runs
    Euclid there, swapping in a remainder 0 < v[j] < row[j] and reducing the
    displaced row on, so the stored pivot falls at each swap and `add` ends.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows = {}  # pivot column -> sparse row
        for row in rows:
            self.add(row)

    def add(self, vec):
        v = dict(_nonzero(vec))
        while v:
            j = min(v)
            row = self.rows.get(j)
            if row is None:
                if v[j] < 0:
                    v = {k: -c for k, c in v.items()}
                self.rows[j] = v
                return
            _subtract(v, v[j] // row[j], row)
            if j in v:  # 0 < v[j] < row[j]: v takes the pivot, row reduces on
                self.rows[j], v = v, row

    def contains(self, vec):
        v = dict(_nonzero(vec))
        while v:
            j = min(v)
            row = self.rows.get(j)
            if row is None or v[j] % row[j]:
                return False
            _subtract(v, v[j] // row[j], row)
        return True

    def equals(self, other):
        return (all(self.contains(r) for r in other.rows.values())
                and all(other.contains(r) for r in self.rows.values()))


def rank_over_rationals(m):
    """Rank of the IntMatrix m over Q: the number of echelon rows of its Z-span."""
    return len(IntegerRowSpan(m.data).rows)
