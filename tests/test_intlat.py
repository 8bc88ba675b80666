import collections
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain, permutations

import pytest

import barbell
from barbell import selfcheck
from barbell.hexagon import orbit_of, orbit_relators
from barbell.intlat import (IntMatrix, IntegerRowSpan, QuotientStructure,
                            cokernel_structure, rank_over_rationals, smith_normal_form)
from barbell.lambda_group import LambdaContext, relator_matrix


def fraction_rank(m):
    # independent oracle: plain Gaussian elimination over Fraction
    a = [[Fraction(x) for x in row] for row in m.data]
    rank = 0
    for col in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(m.rows):
            if i != rank and a[i][col]:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def spans_whole_lattice(x):
    # the selfcheck's unimodularity criterion: the rows of the square x span Z^n
    return IntegerRowSpan(x.data).equals(IntegerRowSpan(IntMatrix.identity(x.rows).data))


def rand_matrix(rng, max_dim=6, max_entry=9):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return IntMatrix(rows, cols, [[rng.randrange(-max_entry, max_entry + 1)
                                   for _ in range(cols)] for _ in range(rows)])


def test_snf_diag_2_3():
    d, u, v = smith_normal_form(IntMatrix(2, 2, [[2, 0], [0, 3]]))
    assert d.diagonal() == [1, 6]
    assert u.mul(IntMatrix(2, 2, [[2, 0], [0, 3]])).mul(v) == d


def test_snf_zero_and_identity():
    z = IntMatrix(3, 2)
    d, _, _ = smith_normal_form(z)
    assert d == z
    i = IntMatrix.identity(4)
    d, _, _ = smith_normal_form(i)
    assert d == i


def test_snf_certificate_random():
    rng = random.Random(17)
    for _ in range(60):
        m = rand_matrix(rng)
        d, u, v = smith_normal_form(m)
        assert u.mul(m).mul(v) == d
        assert spans_whole_lattice(u)
        assert spans_whole_lattice(v)
        diag = [x for x in d.diagonal() if x]
        assert all(x > 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # off-diagonal entries are all cleared
        for i in range(m.rows):
            for j in range(m.cols):
                if i != j:
                    assert d.data[i][j] == 0


def test_snf_certificate_large_entries():
    rng = random.Random(101)
    m = IntMatrix(10, 10, [[rng.randrange(-10 ** 6, 10 ** 6 + 1) for _ in range(10)]
                           for _ in range(10)])
    d, u, v = smith_normal_form(m)
    assert u.mul(m).mul(v) == d
    assert spans_whole_lattice(u)
    assert spans_whole_lattice(v)
    diag = [x for x in d.diagonal() if x]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def snf_corpus():
    # seeded random matrices (empty shapes and entries up to 10^6 among
    # them), every hexagon orbit's relators on [-6,6]^2 and the lambda
    # relator matrices on [-20, 20]
    rng = random.Random(1414)
    for _ in range(400):
        rows, cols = rng.randrange(0, 9), rng.randrange(0, 9)
        density = rng.choice((0.2, 0.5, 1.0))
        top = rng.choice((9, 1000, 10 ** 6))
        yield IntMatrix(rows, cols, [[rng.randrange(-top, top + 1) if rng.random() < density else 0
                                      for _ in range(cols)] for _ in range(rows)])
    for n in (3, 4):
        for a in range(-6, 7):
            for b in range(-6, 7):
                yield orbit_relators(orbit_of(a, b), n)
    for w0 in range(-6, 7):
        for n in range(3, 7):
            yield relator_matrix(LambdaContext(w0, n), -20, 20)[0]


def test_snf_transforms_pinned():
    # d, u and v entry for entry: v is printed through the hexagon shape
    # table, so any change to the elimination order shows here first
    digest = hashlib.sha256()
    for m in snf_corpus():
        digest.update(("(%s)" % ", ".join("IntMatrix(%d, %d, %r)" % (x.rows, x.cols, x.data)
                                          for x in smith_normal_form(m))).encode())
    assert digest.hexdigest() == \
        "525e9276982ff2f521ea0f2ca19f4a332ff5ba3df81773edaf3a813807d71c43"


def test_rank_matches_snf():
    rng = random.Random(23)
    for _ in range(60):
        m = rand_matrix(rng)
        d, _, _ = smith_normal_form(m)
        assert rank_over_rationals(m) == sum(1 for x in d.diagonal() if x)


def test_rank_examples():
    assert rank_over_rationals(IntMatrix.identity(5)) == 5
    assert rank_over_rationals(IntMatrix(2, 2, [[1, 2], [2, 4]])) == 1


def sparse_matrix(rng, rows, cols, density, max_entry=30):
    return IntMatrix(rows, cols, [[rng.randrange(-max_entry, max_entry + 1)
                                   if rng.random() < density else 0
                                   for _ in range(cols)] for _ in range(rows)])


def block_matrix(rng, shapes, shared=0):
    # blocks stacked on the diagonal; with shared > 0, each block also
    # spills into the first `shared` columns of the next block
    rows = sum(r for r, _ in shapes)
    cols = sum(c for _, c in shapes)
    m = IntMatrix(rows, cols)
    r0 = c0 = 0
    for r, c in shapes:
        width = min(c + shared, cols - c0)
        block = sparse_matrix(rng, r, width, rng.choice((0.3, 0.7, 1.0)))
        for i in range(r):
            m.data[r0 + i][c0:c0 + width] = block.data[i]
        r0, c0 = r0 + r, c0 + c
    return m


def sparse_rank(m):
    # the same matrix as {column: value} rows, ranked by their integer echelon
    return len(IntegerRowSpan({j: x for j, x in enumerate(row) if x} for row in m.data).rows)


def test_rank_against_fraction_elimination():
    rng = random.Random(77)

    def check(m):
        assert rank_over_rationals(m) == sparse_rank(m) == fraction_rank(m)

    for _ in range(80):
        check(rand_matrix(rng, max_dim=8, max_entry=30))
    for _ in range(60):
        # sparse: many zero rows and columns
        check(sparse_matrix(rng, rng.randrange(1, 16), rng.randrange(1, 16),
                            rng.choice((0.05, 0.15, 0.3))))
    for _ in range(60):
        shapes = [(rng.randrange(1, 4), rng.randrange(1, 7))
                  for _ in range(rng.randrange(1, 8))]
        for shared in (0, 1, 2):
            check(block_matrix(rng, shapes, shared))
        # the independence shape: one 1 x 6 block per row
        check(block_matrix(rng, [(1, 6)] * 12))
    check(IntMatrix(0, 5))
    check(IntMatrix(4, 0))
    assert rank_over_rationals(IntMatrix(0, 5)) == 0
    assert rank_over_rationals(IntMatrix(4, 0)) == 0


def permutation_determinant(m):
    # independent oracle: the Leibniz expansion over all permutations
    total = 0
    for perm in permutations(range(m.rows)):
        inversions = sum(1 for i in range(m.rows) for j in range(i + 1, m.rows)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m.data[i][j]
        total += term
    return total


def test_unimodular_criterion_against_permutation_expansion():
    # rows spanning Z^n agrees with the Leibniz determinant being +-1 on
    # random square matrices, on Smith transforms and on singular matrices
    rng = random.Random(53)
    verdicts = collections.Counter()

    def check(m):
        verdict = spans_whole_lattice(m)
        assert verdict == (permutation_determinant(m) in (1, -1))
        verdicts[verdict] += 1

    for n in range(6):
        for _ in range(40):
            m = sparse_matrix(rng, n, n, rng.choice((0.3, 0.7, 1.0)), rng.choice((1, 2, 9)))
            check(m)
            if n >= 2:
                # singular: the last row is a combination of earlier ones
                m.data[-1] = [2 * a - 3 * b for a, b in zip(m.data[0], m.data[n - 2])]
                check(m)
            _, u, v = smith_normal_form(sparse_matrix(rng, n, rng.randrange(6), 0.7))
            check(u)
            check(v)
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_snf_certificate_check_catches_a_non_unimodular_transform(monkeypatch):
    # (2D, 2U, V) still satisfies U*M*V = D, but 2U's rows span only 2Z^n
    good = selfcheck.smith_normal_form

    def doubled(m):
        d, u, v = good(m)
        twice = lambda x: IntMatrix(x.rows, x.cols, [[2 * c for c in r] for r in x.data])
        return twice(d), twice(u), v

    monkeypatch.setattr(selfcheck, "smith_normal_form", doubled)
    with pytest.raises(selfcheck.CheckFailure) as exc:
        selfcheck.check_snf_certificate(12)
    assert str(exc.value) == "transform not unimodular"
    # run puts the check's name, from CHECKS, in front of the detail
    _, results = selfcheck.run(3)
    assert ("snf certificate", False, "snf certificate: transform not unimodular") in results


def test_independence_loads_neither_fractions_nor_decimal():
    # the rank is an integer echelon, so a fresh interpreter never imports
    # fractions (nor the decimal it pulls in) on the way to the answer
    script = ("import sys; from barbell.cli import main; "
              "code = main(['independence', '--kmin', '4', '--kmax', '40']); "
              "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(barbell.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.stderr == "0 []\n"
    assert "rank 37 / 37" in run.stdout


def test_cokernel_examples():
    assert cokernel_structure(IntMatrix(1, 1, [[2]])) == QuotientStructure(0, (2,))
    assert cokernel_structure(IntMatrix(0, 4)) == QuotientStructure(4)


def test_cokernel_invariant_under_row_ops():
    rng = random.Random(31)
    for _ in range(40):
        m = rand_matrix(rng, max_dim=5)
        base = cokernel_structure(m)
        data = [row[:] for row in m.data]
        i, j = rng.randrange(m.rows), rng.randrange(m.rows)
        data[i], data[j] = data[j], data[i]
        assert cokernel_structure(IntMatrix(m.rows, m.cols, data)) == base
        data[i] = [-x for x in data[i]]
        assert cokernel_structure(IntMatrix(m.rows, m.cols, data)) == base
        if i != j:
            data[i] = [a + b for a, b in zip(data[i], data[j])]
            assert cokernel_structure(IntMatrix(m.rows, m.cols, data)) == base


def test_row_span_membership_agrees_with_snf():
    # v in rowspan(M) iff (v . V) is divisible entrywise by the SNF diagonal
    rng = random.Random(41)
    # after small random matrices, rows that need many Euclid steps, with
    # entries past 64 bits: consecutive Fibonacci pivots, entries near 10^30
    fib = [0, 1]
    while len(fib) <= 200:
        fib.append(fib[-2] + fib[-1])
    e = 10 ** 30
    big_rng = random.Random(43)
    big = [IntMatrix(2, 3, [[fib[200], e + 1, -e], [fib[199], e, 3]]),
           IntMatrix(3, 4, [[fib[150], fib[149], e + 7, 1], [fib[149], fib[148], -e, 0],
                            [0, fib[90], fib[89], e]]),
           IntMatrix(4, 4, [[big_rng.randrange(-e, e) for _ in range(4)] for _ in range(4)])]
    for m in chain((rand_matrix(rng, max_dim=5, max_entry=4) for _ in range(40)), big):
        d, _, v = smith_normal_form(m)
        diag = d.diagonal()
        span = IntegerRowSpan(m.data)
        # echelon rows: sparse, no zero stored, positive pivot at their least
        # column, one row per pivot column and so as many rows as the rank
        for j, row in span.rows.items():
            assert 0 not in row.values() and min(row) == j and row[j] > 0
        assert len(span.rows) == sum(1 for dj in diag if dj)
        # random small vectors, then a combination of the rows and it plus e_0
        queries = [[rng.randrange(-6, 7) for _ in range(m.cols)] for _ in range(8)]
        combo = [sum((-1) ** i * (i + 2) * row[j] for i, row in enumerate(m.data))
                 for j in range(m.cols)]
        for vec in queries + [combo, [combo[0] + 1] + combo[1:]]:
            y = [sum(vec[i] * v.data[i][j] for i in range(m.cols))
                 for j in range(m.cols)]
            ok = True
            for j in range(m.cols):
                dj = diag[j] if j < len(diag) else 0
                if dj == 0:
                    ok = ok and y[j] == 0
                else:
                    ok = ok and y[j] % dj == 0
            assert span.contains(vec) == ok


def test_integer_row_span_basic():
    span = IntegerRowSpan([[2, 0, 4], [0, 3, 0]])
    assert span.contains([2, 3, 4])
    assert span.contains([4, -3, 8])
    assert not span.contains([1, 0, 2])
    assert not span.contains([2, 0, 0])
    assert span.contains([0, 0, 0])


def test_integer_row_span_gcd_combination():
    span = IntegerRowSpan([[4, 1], [6, 0]])
    # x*[4,1] + y*[6,0]: Euclid on the pivot must find [2,-1] = [6,0] - [4,1]
    # and [0,3] = 3*[4,1] - 2*[6,0], but [2,1] needs y = -1/3
    assert span.contains([-2, 1])
    assert span.contains([0, 3])
    assert not span.contains([2, 1])
    assert not span.contains([0, 1])


def test_integer_row_span_equals():
    # strict containment is unequal both ways; two bases of one lattice are equal
    small, big = IntegerRowSpan([[2]]), IntegerRowSpan([[1]])
    assert not small.equals(big) and not big.equals(small)
    a = IntegerRowSpan([[2, 0, 4], [0, 3, 0]])
    b = IntegerRowSpan([[2, 3, 4], [-2, 0, -4]])
    assert a.equals(b) and b.equals(a)


def test_quotient_structure_validation():
    with pytest.raises(ValueError):
        QuotientStructure(1, (3, 2))
    with pytest.raises(ValueError):
        QuotientStructure(0, (1,))
    assert repr(QuotientStructure(3, (2,))) == "Z^3 + Z_2"


def test_records_check_their_fields_in_make_and_replace():
    with pytest.raises(ValueError):
        QuotientStructure._make([0, (1,)])
    with pytest.raises(ValueError):
        QuotientStructure(2, (2,))._replace(torsion=(3, 2))
    with pytest.raises(barbell.DomainError):
        LambdaContext(3, 4)._replace(n=2)
    assert QuotientStructure(2, (2,))._replace(free_rank=3) == QuotientStructure(3, (2,))
    assert LambdaContext._make([5, 4]) == LambdaContext(5, 4)
