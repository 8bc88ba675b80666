"""Exact calculator for the second- and third-order isotopy invariants
of arcs and circles in S^1 x B^n: Laurent-quotient target groups, the
hexagon quotient, the G/E/D class algebra with its F_k factorization,
twisted classes, and rank certificates for their independence.

Every output depends on the sphere dimension n only through n mod 2,
apart from the rule n >= 3 and the n a command echoes, so checks at
n = 3 and 4 cover every n.
"""

__version__ = "0.1.0"


class DomainError(ValueError):
    """An argument outside the mathematical domain, such as n < 3 or
    k < 2.  The CLI reports it with exit 2; any other ValueError is an
    internal fault and exits 3."""


def check_sphere_dimension(n):
    if n < 3:
        raise DomainError("sphere dimension n must be >= 3")
