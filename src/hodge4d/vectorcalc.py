"""Classical vector calculus on exact coefficient fields.

These helpers only use field differentiation and arithmetic; they never touch
the exterior-algebra machinery, so they serve as the oracle for the
component-wise expansion checks.  Each sum of derivatives or products goes
through ``signed_sum``, one pass per result: the kernel that ``forms`` sums
its images with, so the oracle shares that kernel with what it checks.
``tests/test_fields_oracle.py`` checks the kernel against ``Fraction``
arithmetic, and ``tests/test_vectorcalc.py`` each helper against its formula
in the fields' own ``+``, ``-``, ``*`` and ``diff``.
"""

from __future__ import annotations

from .fields import T, X, Y, Z, coerce_field, signed_sum


def gradient(u):
    return (u.diff(X), u.diff(Y), u.diff(Z))


def divergence(v):
    return signed_sum(((1, v[0], X), (1, v[1], Y), (1, v[2], Z)))


def curl(v):
    return (
        signed_sum(((1, v[2], Y), (-1, v[1], Z))),
        signed_sum(((1, v[0], Z), (-1, v[2], X))),
        signed_sum(((1, v[1], X), (-1, v[0], Y))),
    )


def _fields(v):
    """A vector's components as fields: a scalar in a product term would read as an axis."""
    return tuple(map(coerce_field, v))


def cross(a, b):
    a, b = _fields(a), _fields(b)
    return (
        signed_sum(((1, a[1], b[2]), (-1, a[2], b[1]))),
        signed_sum(((1, a[2], b[0]), (-1, a[0], b[2]))),
        signed_sum(((1, a[0], b[1]), (-1, a[1], b[0]))),
    )


def dot(a, b):
    a, b = _fields(a), _fields(b)
    return signed_sum(((1, a[0], b[0]), (1, a[1], b[1]), (1, a[2], b[2])))


def scale(v, factor):
    return tuple(factor * c for c in v)


def laplacian(u):
    return signed_sum(((1, u.diff(X), X), (1, u.diff(Y), Y), (1, u.diff(Z), Z)))


def time_derivative(u, order=1):
    for _ in range(order):
        u = u.diff(T)
    return u
