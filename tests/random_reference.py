"""The ``Fraction``-built random polynomials that ``verification.random_poly`` replaced.

It is kept as a test oracle: each coefficient is drawn as a ``Fraction``,
the coefficients of one monomial are summed as ``Fraction`` values, and the
field goes through the validating ``PolyField`` constructor.  The draws from
``rng`` are the ones ``verification.random_poly`` and ``random_fraction``
must make, in the same order.  Its stdlib ``randint`` and ``randrange``
calls are also the oracle of ``verification._below``, the one integer draw
rule: each draw through ``_below`` must give the value and the
``getstate()`` that the stdlib call gives here.
"""

import random
from fractions import Fraction

from hodge4d.fields import PolyField


def random_fraction(rng: random.Random, zero_ok=True) -> Fraction:
    num = rng.randint(-4, 4)
    if not zero_ok:
        while num == 0:
            num = rng.randint(-4, 4)
    return Fraction(num, rng.randint(1, 4))


def random_poly(rng: random.Random, max_degree=3, max_terms=4) -> PolyField:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0, 0, 0, 0]
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(4)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + random_fraction(rng)
    return PolyField(terms)
