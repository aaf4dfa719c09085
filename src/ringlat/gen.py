"""Seeded generation of valid extensions for property-test campaigns.

Local algebras are built as quotients of two-variable polynomial algebras by
monomial ideals (a random staircase of standard monomials), so associativity
holds by construction and never needs a rejection pass.  Field steps come
from irreducible polynomials over the base field.  Every emitted instance is
validated and checked against the requested shape; identical seeds give
identical streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import gfq
from .algebra import (
    Algebra,
    AlgebraError,
    Extension,
    generated_subalgebra,
    make_poly_quotient,
    make_product,
)
from .analysis import Analysis
from .canonical import is_subintegral
from .gfq import GF, check_field_size, irreducible_poly, prime_power

SHAPES = ("local-subintegral", "product-of-locals", "field-tower", "mixed")
REJECTION_BUDGET = 10_000


class RejectionExhausted(RuntimeError):
    def __init__(self, shape, attempts, accepted):
        ratio = accepted / attempts if attempts else 0.0
        super().__init__(f"shape {shape!r}: {accepted}/{attempts} accepted "
                         f"(ratio {ratio:.3f}); rejection budget exhausted")


@dataclass(frozen=True)
class GenSpec:
    seed: int = 0
    q: int = 2
    max_dim: int = 5
    shape: str = "mixed"
    count: int = 1

    def __post_init__(self):
        check_field_size(self.q, prime_power(self.q)[1])  # builds no field
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; pick one of {SHAPES}")
        if not 1 <= self.max_dim <= 8:
            raise ValueError("max_dim must lie in 1..8")
        if self.count < 0:
            raise ValueError("count must be 0 or more")


def staircase_monomials(rng, size):
    """A random downward-closed set of monomials (i, j) of the given size."""
    cells = {(0, 0)}
    while len(cells) < size:
        frontier = sorted(
            (i, j)
            for i, j in {(i + 1, j) for i, j in cells} | {(i, j + 1) for i, j in cells}
            if (i, j) not in cells
            and (i == 0 or (i - 1, j) in cells)
            and (j == 0 or (i, j - 1) in cells)
        )
        cells.add(frontier[rng.randrange(len(frontier))])
    return tuple(sorted(cells))


def monomial_algebra(field, monomials):
    """Quotient of field[Y1, Y2] by the monomial ideal off the staircase."""
    mons = tuple(sorted(monomials))
    index = {m: k for k, m in enumerate(mons)}
    if (0, 0) not in index:
        raise AlgebraError("staircase must contain the unit monomial")
    n = len(mons)
    table = []
    for a in mons:
        row = []
        for b in mons:
            prod = (a[0] + b[0], a[1] + b[1])
            k = index.get(prod)
            row.append(tuple(1 if k == m else 0 for m in range(n)))
        table.append(tuple(row))
    one = tuple(1 if m == index[(0, 0)] else 0 for m in range(n))
    return Algebra(field, table, one)


def field_step_algebra(field, degree):
    """The degree-m field extension of the base field, as an algebra."""
    return make_poly_quotient(field, irreducible_poly(field, degree))


def _random_vector(rng, field, dim, support=None):
    v = [0] * dim
    positions = support if support is not None else range(dim)
    for i in positions:
        v[i] = rng.randrange(field.q)
    return gfq.vector(field, v)


def _random_bottom(rng, field, S, nilpotent_support=None):
    k = rng.randrange(3)
    gens = [_random_vector(rng, field, S.dim, nilpotent_support) for _ in range(k)]
    return generated_subalgebra(S, gens)


def _attempt(rng, field, shape, max_dim):
    if shape == "mixed":
        shape = SHAPES[rng.randrange(3)]
    if shape == "field-tower":
        m = rng.randrange(2, max(3, max_dim + 1))
        S = field_step_algebra(field, m)
        return Extension(generated_subalgebra(S, []), S), shape
    if shape == "local-subintegral":
        size = rng.randrange(2, max_dim + 1)
        S = monomial_algebra(field, staircase_monomials(rng, size))
        nilpotent = [i for i in range(S.dim) if S.basis_vec(i) != S.one]
        R = _random_bottom(rng, field, S, nilpotent)
        return Extension(R, S), shape
    # product-of-locals
    budget = max_dim
    factors = []
    while budget >= 1 and (len(factors) < 2 or rng.randrange(2)):
        use_field = budget >= 2 and rng.randrange(3) == 0
        if use_field:
            d = rng.randrange(2, budget + 1)
            factors.append(field_step_algebra(field, d))
        else:
            d = rng.randrange(1, budget + 1)
            factors.append(monomial_algebra(field, staircase_monomials(rng, d)))
        budget -= factors[-1].dim
    if len(factors) < 2:
        factors.append(monomial_algebra(field, ((0, 0),)))
    S = make_product(*factors)
    R = _random_bottom(rng, field, S)
    return Extension(R, S), shape


def _shape_ok(ext, shape):
    if ext.is_trivial:
        return False
    if shape == "local-subintegral":
        an = Analysis()
        return an.frobenius_counts(ext.bottom)[0] == 1 and is_subintegral(ext, an)
    return True


def random_extension(spec):
    """Deterministic stream of validated extensions matching the spec shape."""
    p, e = prime_power(spec.q)
    field = GF(p, e)
    rng = random.Random(spec.seed)
    emitted = 0
    attempts = 0
    while emitted < spec.count:
        if attempts - emitted >= REJECTION_BUDGET:
            raise RejectionExhausted(spec.shape, attempts, emitted)
        attempts += 1
        ext, shape = _attempt(rng, field, spec.shape, spec.max_dim)
        if not _shape_ok(ext, shape):
            continue
        emitted += 1
        yield ext
