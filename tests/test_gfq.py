import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import gfq
from ringlat.gfq import (
    GF,
    all_rref_matrices,
    complement_in,
    count_subspaces,
    express,
    in_span,
    intersect_rowspaces,
    irreducible_poly,
    left_kernel,
    prime_power,
    reduce_vec,
    rref,
)

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 6)]


@pytest.mark.parametrize("p,e", FIELDS)
def test_field_axioms_exhaustive(p, e):
    F = GF(p, e)
    q = F.q
    for a in range(q):
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b in itertools.product(range(q), repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    sample = range(q) if q <= 9 else range(0, q, 5)
    for a, b, c in itertools.product(sample, repeat=3):
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("p,e", FIELDS)
def test_frobenius_fixes_everything(p, e):
    F = GF(p, e)
    for a in range(F.q):
        t = 1
        for _ in range(F.q):
            t = F.mul(t, a)
        assert t == a or (a == 0 and t == 0)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(1, 0, 1))  # Y^2 + 1 = (Y+1)^2 over GF(2)
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(1, 1, 0))  # not monic
    with pytest.raises(ValueError):
        GF(4)  # not prime


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    with pytest.raises(ValueError):
        prime_power(12)


def test_irreducible_poly_search():
    F2 = GF(2)
    assert irreducible_poly(F2, 2) == (1, 1, 1)
    F4 = GF(2, 2)
    f = irreducible_poly(F4, 2)
    assert gfq.poly_is_irreducible(F4, f)


@st.composite
def matrices(draw):
    q_choice = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    F = GF(*q_choice)
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    rows = tuple(tuple(draw(st.integers(0, F.q - 1)) for _ in range(n))
                 for _ in range(m))
    return F, rows


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent_and_canonical(data):
    F, rows = data
    red = rref(F, rows)
    assert rref(F, red) == red
    for v in rows:
        assert in_span(F, red, v)
    pivots = gfq.pivots_of(red)
    assert list(pivots) == sorted(pivots)
    for i, row in enumerate(red):
        for j, other in enumerate(red):
            if i != j:
                assert other[pivots[i]] == 0


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_left_kernel_annihilates(data):
    F, rows = data
    for coeffs in left_kernel(F, rows):
        acc = gfq.zero_vec(len(rows[0]))
        for c, r in zip(coeffs, rows):
            acc = gfq.vadd(F, acc, gfq.vscale(F, c, r))
        assert not any(acc)


def _combine(F, coeffs, rows):
    acc = gfq.zero_vec(len(rows[0]))
    for c, r in zip(coeffs, rows):
        acc = gfq.vadd(F, acc, gfq.vscale(F, c, r))
    return acc


@st.composite
def dependent_matrices(draw):
    """Random rows plus linear combinations of them, in a random order, and
    a coefficient vector for a vector of their span."""
    F = GF(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)])))
    elem = st.integers(0, F.q - 1)
    n = draw(st.integers(1, 5))
    rows = [tuple(draw(elem) for _ in range(n)) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        rows.append(_combine(F, [draw(elem) for _ in rows], rows))
    rows = tuple(draw(st.permutations(rows)))
    return F, rows, [draw(elem) for _ in rows]


@given(dependent_matrices())
@settings(max_examples=150, deadline=None)
def test_express_and_left_kernel_are_complete(data):
    F, rows, coeffs = data
    red = rref(F, rows)
    kernel = left_kernel(F, rows)
    assert len(kernel) == len(rows) - len(red)
    assert rref(F, kernel) == kernel
    assert all(not any(_combine(F, x, rows)) for x in kernel)
    inside = _combine(F, coeffs, rows)
    got = express(F, rows, inside)
    assert got is not None and _combine(F, got, rows) == inside
    pivots = gfq.pivots_of(red)
    for j in range(len(rows[0])):
        if j not in pivots:  # the unit vector e_j is outside the span
            assert express(F, rows, tuple(int(i == j) for i in range(len(rows[0])))) is None


@pytest.mark.parametrize("q,modulus", [
    (4, (1, 1, 1)), (8, (1, 0, 1, 1)), (9, (1, 0, 1)), (16, (1, 0, 0, 1, 1)),
    (25, (1, 1, 1)), (27, (1, 0, 2, 1)), (32, (1, 0, 0, 1, 0, 1)), (49, (1, 0, 1)),
    (64, (1, 0, 0, 0, 0, 1, 1))])
def test_default_modulus_is_pinned(q, modulus):
    """The lexicographically first monic irreducible over the prime field:
    changing it would renumber every field element in every report."""
    assert GF(*prime_power(q)).modulus == modulus


def test_intersection_exhaustive_gf2():
    F = GF(2)
    a = ((1, 0, 1, 0), (0, 1, 0, 0))
    b = ((1, 1, 1, 0), (0, 0, 0, 1))
    met = intersect_rowspaces(F, a, b, 4)
    expected = {v for v in gfq.span_vectors(F, a)} & {v for v in gfq.span_vectors(F, b)}
    got = set(gfq.span_vectors(F, met)) if met else set()
    got.add((0, 0, 0, 0))
    expected.add((0, 0, 0, 0))
    assert got == expected


def test_express_and_reduce():
    F = GF(3)
    rows = ((1, 2, 0), (0, 1, 1))
    coeffs = express(F, rows, (1, 0, 1))
    acc = gfq.zero_vec(3)
    for c, r in zip(coeffs, rows):
        acc = gfq.vadd(F, acc, gfq.vscale(F, c, r))
    assert acc == (1, 0, 1)
    assert express(F, rows, (0, 0, 1)) is None
    red = rref(F, rows)
    assert reduce_vec(F, red, (1, 2, 0)) == (0, 0, 0)


def test_complement_extends_basis():
    F = GF(2)
    sub = ((1, 0, 0, 0),)
    sup = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1))
    comp = complement_in(F, sub, sup)
    assert len(comp) == 2
    assert rref(F, sub + comp) == rref(F, sup)


def _first_of_each_line(F, rows):
    """The first vector of each line that span_vectors meets, in that order."""
    firsts, seen = [], set()
    for v in gfq.span_vectors(F, rows):
        if any(v) and v not in seen:
            firsts.append(v)
            seen.update(gfq.vscale(F, c, v) for c in range(1, F.q))
    return firsts


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_line_vectors_one_per_line(q):
    F = GF(*prime_power(q))
    rng = random.Random(q)
    for k, n in ((1, 3), (2, 3), (2, 4), (3, 4), (3, 4)):
        rows = rref(F, [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)])
        got = list(gfq.line_vectors(F, rows))
        nonzero = {v for v in gfq.span_vectors(F, rows) if any(v)}
        lines = [frozenset(gfq.vscale(F, c, v) for c in range(1, q)) for v in got]
        assert len(got) == (q ** len(rows) - 1) // (q - 1)
        assert len(set(lines)) == len(lines) and set().union(*lines) == nonzero
        assert all(next(x for x in v if x) == 1 for v in got)
        meet = iter(gfq.span_vectors(F, rows))
        assert all(v in meet for v in got)  # a subsequence of span_vectors
        assert got == _first_of_each_line(F, rows)


def test_line_vectors_of_non_echelon_rows_follow_span_order():
    """Over rows that are not in echelon form the representative is still the
    first vector of its line in span_vectors order, so a caller that keeps
    the first result of each line sees the lines in the same order."""
    F = GF(3)
    rows = ((0, 1, 1), (2, 0, 1))
    got = list(gfq.line_vectors(F, rows))
    assert got == _first_of_each_line(F, rows)
    assert got == [(2, 0, 1), (0, 1, 1), (2, 1, 2), (1, 1, 0)]
    assert list(gfq.line_vectors(F, ())) == []


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_subspace_enumeration_count(q, n):
    F = GF(*prime_power(q))
    mats = list(all_rref_matrices(F, n))
    assert len(mats) == count_subspaces(q, n)
    assert len(set(mats)) == len(mats)
    for m in mats:
        assert rref(F, m) == m
