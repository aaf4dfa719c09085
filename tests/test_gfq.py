import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlat import gfq
from ringlat.algebra import Algebra
from ringlat.gfq import (
    GF,
    all_rref_matrices,
    complement_in,
    count_subspaces,
    in_span,
    intersect_rowspaces,
    irreducible_poly,
    left_kernel,
    prime_power,
    reduce_vec,
    rref,
)

from conftest import (
    deadline,
    pivot_count_subspaces,
    quadratic_field_tables,
    ref2_intersect,
    ref2_left_kernel,
    ref2_line_vectors,
    ref2_product,
    ref2_reduce,
    ref2_rref,
    ref2_rref_matrices,
    scan_roots,
    span_vectors,
    trial_division_irreducible,
    vec,
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


EXTENSION_FIELDS = [(p, e) for p in (2, 3, 5, 7) for e in range(2, 7) if p ** e <= 64] \
    + [(2, 8)]


@pytest.mark.parametrize("p,e", EXTENSION_FIELDS)
def test_field_tables_match_the_quadratic_build(p, e):
    """The tables read off one exp/log table equal those of q**2 polynomial
    products, on every extension field with q <= 64 and on GF(256)."""
    F = GF(p, e)
    assert (F._add, F._mul, F._neg, F._inv) == quadratic_field_tables(F)


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
    assert prime_power(2) == (2, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(4093) == (4093, 1)  # prime: no divisor up to isqrt(q)
    assert prime_power(4096) == (2, 12)
    assert prime_power(3 ** 7) == (3, 7)
    assert prime_power(61 * 61) == (61, 2)  # the divisor is isqrt(q) itself
    for q in (0, 1, 12, 4087):  # 4087 = 61 * 67
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(q)
    for q in (4097, 1000000007):  # refused before any division
        with pytest.raises(ValueError, match=f"field size {q} exceeds supported bound 4096"):
            prime_power(q)


@pytest.mark.parametrize("p, e", [(17, 2), (2, 9), (61, 2)])
def test_extension_field_over_the_table_bound_is_refused(p, e):
    """An extension field above MAX_EXTENSION_Q is refused before its
    modulus is looked at or a table is built; a prime field is not."""
    assert gfq.MAX_EXTENSION_Q == 256 < p ** e
    with pytest.raises(ValueError, match=f"^extension field size {p ** e} exceeds table bound 256$"):
        GF(p, e, (1,) * (e + 1))
    assert GF(257).q == 257


def test_irreducible_poly_search():
    F2 = GF(2)
    assert irreducible_poly(F2, 2) == (1, 1, 1)
    F4 = GF(2, 2)
    f = irreducible_poly(F4, 2)
    assert gfq.poly_is_irreducible(F4, f)


@pytest.mark.parametrize("p,e,max_degree", [
    (2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 4), (7, 1, 3), (2, 3, 3), (3, 2, 3), (11, 1, 3)])
def test_ben_or_matches_trial_division(p, e, max_degree):
    """Every monic polynomial of degree 1 .. max_degree over GF(p^e)."""
    F = GF(p, e)
    for n in range(1, max_degree + 1):
        for tail in itertools.product(F.elements(), repeat=n):
            f = tail + (1,)
            assert gfq.poly_is_irreducible(F, f) == trial_division_irreducible(F, f), f


@pytest.mark.parametrize("q,degree,expected", [
    (1021, 1, (0, 1)), (1021, 2, (1, 5, 1)), (1021, 3, (1, 0, 3, 1)),
    (1021, 4, (1, 0, 0, 3, 1)), (9, 6, (1, 0, 0, 0, 3, 4, 1)),
    (4, 6, (1, 0, 0, 1, 1, 2, 1))])
def test_irreducible_poly_lex_first(q, degree, expected):
    """The lexicographically first monic irreducible; over GF(1021) from
    degree 3 on, a trial-division search takes far longer than a test."""
    assert irreducible_poly(GF(*prime_power(q)), degree) == expected


def poly_product(F, *factors):
    """The product of polynomials over F, constant term first."""
    out = (1,)
    for g in factors:
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] = F.add(prod[i + j], F.mul(a, b))
        out = tuple(prod)
    return out


def linear_factors(F, roots):
    return [(F.neg(r), 1) for r in roots]


def field_of_size(q):
    p, e = prime_power(q)
    return GF(p, e, irreducible_poly(GF(p), e) if e > 1 else None)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 256, 409, 4093])
def test_poly_roots_match_the_scan(q):
    """Random sets of distinct roots, of every degree up to min(q, 12): the
    roots of their product are the set, sorted, as the Horner scan finds."""
    F = field_of_size(q)
    rng = random.Random(q)
    for degree in range(1, min(q, 12) + 1):
        for _ in range(3):
            roots = rng.sample(range(q), degree)
            f = poly_product(F, *linear_factors(F, roots))
            assert gfq.poly_roots(F, f) == scan_roots(F, f) == sorted(roots), roots


@pytest.mark.parametrize("q", [2, 3, 4, 9, 409, 4093])
def test_poly_roots_refuse_a_repeated_root_and_an_irreducible_factor(q):
    F = field_of_size(q)
    quadratic = irreducible_poly(F, 2)
    for f in (poly_product(F, *linear_factors(F, [1, 1])),
              poly_product(F, *linear_factors(F, [0, 1, 0])),
              quadratic,
              poly_product(F, quadratic, *linear_factors(F, [0, 1]))):
        assert gfq.poly_roots(F, f) is None, f
        assert len(scan_roots(F, f)) < len(f) - 1


@st.composite
def matrices(draw):
    q_choice = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    F = GF(*q_choice)
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    rows = tuple(vec(F, [draw(st.integers(0, F.q - 1)) for _ in range(n)])
                 for _ in range(m))
    return F, n, rows


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent_and_canonical(data):
    F, n, rows = data
    red = rref(F, rows)
    assert rref(F, red) == red
    for v in rows:
        assert in_span(F, red, v)
    pivots = gfq.pivots_of(F, red, n)
    assert list(pivots) == sorted(pivots)
    for i, row in enumerate(red):
        for j, other in enumerate(red):
            if i != j:
                assert gfq.entries(F, other, n)[pivots[i]] == 0


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_left_kernel_annihilates(data):
    F, n, rows = data
    for coeffs in left_kernel(F, rows):
        acc = gfq.zero_vec(F, n)
        for c, r in zip(gfq.entries(F, coeffs, len(rows)), rows):
            acc = gfq.vadd(F, acc, gfq.vscale(F, c, r))
        assert gfq.is_zero(F, acc)


def _combine(F, coeffs, rows):
    """sum(c * row) for a list of coefficient entries, by vadd and vscale."""
    acc = gfq.vsub(F, rows[0], rows[0])
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
    rows = [vec(F, [draw(elem) for _ in range(n)]) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        rows.append(_combine(F, [draw(elem) for _ in rows], rows))
    rows = tuple(draw(st.permutations(rows)))
    return F, n, rows, [draw(elem) for _ in rows]


def _rebuilds(F, rows, v):
    """Whether some relation of left_kernel(rows + [v]) has a nonzero last
    entry, that is whether v lies in the span of rows; such a relation
    must rebuild v from rows."""
    relations = (gfq.entries(F, x, len(rows) + 1) for x in left_kernel(F, tuple(rows) + (v,)))
    rel = next((x for x in relations if x[-1]), None)
    if rel is None:
        return False
    coeffs = [F.mul(F.neg(F.inv(rel[-1])), c) for c in rel[:-1]]
    assert _combine(F, coeffs, rows) == v
    return True


@given(dependent_matrices())
@settings(max_examples=150, deadline=None)
def test_express_and_left_kernel_are_complete(data):
    F, n, rows, coeffs = data
    red = rref(F, rows)
    kernel = left_kernel(F, rows)
    assert len(kernel) == len(rows) - len(red)
    assert rref(F, kernel) == kernel
    assert all(gfq.is_zero(F, _combine(F, gfq.entries(F, x, len(rows)), rows)) for x in kernel)
    assert _rebuilds(F, rows, _combine(F, coeffs, rows))
    pivots = gfq.pivots_of(F, red, n)
    for j in range(n):
        if j not in pivots:  # the unit vector e_j is outside the span
            assert not _rebuilds(F, rows, vec(F, [int(i == j) for i in range(n)]))


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
    a = (vec(F, (1, 0, 1, 0)), vec(F, (0, 1, 0, 0)))
    b = (vec(F, (1, 1, 1, 0)), vec(F, (0, 0, 0, 1)))
    met = intersect_rowspaces(F, a, b, 4)
    expected = {v for v in span_vectors(F, a)} & {v for v in span_vectors(F, b)}
    got = set(span_vectors(F, met)) if met else set()
    got.add(vec(F, (0, 0, 0, 0)))
    expected.add(vec(F, (0, 0, 0, 0)))
    assert got == expected


def test_express_and_reduce():
    F = GF(3)
    rows = ((1, 2, 0), (0, 1, 1))
    assert _rebuilds(F, rows, (1, 0, 1))
    assert not _rebuilds(F, rows, (0, 0, 1))
    red = rref(F, rows)
    assert reduce_vec(F, red, (1, 2, 0)) == (0, 0, 0)


def test_complement_extends_basis():
    F = GF(2)
    sub = (vec(F, (1, 0, 0, 0)),)
    sup = (vec(F, (1, 0, 0, 0)), vec(F, (0, 1, 0, 0)), vec(F, (0, 0, 1, 1)))
    comp = complement_in(F, sub, sup)
    assert len(comp) == 2
    assert rref(F, sub + comp) == rref(F, sup)


def _first_of_each_line(F, rows):
    """The first vector of each line that span_vectors meets, in that order."""
    firsts, seen = [], set()
    for v in span_vectors(F, rows):
        if not gfq.is_zero(F, v) and v not in seen:
            firsts.append(v)
            seen.update(gfq.vscale(F, c, v) for c in range(1, F.q))
    return firsts


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_line_vectors_one_per_line(q):
    F = GF(*prime_power(q))
    rng = random.Random(q)
    for k, n in ((1, 3), (2, 3), (2, 4), (3, 4), (3, 4)):
        rows = rref(F, [vec(F, [rng.randrange(q) for _ in range(n)]) for _ in range(k)])
        got = list(gfq.line_vectors(F, rows))
        nonzero = {v for v in span_vectors(F, rows) if not gfq.is_zero(F, v)}
        lines = [frozenset(gfq.vscale(F, c, v) for c in range(1, q)) for v in got]
        assert len(got) == (q ** len(rows) - 1) // (q - 1)
        assert len(set(lines)) == len(lines) and set().union(*lines) == nonzero
        assert all(next(x for x in gfq.entries(F, v, n) if x) == 1 for v in got)
        meet = iter(span_vectors(F, rows))
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_subspace_count_matches_the_pivot_patterns(q):
    assert [count_subspaces(q, n) for n in range(11)] == \
        [pivot_count_subspaces(q, n) for n in range(11)]


def _gaussian_binomial(q, n, k):
    """The number of k-dimensional subspaces of GF(q)**n, by the product formula."""
    num = math.prod(q ** (n - i) - 1 for i in range(k))
    den = math.prod(q ** (i + 1) - 1 for i in range(k))
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("q", [2, 4093])
def test_subspace_count_is_the_sum_of_gaussian_binomials(q):
    for n in range(49):
        assert count_subspaces(q, n) == sum(_gaussian_binomial(q, n, k) for k in range(n + 1))


def test_subspace_count_is_fast_at_codim_40():
    """The count sizes the oracle's charge before any subspace is scanned, so
    it must not itself walk the 2**n pivot patterns."""
    with deadline(1):
        total = count_subspaces(2, 40)
    assert total == sum(_gaussian_binomial(2, 40, k) for k in range(41))


# ---------------------------------------------------------------------------
# the row kernels against plain per-element references

KERNEL_FIELDS = {q: GF(*prime_power(q)) for q in (2, 3, 5, 409, 4093, 4, 9)}
PRIME_FIELDS = [F for F in KERNEL_FIELDS.values() if F.e == 1]


def _ref_lincomb(F, coeffs, rows):
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        for k, x in enumerate(row):
            acc[k] = F.add(acc[k], F.mul(c, x))
    return tuple(acc)


def _ref_rref(F, rows):
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = F.inv(mat[r][c])
        mat[r] = [F.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][c]
                mat[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


def _ref_reduce(F, rows, vec):
    v = list(vec)
    for row in rows:
        c = v[next(j for j, x in enumerate(row) if x)]
        v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def _ref_product(F, table, u, v):
    acc = [0] * len(u)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            for k, t in enumerate(table[i][j]):
                acc[k] = F.add(acc[k], F.mul(F.mul(ui, vj), t))
    return tuple(acc)


@st.composite
def kernel_fields(draw):
    return KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]


@st.composite
def field_vectors(draw):
    """A field, then vectors of one length over it, sparse or dense."""
    F = draw(kernel_fields())
    elem = st.one_of(st.just(0), st.just(1), st.integers(0, F.q - 1))
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[elem] * n), min_size=1, max_size=5))
    return F, elem, rows


@given(field_vectors(), st.data())
@settings(max_examples=200, deadline=None)
def test_lincomb_and_vector_ops_match_reference(fv, data):
    F, elem, rows = fv
    coeffs = data.draw(st.tuples(*[elem] * len(rows)))
    vecs = [vec(F, r) for r in rows]
    assert gfq.lincomb(F, vec(F, coeffs), vecs) == vec(F, _ref_lincomb(F, coeffs, rows))
    u, v, c = rows[0], rows[-1], coeffs[0]
    assert gfq.vadd(F, vec(F, u), vec(F, v)) == vec(F, _ref_lincomb(F, (1, 1), (u, v)))
    assert gfq.vsub(F, vec(F, u), vec(F, v)) == vec(F, _ref_lincomb(F, (1, F.neg(1)), (u, v)))
    assert gfq.vscale(F, c, vec(F, u)) == vec(F, _ref_lincomb(F, (c,), (u,)))


@given(field_vectors(), st.data())
@settings(max_examples=200, deadline=None)
def test_rref_and_reduce_vec_match_reference(fv, data):
    F, elem, rows = fv
    red = rref(F, [vec(F, r) for r in rows])
    ref = _ref_rref(F, rows)
    assert red == tuple(vec(F, r) for r in ref)
    v = data.draw(st.tuples(*[elem] * len(rows[0])))
    assert reduce_vec(F, red, vec(F, v)) == vec(F, _ref_reduce(F, ref, v))


@given(field_vectors())
@settings(max_examples=200, deadline=None)
def test_reduce_insert_grows_the_rref(fv):
    """Inserting vectors one at a time keeps rows equal to the rref of all of
    them, and returns each vector's normal form modulo the rows before it."""
    F, _, vecs = fv
    n = len(vecs[0])
    rows = []
    for k, v in enumerate(vecs):
        before = [gfq.entries(F, r, n) for r in rref(F, [vec(F, u) for u in vecs[:k]])]
        expected = _ref_reduce(F, before, v)
        red = gfq.reduce_insert(F, rows, vec(F, v))
        assert red == (vec(F, expected) if any(expected) else None)
        assert tuple(rows) == rref(F, [vec(F, u) for u in vecs[:k + 1]])


@given(kernel_fields(), st.data())
@settings(max_examples=150, deadline=None)
def test_algebra_mul_matches_reference(F, data):
    """Any structure constants will do: the product is bilinear in them."""
    n = data.draw(st.integers(1, 4))
    elem = st.one_of(st.just(0), st.just(1), st.integers(0, F.q - 1))
    vector = st.tuples(*[elem] * n)
    table = data.draw(st.tuples(*[st.tuples(*[vector] * n)] * n))
    A = Algebra(F, table, (1,) + (0,) * (n - 1), check=False)
    u, v = data.draw(vector), data.draw(vector)
    assert A.mul(vec(F, u), vec(F, v)) == vec(F, _ref_product(F, table, u, v))


@given(st.sampled_from(PRIME_FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_prime_field_scalars_are_ints_mod_p(F, data):
    p = F.p
    a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    assert F.add(a, b) == (a + b) % p
    assert F.sub(a, b) == (a - b) % p
    assert F.neg(a) == -a % p
    assert F.mul(a, b) == a * b % p
    if a:
        assert F.inv(a) == pow(a, -1, p)
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)


@pytest.mark.parametrize("p", [409, 4093])
def test_field_axioms_sampled(p):
    """The exhaustive test above loops over q**2 pairs; here 300 random triples."""
    F = GF(p)
    assert F.prime_field() is F and list(F.elements()) == list(range(p))
    rng = random.Random(p)
    for _ in range(300):
        a, b, c = (rng.randrange(p) for _ in range(3))
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0 and F.sub(a, b) == F.add(a, F.neg(b))
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, b) == F.add(b, a) and F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_prime_field_allocates_no_tables():
    """GF(p) stores no p x p tables: GF(4093) costs well under a megabyte."""
    tracemalloc.start()
    try:
        F = GF(4093)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert F.mul(4092, 4092) == 1
    with pytest.raises(ValueError, match="field size 4099 exceeds supported bound 4096"):
        GF(4099)


# ---------------------------------------------------------------------------
# the packed GF(2) kernels against the entry-wise references of conftest

F2 = GF(2)
F2_WIDTHS = (1, 2, 47, 48)  # 48 is cli.MAX_DIM


def _packed(rows):
    return tuple(vec(F2, r) for r in rows)


@st.composite
def gf2_rows(draw, n):
    """Entry rows of width n over GF(2): random, zero, or zero in their
    leading columns."""
    bit = st.integers(0, 1)
    lead = draw(st.integers(0, n - 1))
    row = st.one_of(st.tuples(*[bit] * n), st.just((0,) * n),
                    st.tuples(*[st.just(0)] * lead, *[bit] * (n - lead)))
    return draw(st.lists(row, max_size=6))


@given(st.sampled_from(F2_WIDTHS), st.data())
@settings(max_examples=200, deadline=None)
def test_packed_gf2_kernels_match_the_entry_wise_references(n, data):
    rows, other = data.draw(gf2_rows(n)), data.draw(gf2_rows(n))
    packed = _packed(rows)
    assert [gfq.entries(F2, v, n) for v in packed] == rows
    assert sorted(packed) == list(_packed(sorted(rows)))
    red = ref2_rref(rows)
    assert rref(F2, packed) == _packed(red)
    grown = []
    for k, r in enumerate(rows):
        expected = ref2_reduce(ref2_rref(rows[:k]), r)
        assert gfq.reduce_insert(F2, grown, vec(F2, r)) == \
            (vec(F2, expected) if any(expected) else None)
        assert tuple(grown) == _packed(ref2_rref(rows[:k + 1]))
    if rows:
        assert left_kernel(F2, packed) == _packed(ref2_left_kernel(rows))
    assert intersect_rowspaces(F2, packed, _packed(other), n) == \
        _packed(ref2_intersect(rows, other, n))
    assert list(gfq.line_vectors(F2, _packed(red))) == list(_packed(ref2_line_vectors(red)))


@given(st.sampled_from(F2_WIDTHS), st.data())
@settings(max_examples=100, deadline=None)
def test_packed_gf2_product_matches_the_entry_wise_reference(n, data):
    """A sparse table of random structure constants: the product is bilinear
    in them, so any table will do."""
    vector = st.one_of(st.tuples(*[st.integers(0, 1)] * n), st.just((0,) * n))
    index = st.integers(0, n - 1)
    words = data.draw(st.dictionaries(st.tuples(index, index), vector, max_size=8))
    table = [[words.get((i, j), (0,) * n) for j in range(n)] for i in range(n)]
    packed = tuple(_packed(row) for row in table)
    u, v = data.draw(vector), data.draw(vector)
    assert gfq.algebra_product(F2, packed, vec(F2, u), vec(F2, v)) == \
        vec(F2, ref2_product(table, u, v))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 47, 48])
def test_packed_gf2_subspaces_come_in_the_entry_wise_order(n):
    """All of them up to width 5, and the first 3000 at widths 47 and 48."""
    got = itertools.islice(all_rref_matrices(F2, n), 3000)
    want = itertools.islice(ref2_rref_matrices(n), 3000)
    assert list(got) == [_packed(m) for m in want]
