import itertools
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
    express,
    in_span,
    intersect_rowspaces,
    irreducible_poly,
    left_kernel,
    prime_power,
    reduce_vec,
    rref,
)

from conftest import trial_division_irreducible

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
    assert gfq.lincomb(F, coeffs, rows) == _ref_lincomb(F, coeffs, rows)
    u, v, c = rows[0], rows[-1], coeffs[0]
    assert gfq.vadd(F, u, v) == _ref_lincomb(F, (1, 1), (u, v))
    assert gfq.vsub(F, u, v) == _ref_lincomb(F, (1, F.neg(1)), (u, v))
    assert gfq.vscale(F, c, u) == _ref_lincomb(F, (c,), (u,))


@given(field_vectors(), st.data())
@settings(max_examples=200, deadline=None)
def test_rref_and_reduce_vec_match_reference(fv, data):
    F, elem, rows = fv
    red = rref(F, rows)
    assert red == _ref_rref(F, rows)
    vec = data.draw(st.tuples(*[elem] * len(rows[0])))
    assert reduce_vec(F, red, vec) == _ref_reduce(F, red, vec)


@given(field_vectors())
@settings(max_examples=200, deadline=None)
def test_reduce_insert_grows_the_rref(fv):
    """Inserting vectors one at a time keeps rows equal to the rref of all of
    them, and returns each vector's normal form modulo the rows before it."""
    F, _, vecs = fv
    rows = []
    for k, v in enumerate(vecs):
        expected = _ref_reduce(F, rref(F, vecs[:k]), v)
        red = gfq.reduce_insert(F, rows, v)
        assert red == (expected if any(expected) else None)
        assert tuple(rows) == rref(F, vecs[:k + 1])


@given(kernel_fields(), st.data())
@settings(max_examples=150, deadline=None)
def test_algebra_mul_matches_reference(F, data):
    """Any structure constants will do: the product is bilinear in them."""
    n = data.draw(st.integers(1, 4))
    elem = st.one_of(st.just(0), st.just(1), st.integers(0, F.q - 1))
    vec = st.tuples(*[elem] * n)
    table = data.draw(st.tuples(*[st.tuples(*[vec] * n)] * n))
    A = Algebra(F, table, (1,) + (0,) * (n - 1), check=False)
    u, v = data.draw(vec), data.draw(vec)
    assert A.mul(u, v) == _ref_product(F, table, u, v)


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
