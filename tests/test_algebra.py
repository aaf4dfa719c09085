import itertools

import pytest

from ringlat import gfq
from ringlat.algebra import (
    Algebra,
    AlgebraError,
    Extension,
    Ideal,
    InternalInvariantError,
    Subalgebra,
    _split_idempotent,
    conductor,
    generated_subalgebra,
    local_decomposition,
    localize_extension,
    make_poly_quotient,
    make_product,
    module_length,
    nilradical,
    quotient,
    support,
)
from ringlat.analysis import Analysis
from ringlat.gfq import GF, rref

from conftest import (
    base_algebra,
    brute_force_idempotents,
    elements,
    idempotents,
    maximal_ideals,
    prime_field_nilradical,
    primitive_idempotents_mod_nil,
    same_table,
    span_vectors,
    vec,
)


def test_poly_quotient_nilpotent(F2, T44):
    assert T44.dim == 4
    y = T44.basis_vec(1)
    assert T44.pow(y, 4) == gfq.zero_vec(F2, T44.dim)
    assert T44.mul(T44.basis_vec(2), T44.basis_vec(3)) == gfq.zero_vec(F2, T44.dim)


def test_poly_quotient_degree_one_is_base_field(F2):
    A = make_poly_quotient(F2, (1, 1))  # Y - 1 over GF(2)
    assert A.dim == 1
    assert A.one == vec(F2, (1,))


def test_poly_quotient_irreducible_gives_field(F4alg):
    nonzero = [v for v in elements(F4alg) if not gfq.is_zero(F4alg.field, v)]
    for v in nonzero:
        assert any(F4alg.mul(v, w) == F4alg.one for w in nonzero)


def test_poly_quotient_rejects_bad_input(F2):
    with pytest.raises(AlgebraError):
        make_poly_quotient(F2, (1,))  # degree 0
    with pytest.raises(AlgebraError):
        make_poly_quotient(GF(3), (0, 2))  # not monic


def test_algebra_validation_reports_failure(F2):
    # non-commutative table
    table = [[(1, 0), (0, 1)], [(1, 0), (0, 0)]]
    with pytest.raises(AlgebraError, match="commutative"):
        Algebra(F2, table, (1, 0))


@pytest.mark.parametrize("F", [GF(2), GF(3)], ids=["q2", "q3"])
def test_vectors_are_checked_on_their_entries(F):
    """The shape and range of the table and the unit are checked on their
    entries, before any vector is packed, and a generator must be a vector
    of the ambient: over GF(2), an int with no set bit at dim or above."""
    y2 = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]  # F[Y]/(Y^2)
    q = F.q
    with pytest.raises(AlgebraError, match=rf"^scalar {q} outside range\({q}\)$"):
        Algebra(F, [[(1, 0), (0, 1)], [(0, 1), (0, q)]], (1, 0))
    with pytest.raises(AlgebraError, match=rf"^scalar {q} outside range\({q}\)$"):
        Algebra(F, y2, (1, q))
    with pytest.raises(AlgebraError, match="^structure constant table has inconsistent shape$"):
        Algebra(F, [[(1, 0), (0, 1)], [(0, 1), (0, 0, 0)]], (1, 0))
    A = Algebra(F, y2, (1, 0))
    with pytest.raises(AlgebraError, match="^generator has wrong coordinate length$"):
        generated_subalgebra(A, [vec(F, (1, 0, 0))])


def test_make_product(F2, F4alg):
    P = make_product(base_algebra(F2), base_algebra(F2))
    assert P.dim == 2 and P.one == vec(F2, (1, 1))
    dec = local_decomposition(P.full())
    assert sorted(idempotents(dec)) == [vec(F2, (0, 1)), vec(F2, (1, 0))]
    P2 = make_product(base_algebra(F2), F4alg)
    assert P2.dim == 3
    assert len(local_decomposition(P2.full()).factors) == 2
    A1 = base_algebra(F2)
    assert make_product(A1, A1).dim == 2
    assert nilradical(make_product(A1, A1).full()).dim == 0
    with pytest.raises(AlgebraError):
        make_product(base_algebra(F2), base_algebra(GF(3)))


def test_generated_subalgebra(T44):
    K = generated_subalgebra(T44, [])
    F2 = T44.field
    assert K.basis == (vec(F2, (1, 0, 0, 0)),)
    Ky2 = generated_subalgebra(T44, [T44.basis_vec(2)])
    assert Ky2.basis == (vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 1, 0)))
    assert generated_subalgebra(T44, [T44.basis_vec(1)]).dim == 4


def all_pairs_closure(ambient, gens, seed=None):
    """Reference closure: the unit, the seed and the generators, with the
    products of all pairs of rows added until a round adds nothing."""
    F = ambient.field
    seed_rows = seed.basis if seed is not None else ()
    rows = rref(F, [ambient.one, *seed_rows, *gens])
    while True:
        prods = [ambient.mul(a, b) for a, b in itertools.combinations_with_replacement(rows, 2)]
        new = rref(F, rows + tuple(prods))
        if len(new) == len(rows):
            return Subalgebra(ambient, rows, check=False)
        rows = new


def _seeded_closures(monkeypatch, q, max_dim):
    """(ambient, gens, seed) of every closure that gen makes for the bottoms
    of ten seeded mixed instances over GF(q), and of every (node, line)
    closure that enumerating those instances makes."""
    from ringlat import gen
    from ringlat.lattice import enumerate_interval

    calls = []

    def recording(ambient, gens, seed=None):
        calls.append((ambient, list(gens), seed))
        return generated_subalgebra(ambient, gens, seed=seed)

    monkeypatch.setattr(gen, "generated_subalgebra", recording)
    exts = list(gen.random_extension(gen.GenSpec(seed=q, q=q, max_dim=max_dim, count=10)))
    monkeypatch.undo()
    assert any(len(gens) > 1 for _, gens, _ in calls)
    for ext in exts:
        F = ext.ambient.field
        for node in enumerate_interval(ext).nodes:
            comp = gfq.complement_in(F, node.basis, ext.top.basis)
            calls.extend((ext.ambient, [c], node) for c in gfq.line_vectors(F, comp))
    return calls


@pytest.mark.parametrize("q,max_dim", [(2, 5), (3, 5), (4, 4), (9, 4)])
def test_closure_matches_all_pairs_reference(monkeypatch, q, max_dim):
    for ambient, gens, seed in _seeded_closures(monkeypatch, q, max_dim):
        assert generated_subalgebra(ambient, gens, seed=seed) \
            == all_pairs_closure(ambient, gens, seed)


@pytest.mark.parametrize("q,max_dim", [(2, 5), (4, 4), (9, 4)])
def test_closure_makes_dim_products(monkeypatch, q, max_dim):
    """Adjoining c to a ring T makes exactly dim T[c] products, and adjoining
    several generators makes that many for each in turn."""
    calls = _seeded_closures(monkeypatch, q, max_dim)
    expected = [sum(all_pairs_closure(ambient, gens[:k], seed).dim
                    for k in range(1, len(gens) + 1))
                for ambient, gens, seed in calls]
    products = []
    original = Algebra.mul

    def counting(self, u, v):
        products.append(1)
        return original(self, u, v)

    monkeypatch.setattr(Algebra, "mul", counting)
    made = []
    for ambient, gens, seed in calls:
        products.clear()
        generated_subalgebra(ambient, gens, seed=seed)
        made.append(len(products))
    assert made == expected


def test_subspace_equality_is_class_ambient_and_basis(F2, T44):
    rows = [vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 1, 0)), vec(F2, (0, 0, 0, 1))]
    R = Subalgebra(T44, rows)
    again = Subalgebra(T44, rows)
    respanned = Subalgebra(T44, [vec(F2, (1, 0, 1, 1)), vec(F2, (0, 0, 1, 1)),
                                 vec(F2, (0, 0, 0, 1))])
    assert R == again == respanned and hash(R) == hash(again) == hash(respanned)
    unit_ideal = Ideal(R, rows)
    assert unit_ideal.basis == R.basis
    assert unit_ideal != R and R != unit_ideal
    other = make_poly_quotient(F2, (0, 0, 0, 0, 1))  # same table, another ambient
    assert Subalgebra(other, rows) != R


def test_cached_hashes_agree_across_constructors(F2, T44):
    """A ring's hash is computed once and kept; a ring built on rref rows
    with no second elimination hashes as its equal built by elimination,
    and so do extensions between them."""
    rows = [vec(F2, (1, 0, 1, 1)), vec(F2, (0, 0, 1, 1)), vec(F2, (0, 0, 0, 1))]
    R = Subalgebra(T44, rows)
    on_rref = Subalgebra._on_rref(T44, R.basis)
    assert R == on_rref and hash(R) == hash(on_rref) == hash(R)
    assert len({R, on_rref, T44.full()}) == 2
    assert hash(Extension(R, T44)) == hash(Extension(on_rref, T44.full()))
    assert len({Extension(R, T44), Extension(on_rref, T44)}) == 1


def test_conductor_examples(F2, T44):
    K = generated_subalgebra(T44, [])
    assert conductor(K, T44.full()).basis == ()
    assert conductor(T44.full(), T44.full()).dim == 4
    R = Subalgebra(T44, [vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 1, 0)), vec(F2, (0, 0, 0, 1))])
    assert conductor(R, T44.full()).basis == (vec(F2, (0, 0, 1, 0)), vec(F2, (0, 0, 0, 1)))


def test_conductor_is_largest_common_ideal(F2, T44):
    """Brute-force check on a small instance: no bigger subspace of R is a
    common ideal of R and S."""
    R = Subalgebra(T44, [vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 1, 0)), vec(F2, (0, 0, 0, 1))])
    cond = conductor(R, T44.full())
    best = ()
    for rows in gfq.all_rref_matrices(T44.field, 4):
        if not all(R.contains_vector(v) for v in rows):
            continue
        is_common = all(
            gfq.in_span(T44.field, rows, T44.mul(s, x))
            for s in T44.full().basis for x in rows)
        if is_common and len(rows) > len(best):
            best = rows
    assert best == cond.basis


def test_nilradical_examples(F2, T44, F4alg):
    assert nilradical(T44.full()).basis == (
        vec(F2, (0, 1, 0, 0)), vec(F2, (0, 0, 1, 0)), vec(F2, (0, 0, 0, 1)))
    assert nilradical(F4alg.full()).dim == 0
    P = make_product(base_algebra(F2), make_poly_quotient(F2, (0, 0, 1)))
    assert nilradical(P.full()).basis == (vec(F2, (0, 0, 1)),)


@pytest.mark.parametrize("seed, q", [pytest.param(seed, q, id=str(seed) if q == 2 else f"q{q}-{seed}")
                                     for q in (2, 3, 4, 9) for seed in range(6)])
def test_nilradical_matches_brute_force(seed, q):
    from ringlat.gen import GenSpec, random_extension

    spec = GenSpec(seed=seed, q=q, max_dim=3 if q == 9 else 4, shape="mixed", count=3)
    for ext in random_extension(spec):
        A = ext.ambient
        if A.field.q ** A.dim > 4096:
            continue
        nil = nilradical(A.full())
        zero = gfq.zero_vec(A.field, A.dim)
        expected = sorted(v for v in elements(A) if A.pow(v, A.dim) == zero)
        got = sorted(span_vectors(A.field, nil.basis)) if nil.dim else []
        got = sorted(set(got) | {zero})
        assert got == expected


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_nilradical_matches_prime_field_route_on_every_node(q):
    """Over e > 1 the GF(q) kernel and the GF(p) digit kernel are two routes."""
    from ringlat.gen import GenSpec, random_extension

    compared = 0
    for seed in range(2):
        for ext in random_extension(GenSpec(seed=seed, q=q, max_dim=3, shape="mixed", count=8)):
            for node in Analysis().lattice(ext).nodes:
                assert nilradical(node).basis == prime_field_nilradical(node)
                compared += 1
    assert compared >= 40


def test_local_decomposition_invariants(F2, T44, F4alg):
    decT = local_decomposition(T44.full())
    assert decT.is_local
    assert decT.factors[0].maximal_ideal.basis == (
        vec(F2, (0, 1, 0, 0)), vec(F2, (0, 0, 1, 0)), vec(F2, (0, 0, 0, 1)))
    P = make_product(F4alg, make_poly_quotient(F2, (0, 0, 1)))
    dec = local_decomposition(P.full())
    assert sorted(f.residue_degree for f in dec.factors) == [1, 2]
    assert sum(f.dim for f in dec.factors) == P.dim
    for fa, fb in itertools.combinations(dec.factors, 2):
        assert P.mul(fa.idempotent, fb.idempotent) == gfq.zero_vec(F2, P.dim)
    total = gfq.zero_vec(F2, P.dim)
    for f in dec.factors:
        assert P.mul(f.idempotent, f.idempotent) == f.idempotent
        total = gfq.vadd(P.field, total, f.idempotent)
    assert total == P.one


def _primitive_by_scan(ring):
    """The minimal nonzero idempotents of ring, by exhaustive scan."""
    A = ring.ambient
    nonzero = [e for e in brute_force_idempotents(ring) if not gfq.is_zero(A.field, e)]
    return sorted(e for e in nonzero
                  if not any(A.mul(e, f) == f for f in nonzero if f != e))


IDEMPOTENT_CASES = ([pytest.param(seed, 2, id=str(seed)) for seed in range(4)]
                    + [pytest.param(seed, q, id=f"q{q}-{seed}")
                       for q in (3, 4) for seed in range(2)])


@pytest.mark.parametrize("seed, q", IDEMPOTENT_CASES)
def test_idempotents_match_brute_force(seed, q):
    """On the whole ambient, its bottom ring and every ring between, against
    the route through ring/Nil and, where it fits, the exhaustive scan: the
    proper subrings are where ambient coordinates are not the ring's own."""
    from ringlat.gen import GenSpec, random_extension
    from ringlat.lattice import enumerate_interval

    spec = GenSpec(seed=seed, q=q, max_dim=5, shape="product-of-locals", count=2)
    for ext in random_extension(spec):
        rings = {ext.top, ext.bottom, *enumerate_interval(ext).nodes}
        for ring in rings:
            dec = local_decomposition(ring)
            assert idempotents(dec) == tuple(primitive_idempotents_mod_nil(ring))
            if q ** ring.dim > 4096:
                continue
            assert sorted(idempotents(dec)) == _primitive_by_scan(ring)
            assert sum(f.dim for f in dec.factors) == ring.dim


def test_local_decomposition_builds_no_algebra(monkeypatch):
    """A GF(4) product with an inert, a ramified and a split factor, and a
    proper subring of it, decompose without constructing any Algebra."""
    F4 = GF(2, 2)
    P = make_product(make_poly_quotient(F4, gfq.irreducible_poly(F4, 2)),
                     make_poly_quotient(F4, (0, 0, 1)), base_algebra(F4))
    R = generated_subalgebra(P, [(0, 0, 0, 1, 1)])
    built = []
    original = Algebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Algebra, "__init__", counting_init)
    dec_p = local_decomposition(P.full())
    dec_r = local_decomposition(R)
    assert built == []
    assert sorted((f.dim, f.residue_degree) for f in dec_p.factors) == [
        (1, 1), (2, 1), (2, 2)]
    assert sorted(idempotents(dec_p)) == _primitive_by_scan(P.full())
    assert sorted(idempotents(dec_r)) == _primitive_by_scan(R)


@pytest.mark.parametrize("p", [2, 3, 4093])
def test_split_idempotent_refuses_a_non_split_minimal_polynomial(p):
    """y in F_p[Y]/(Y^2) is nilpotent, with minimal polynomial x^2, and y in
    F_p[Y]/(g), g irreducible of degree 2, generates GF(p^2), with minimal
    polynomial g: neither has two distinct roots in GF(p)."""
    F = GF(p)
    for f in ((0, 0, 1), gfq.irreducible_poly(F, 2)):
        A = make_poly_quotient(F, f)
        with pytest.raises(InternalInvariantError) as caught:
            _split_idempotent(A, A.one, A.basis_vec(1))
        assert caught.value.tag == "minimal-polynomial-not-split"


@pytest.mark.parametrize("p, counts", [pytest.param(409, [28, 196], id="409"),
                                       pytest.param(4093, [46, 322], id="4093")])
def test_idempotent_splitting_work_does_not_grow_with_the_field(monkeypatch, p, counts):
    """Splitting F_p[Y]/(Y^2 - Y) and F_p^8 into their local factors makes a
    number of field multiplications that grows with log p, not with p, and
    none by 0: long division zeroes each leading term and skips the zero
    coefficients of the divisor, and the product skips the zeros of its
    second factor."""
    F = GF(p)
    calls = []
    original = GF.mul

    def counting_mul(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(GF, "mul", counting_mul)
    made = []
    for A, factors in ((make_poly_quotient(F, (0, p - 1, 1)), 2),
                       (make_product(*[base_algebra(F)] * 8), 8)):
        calls.clear()
        assert len(local_decomposition(A.full()).factors) == factors
        assert all(a and b for a, b in calls)
        made.append(len(calls))
    assert made == counts


def test_quotient_examples(F2, T44):
    qm = quotient(T44.full(), [vec(F2, (0, 0, 0, 1))])
    assert same_table(qm.algebra, make_poly_quotient(F2, (0, 0, 0, 1)))
    qm0 = quotient(T44.full(), ())
    assert same_table(qm0.algebra, T44)
    with pytest.raises(AlgebraError):
        quotient(T44.full(), T44.full().basis)
    # a proper subring: GF(2)[y^2] modulo y^2 is GF(2)
    even = Subalgebra(T44, [vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 1, 0))])
    qm_even = quotient(even, [vec(F2, (0, 0, 1, 0))])
    assert same_table(qm_even.algebra, base_algebra(F2))
    assert qm_even.project_rows(even.basis) == (vec(F2, (1,)),)
    # projection is a ring map
    for u in [T44.basis_vec(1), T44.basis_vec(2)]:
        for v in [T44.basis_vec(1), T44.one]:
            assert qm.project(T44.mul(u, v)) == qm.algebra.mul(qm.project(u),
                                                               qm.project(v))


def test_module_length_examples(F2, T44):
    K = generated_subalgebra(T44, [])
    assert module_length(K, T44.full().basis, K.basis) == 3
    assert module_length(K, (), ()) == 0
    R = Subalgebra(T44, [vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 1, 0)), vec(F2, (0, 0, 0, 1))])
    M = local_decomposition(R).factors[0].maximal_ideal
    assert module_length(R, R.basis, M.basis) == 1  # the simple module R/M


def test_module_length_additive_on_nested_triples(F2, T44):
    K = generated_subalgebra(T44, [])
    nested = [(), (vec(F2, (0, 0, 0, 1)),), (vec(F2, (0, 0, 1, 0)), vec(F2, (0, 0, 0, 1))),
              T44.full().basis]
    for i in range(len(nested)):
        for j in range(i + 1, len(nested)):
            for k in range(j + 1, len(nested)):
                big, mid, small = nested[k], nested[j], nested[i]
                assert module_length(K, big, small) == (
                    module_length(K, big, mid) + module_length(K, mid, small))


def radical_filtration_length(R, e_rows, f_rows, an):
    """Reference length of E/F: walk E = E_0 > E_1 = Nil(R)E_0 + F > ... > F,
    splitting each layer along the idempotents of R."""
    A = R.ambient
    F = A.field
    dec = an.decomposition(R)
    nil = nilradical(R, an).basis
    f_rows = rref(F, f_rows)
    total, cur = 0, rref(F, e_rows)
    while len(cur) > len(f_rows):
        nxt = rref(F, [A.mul(j, x) for j in nil for x in cur] + list(f_rows))
        assert len(nxt) < len(cur)
        for f in dec.factors:
            layer = len(rref(F, [A.mul(f.idempotent, x) for x in cur] + list(nxt))) - len(nxt)
            assert layer % f.residue_degree == 0
            total += layer // f.residue_degree
        cur = nxt
    return total


def test_module_length_matches_radical_filtration():
    """The closed form against the radical filtration, on E > F drawn from
    S, R, the conductor, Nil(R), Nil(S), the maximal ideals of R and 0, at
    every node R of seeded intervals [R0, S]."""
    from ringlat.gen import GenSpec, random_extension

    non_local = extension_field = 0
    for q in (2, 3, 4, 9):
        for shape in ("product-of-locals", "mixed"):
            for ext in random_extension(GenSpec(seed=7, q=q, max_dim=4, shape=shape, count=4)):
                an = Analysis()
                S, F = ext.top, ext.ambient.field
                for R in an.lattice(ext).nodes:
                    dec = an.decomposition(R)
                    modules = {S.basis, R.basis, conductor(R, S).basis, nilradical(R, an).basis,
                               nilradical(S, an).basis, ()}
                    modules |= {m.basis for m in maximal_ideals(dec)}
                    for E, sub in itertools.permutations(modules, 2):
                        if all(gfq.in_span(F, E, v) for v in sub):
                            assert module_length(R, E, sub, an) == \
                                radical_filtration_length(R, E, sub, an)
                            non_local += not dec.is_local
                            extension_field += F.e > 1
    assert non_local >= 200 and extension_field >= 200


def test_module_length_rejects_unstable(F2, T44):
    R = Subalgebra(T44, [vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 1, 0)), vec(F2, (0, 0, 0, 1))])
    with pytest.raises(AlgebraError):
        module_length(R, (vec(F2, (0, 1, 0, 0)),), ())  # y alone is not R-stable


def test_localize_extension(ext_f2xf4, F2, F4alg, monkeypatch):
    """The localization at M is the subinterval of [R, S] of the nodes N
    with (1-e)N = (1-e)S, in the same ambient, and building it constructs
    no Algebra."""
    from ringlat.lattice import enumerate_interval

    S = make_product(make_poly_quotient(F2, (0, 0, 0, 1)), F4alg)
    ext = Extension(generated_subalgebra(S, [vec(F2, (1, 0, 0, 0, 0))]), S)  # F2 x F2
    A, F = ext.ambient, ext.ambient.field
    an = Analysis()
    dec = an.decomposition(ext.bottom)
    nodes = enumerate_interval(ext).nodes
    built = []
    original = Algebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Algebra, "__init__", counting_init)
    locs = [localize_extension(ext, f.maximal_ideal, an) for f in dec.factors]
    assert built == []
    monkeypatch.undo()
    sizes = []
    for f, loc in zip(dec.factors, locs):
        assert loc.ambient is A and loc.top == ext.top
        one_minus_e = gfq.vsub(F, A.one, f.idempotent)

        def rest(ring):
            return rref(F, [A.mul(one_minus_e, v) for v in ring.basis])

        expected = {n for n in nodes if rest(n) == rest(ext.top)}
        assert set(enumerate_interval(loc).nodes) == expected
        sizes.append(len(expected))
    assert len(nodes) == 6 and sorted(sizes) == [2, 3]  # [F2, F2[Y]/(Y^3)] x [F2, F4]
    # F2 x F2 <= F2 x F4 localizes to itself at its support, trivially elsewhere
    supp = support(ext_f2xf4)
    assert len(supp) == 1 and localize_extension(ext_f2xf4, supp[0]) == ext_f2xf4
    other = [m for m in maximal_ideals(local_decomposition(ext_f2xf4.bottom))
             if m != supp[0]][0]
    assert localize_extension(ext_f2xf4, other).is_trivial
    with pytest.raises(AlgebraError):
        bad = Ideal(ext_f2xf4.bottom, ())
        localize_extension(ext_f2xf4, bad)


def test_localize_local_ring_is_identity(ext44):
    M = local_decomposition(ext44.bottom).factors[0].maximal_ideal
    assert localize_extension(ext44, M) is ext44


def test_pow_products_and_values(F3):
    """u**k takes bit_length(k) + popcount(k) - 2 products for k >= 1, and
    agrees with repeated multiplication."""
    A = make_poly_quotient(F3, (1, 2, 0, 1, 1))  # Y^4 + Y^3 + 2Y + 1
    u = (2, 1, 0, 1)
    products = []
    original = Algebra.mul

    class Counting(Algebra):
        def mul(self, a, b):
            products.append(1)
            return original(self, a, b)

    counting = Counting(A.field, A.table, A.one)
    expected = A.one
    for k in range(21):
        products.clear()
        assert counting.pow(u, k) == expected
        assert len(products) == (k.bit_length() + bin(k).count("1") - 2 if k else 0)
        expected = A.mul(expected, u)


def test_localization_reconstructs_dimensions(ext_f2xf4):
    ext = ext_f2xf4
    A = ext.ambient
    F = A.field
    dec = local_decomposition(ext.bottom)
    dims_r = dims_s = 0
    for f in dec.factors:
        e = f.idempotent
        dims_r += len(rref(F, [A.mul(e, r) for r in ext.bottom.basis]))
        dims_s += len(rref(F, [A.mul(e, s) for s in ext.top.basis]))
    assert dims_r == ext.bottom.dim
    assert dims_s == ext.top.dim


def test_support_examples(ext44, ext_f2xf4, T44):
    assert support(Extension(T44.full(), T44)) == ()
    supp = support(ext44)
    assert len(supp) == 1 and supp[0].basis == ()
    assert len(support(ext_f2xf4)) == 1


def test_algebra_validation_is_exhaustive(T44):
    # associativity tampering is caught
    F2 = T44.field
    table = [[list(gfq.entries(F2, v, 4)) for v in row] for row in T44.table]
    table[3][3] = [0, 1, 0, 0]  # y^3 * y^3 = y, breaks associativity
    with pytest.raises(AlgebraError):
        Algebra(F2, [[tuple(v) for v in row] for row in table], gfq.entries(F2, T44.one, 4))
