import itertools

import pytest

from ringlat import gfq
from ringlat.algebra import (
    Algebra,
    AlgebraError,
    Extension,
    Ideal,
    Subalgebra,
    base_algebra,
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
    brute_force_idempotents,
    prime_field_nilradical,
    primitive_idempotents_mod_nil,
)


def test_poly_quotient_nilpotent(F2, T44):
    assert T44.dim == 4
    y = T44.basis_vec(1)
    assert T44.pow(y, 4) == T44.zero
    assert T44.mul(T44.basis_vec(2), T44.basis_vec(3)) == T44.zero


def test_poly_quotient_degree_one_is_base_field(F2):
    A = make_poly_quotient(F2, (1, 1))  # Y - 1 over GF(2)
    assert A.dim == 1
    assert A.one == (1,)


def test_poly_quotient_irreducible_gives_field(F4alg):
    nonzero = [v for v in F4alg.elements() if any(v)]
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


def test_make_product(F2, F4alg):
    P = make_product(base_algebra(F2), base_algebra(F2))
    assert P.dim == 2 and P.one == (1, 1)
    dec = local_decomposition(P.full())
    assert sorted(dec.idempotents) == [(0, 1), (1, 0)]
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
    assert K.basis == ((1, 0, 0, 0),)
    Ky2 = generated_subalgebra(T44, [T44.basis_vec(2)])
    assert Ky2.basis == ((1, 0, 0, 0), (0, 0, 1, 0))
    assert generated_subalgebra(T44, [T44.basis_vec(1)]).dim == 4


def all_pairs_closure(ambient, gens, seed=None):
    """Reference closure: the unit, the seed and the generators, with the
    products of all pairs of rows added until a round adds nothing."""
    F = ambient.field
    seed_rows = seed.basis if seed is not None else ()
    rows = rref(F, [ambient.one, *seed_rows, *map(tuple, gens)])
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
        calls.append((ambient, [tuple(g) for g in gens], seed))
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
    rows = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    R = Subalgebra(T44, rows)
    again = Subalgebra(T44, rows)
    respanned = Subalgebra(T44, [(1, 0, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1)])
    assert R == again == respanned and hash(R) == hash(again) == hash(respanned)
    unit_ideal = Ideal(R, rows)
    assert unit_ideal.basis == R.basis
    assert unit_ideal != R and R != unit_ideal
    other = make_poly_quotient(F2, (0, 0, 0, 0, 1))  # same table, another ambient
    assert Subalgebra(other, rows) != R


def test_conductor_examples(F2, T44):
    K = generated_subalgebra(T44, [])
    assert conductor(K, T44.full()).basis == ()
    assert conductor(T44.full(), T44.full()).dim == 4
    R = Subalgebra(T44, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert conductor(R, T44.full()).basis == ((0, 0, 1, 0), (0, 0, 0, 1))


def test_conductor_is_largest_common_ideal(F2, T44):
    """Brute-force check on a small instance: no bigger subspace of R is a
    common ideal of R and S."""
    R = Subalgebra(T44, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
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
    assert nilradical(T44.full()).basis == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert nilradical(F4alg.full()).dim == 0
    P = make_product(base_algebra(F2), make_poly_quotient(F2, (0, 0, 1)))
    assert nilradical(P.full()).basis == ((0, 0, 1),)


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
        expected = sorted(v for v in A.elements() if A.pow(v, A.dim) == A.zero)
        got = sorted(gfq.span_vectors(A.field, nil.basis)) if nil.dim else []
        got = sorted(set(got) | {A.zero})
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
        (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    P = make_product(F4alg, make_poly_quotient(F2, (0, 0, 1)))
    dec = local_decomposition(P.full())
    assert sorted(f.residue_degree for f in dec.factors) == [1, 2]
    assert sum(f.dim for f in dec.factors) == P.dim
    for fa, fb in itertools.combinations(dec.factors, 2):
        assert P.mul(fa.idempotent, fb.idempotent) == P.zero
    total = P.zero
    for f in dec.factors:
        assert P.mul(f.idempotent, f.idempotent) == f.idempotent
        total = gfq.vadd(P.field, total, f.idempotent)
    assert total == P.one


def _primitive_by_scan(ring):
    """The minimal nonzero idempotents of ring, by exhaustive scan."""
    A = ring.ambient
    nonzero = [e for e in brute_force_idempotents(ring) if any(e)]
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
            assert dec.idempotents == tuple(primitive_idempotents_mod_nil(ring))
            if q ** ring.dim > 4096:
                continue
            assert sorted(dec.idempotents) == _primitive_by_scan(ring)
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
    assert sorted(dec_p.idempotents) == _primitive_by_scan(P.full())
    assert sorted(dec_r.idempotents) == _primitive_by_scan(R)


def test_quotient_examples(F2, T44):
    qm = quotient(T44.full(), [(0, 0, 0, 1)])
    assert qm.algebra.same_table(make_poly_quotient(F2, (0, 0, 0, 1)))
    qm0 = quotient(T44.full(), ())
    assert qm0.algebra.same_table(T44)
    with pytest.raises(AlgebraError):
        quotient(T44.full(), T44.full().basis)
    # a proper subring: GF(2)[y^2] modulo y^2 is GF(2)
    even = Subalgebra(T44, [(1, 0, 0, 0), (0, 0, 1, 0)])
    qm_even = quotient(even, [(0, 0, 1, 0)])
    assert qm_even.algebra.same_table(base_algebra(F2))
    assert qm_even.project_rows(even.basis) == ((1,),)
    # projection is a ring map
    for u in [T44.basis_vec(1), T44.basis_vec(2)]:
        for v in [T44.basis_vec(1), T44.one]:
            assert qm.project(T44.mul(u, v)) == qm.algebra.mul(qm.project(u),
                                                               qm.project(v))


def test_module_length_examples(F2, T44):
    K = generated_subalgebra(T44, [])
    assert module_length(K, T44.full().basis, K.basis) == 3
    assert module_length(K, (), ()) == 0
    R = Subalgebra(T44, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    M = local_decomposition(R).factors[0].maximal_ideal
    assert module_length(R, R.basis, M.basis) == 1  # the simple module R/M


def test_module_length_additive_on_nested_triples(F2, T44):
    K = generated_subalgebra(T44, [])
    nested = [(), ((0, 0, 0, 1),), ((0, 0, 1, 0), (0, 0, 0, 1)), T44.full().basis]
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
    f_rows = rref(F, f_rows)
    total, cur = 0, rref(F, e_rows)
    while len(cur) > len(f_rows):
        nxt = rref(F, [A.mul(j, x) for j in dec.nilradical.basis for x in cur] + list(f_rows))
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
                    modules = {S.basis, R.basis, conductor(R, S).basis, dec.nilradical.basis,
                               an.decomposition(S).nilradical.basis, ()}
                    modules |= {m.basis for m in dec.maximal_ideals}
                    for E, sub in itertools.permutations(modules, 2):
                        if all(gfq.in_span(F, E, v) for v in sub):
                            assert module_length(R, E, sub, an) == \
                                radical_filtration_length(R, E, sub, an)
                            non_local += not dec.is_local
                            extension_field += F.e > 1
    assert non_local >= 200 and extension_field >= 200


def test_module_length_rejects_unstable(F2, T44):
    R = Subalgebra(T44, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(AlgebraError):
        module_length(R, ((0, 1, 0, 0),), ())  # y alone is not R-stable


def test_localize_extension(ext_f2xf4, F2, F4alg, monkeypatch):
    """The localization at M is the subinterval of [R, S] of the nodes N
    with (1-e)N = (1-e)S, in the same ambient, and building it constructs
    no Algebra."""
    from ringlat.lattice import enumerate_interval

    S = make_product(make_poly_quotient(F2, (0, 0, 0, 1)), F4alg)
    ext = Extension(generated_subalgebra(S, [(1, 0, 0, 0, 0)]), S)  # F2 x F2
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
    other = [m for m in local_decomposition(ext_f2xf4.bottom).maximal_ideals
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
    table = [list(map(list, row)) for row in T44.table]
    table[3][3] = [0, 1, 0, 0]  # y^3 * y^3 = y, breaks associativity
    with pytest.raises(AlgebraError):
        Algebra(T44.field, [[tuple(v) for v in row] for row in table], T44.one)
