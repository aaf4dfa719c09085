import time

import pytest

from ringlat import canonical, gfq
from ringlat.algebra import (
    Extension,
    InternalInvariantError,
    Subalgebra,
    base_algebra,
    conductor,
    generated_subalgebra,
    local_decomposition,
    make_poly_quotient,
    make_product,
    module_length,
    support,
)
from ringlat.analysis import Analysis
from ringlat.canonical import (
    DECOMPOSED,
    INERT,
    RAMIFIED,
    canonical_decomposition,
    census,
    classify_cover_edges,
    classify_minimal,
    crucial_ideal,
    crucial_traces,
    is_infra_integral,
    is_subintegral,
    is_t_closed,
    lambda_crosscheck,
    lambda_invariant,
    length_additivity_check,
    residual_extensions,
    seminormalization,
    t_closure,
    verify_chain_classification,
)
from ringlat.gen import SHAPES, GenSpec, random_extension
from ringlat.gfq import irreducible_poly
from ringlat.lattice import enumerate_interval, interval_length, maximal_chains

from conftest import prime_field_nilradical, primitive_idempotents_mod_nil


@pytest.fixture(scope="module")
def minimal_trio(F2, F4alg):
    inert = Extension(generated_subalgebra(F4alg, []), F4alg)
    P = make_product(base_algebra(F2), base_algebra(F2))
    decomposed = Extension(generated_subalgebra(P, []), P)
    E = make_poly_quotient(F2, (0, 0, 1))
    ramified = Extension(generated_subalgebra(E, []), E)
    return inert, decomposed, ramified


def test_classify_minimal_trio(minimal_trio):
    inert, decomposed, ramified = minimal_trio
    assert classify_minimal(inert.bottom, inert.top).kind == INERT
    assert classify_minimal(decomposed.bottom, decomposed.top).kind == DECOMPOSED
    kind = classify_minimal(ramified.bottom, ramified.top).kind
    assert kind == RAMIFIED


def test_cover_kind_trio(minimal_trio):
    """The Frobenius counts (local factors, dim - dim Nil) of both rings of a
    minimal pair give its kind."""
    inert, decomposed, ramified = minimal_trio
    for ext, kind, counts in ((inert, INERT, ((1, 1), (1, 2))),
                              (decomposed, DECOMPOSED, ((1, 1), (2, 2))),
                              (ramified, RAMIFIED, ((1, 1), (1, 1)))):
        an = Analysis()
        assert canonical.cover_kind(ext.bottom, ext.top, an) == kind
        assert (an.frobenius_counts(ext.bottom), an.frobenius_counts(ext.top)) == counts


def test_cover_kind_refuses_counts_of_no_minimal_pair(minimal_trio):
    """Read downward, a decomposed pair loses a local factor: no kind fits."""
    _, decomposed, _ = minimal_trio
    with pytest.raises(InternalInvariantError) as caught:
        canonical.cover_kind(decomposed.top, decomposed.bottom)
    assert caught.value.tag == "cover-counts"


@pytest.fixture(scope="module")
def count_campaign():
    """The lattice of every instance of a seeded campaign, with its analysis:
    seed 41, q in {2, 3, 4, 5, 7, 8, 9}, all four shapes, 12 each, max-dim 4."""
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for shape in SHAPES:
            spec = GenSpec(seed=41, q=q, max_dim=4, shape=shape, count=12)
            for ext in random_extension(spec):
                an = Analysis()
                out.append((an, an.lattice(ext)))
    return out


def test_cover_kind_matches_the_conductor_route(count_campaign):
    """Both routes give the same kind on all 2,293 covers of the campaign."""
    kinds = []
    for an, lat in count_campaign:
        for i, j in lat.covers:
            T, U = lat.nodes[i], lat.nodes[j]
            kind = canonical.cover_kind(T, U, an)
            assert kind == classify_minimal(T, U, an).kind
            kinds.append(kind)
    assert census(kinds) == {"inert": 224, "decomposed": 332, "ramified": 1737}


def test_frobenius_counts_match_the_local_decomposition(count_campaign):
    """(r, s) is (number of local factors, dim - dim Nil) on every node, and
    the idempotents split in the Frobenius-fixed subring are those found
    modulo the nilradical and lifted, an independent route."""
    nodes = 0
    for an, lat in count_campaign:
        for ring in lat.nodes:
            dec = local_decomposition(ring)
            reference = tuple(primitive_idempotents_mod_nil(ring))
            assert dec.idempotents == reference
            assert an.frobenius_counts(ring) == (len(dec.factors), ring.dim - dec.nilradical.dim)
            assert an.frobenius_counts(ring) == (
                len(reference), ring.dim - len(prime_field_nilradical(ring)))
            nodes += 1
    assert nodes == 1687


def test_classify_minimal_evidence(minimal_trio):
    inert, decomposed, ramified = minimal_trio
    k = classify_minimal(decomposed.bottom, decomposed.top)
    assert len(k.primes_above) == 2 and k.residual_degrees == (1, 1)
    ki = classify_minimal(inert.bottom, inert.top)
    assert ki.residual_degrees == (2,)
    kr = classify_minimal(ramified.bottom, ramified.top)
    assert kr.conductor.basis == () and len(kr.primes_above) == 1


def test_classify_rejects_non_adjacent(T44):
    K = generated_subalgebra(T44, [])
    with pytest.raises(InternalInvariantError):
        classify_minimal(K, T44.full())  # not adjacent: conductor not maximal


def test_crucial_ideal_examples(minimal_trio, ext_f2xf4):
    inert, _, ramified = minimal_trio
    assert crucial_ideal(inert.bottom, inert.top).basis == ()
    assert crucial_ideal(ramified.bottom, ramified.top).basis == ()
    crux = crucial_ideal(ext_f2xf4.bottom, ext_f2xf4.top)
    assert crux == support(ext_f2xf4)[0]


def test_crucial_ideal_localizes_trivially_elsewhere(ext_f2xf4):
    ext = ext_f2xf4
    A = ext.ambient
    crux = crucial_ideal(ext.bottom, ext.top)
    dec = local_decomposition(ext.bottom)
    from ringlat.gfq import rref

    for f in dec.factors:
        if f.maximal_ideal == crux:
            continue
        e = f.idempotent
        dim_r = len(rref(A.field, [A.mul(e, r) for r in ext.bottom.basis]))
        dim_s = len(rref(A.field, [A.mul(e, s) for s in ext.top.basis]))
        assert dim_r == dim_s


def test_residual_extensions(ext64, ext_f2xf4):
    res = residual_extensions(ext64)
    assert len(res) == 1 and res[0].degree == 6 and res[0].length == 2
    res2 = residual_extensions(ext_f2xf4)
    assert sorted(r.degree for r in res2) == [1, 2]


def test_predicates_examples(ext44, F2, F4alg, minimal_trio):
    assert is_subintegral(ext44)
    P = make_product(base_algebra(F2), base_algebra(F2))
    extD = Extension(generated_subalgebra(P, []), P)
    assert is_infra_integral(extD) and not is_subintegral(extD)
    extI = Extension(generated_subalgebra(F4alg, []), F4alg)
    assert is_t_closed(extI)


def reference_t_closed(ext):
    """The definitional scan: R is t-closed in S unless some b in S but not
    in R and some r in R have b^2 - rb and b^3 - rb^2 in R."""
    R, S, A = ext.bottom, ext.top, ext.ambient
    F = A.field
    r_elements = list(gfq.span_vectors(F, R.basis))
    for b in gfq.span_vectors(F, S.basis):
        if R.contains_vector(b):
            continue
        b2 = A.mul(b, b)
        b3 = A.mul(b2, b)
        for r in r_elements:
            if (R.contains_vector(gfq.vsub(F, b2, A.mul(r, b)))
                    and R.contains_vector(gfq.vsub(F, b3, A.mul(r, b2)))):
                return False
    return True


@pytest.mark.parametrize("q,shape,seed", [
    (3, "local-subintegral", 31), (3, "product-of-locals", 32),
    (4, "local-subintegral", 41), (4, "product-of-locals", 42),
    (9, "local-subintegral", 91), (9, "product-of-locals", 92),
    (9, "field-tower", 93),
])
def test_t_closed_scan_matches_reference(q, shape, seed):
    """Every node n of seeded instances: is_t_closed finds [n, S] t-closed
    exactly when the definitional pair-by-pair scan does, and t_closure is
    the least node the scan finds t-closed."""
    max_dim = 3 if q == 9 else 4
    pairs = 0
    for ext in random_extension(GenSpec(seed=seed, q=q, max_dim=max_dim,
                                        shape=shape, count=3)):
        closed = []
        for node in enumerate_interval(ext).nodes:
            sub = Extension(node, ext.top)
            expected = reference_t_closed(sub)
            assert is_t_closed(sub) == expected
            if expected:
                closed.append(node)
            pairs += 1
        least = min(closed, key=lambda n: n.dim)
        assert all(n.contains(least) for n in closed)
        assert t_closure(ext) == least
    assert pairs >= 6


def greatest_node(nodes, over):
    """The greatest of the nodes n with over(n), which must contain the rest."""
    hits = [n for n in nodes if over(n)]
    top = max(hits, key=lambda n: n.dim)
    assert all(top.contains(n) for n in hits)
    return top


@pytest.mark.parametrize("q,seed", [(2, 21), (3, 31), (4, 41), (5, 51), (8, 81), (9, 91)])
def test_closed_forms_match_node_scans(q, seed):
    """On every node n of seeded instances, +R and tR of [n, S] are the
    greatest node of [n, S] subintegral, and infra-integral, over n."""
    max_dim = 3 if q in (8, 9) else 4
    pairs = 0
    for shape in ("mixed", "product-of-locals"):
        for ext in random_extension(GenSpec(seed=seed, q=q, max_dim=max_dim,
                                            shape=shape, count=6)):
            an = Analysis()
            nodes = an.lattice(ext).nodes
            for n in nodes:
                sub = Extension(n, ext.top)
                above = [m for m in nodes if m.contains(n)]
                assert seminormalization(sub, an) == greatest_node(
                    above, lambda m: is_subintegral(Extension(n, m), an))
                assert t_closure(sub, an) == greatest_node(
                    above, lambda m: is_infra_integral(Extension(n, m), an))
                pairs += 1
    assert pairs >= 20


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_length_formula(q):
    """The length of [R, S] from the canonical chain, with no lattice:
    L_R(+R/R) + (|Max tR| - |Max +R|) + the sum of Omega(residual degree)
    over tR <= S, for the ramified, decomposed and inert steps (DPP 2012)."""
    max_dim = {2: 5, 8: 3, 9: 3}.get(q, 4)
    count = 0
    for shape in SHAPES:
        for ext in random_extension(GenSpec(seed=100 + q, q=q, max_dim=max_dim,
                                            shape=shape, count=6)):
            an = Analysis()
            plus, tcl = seminormalization(ext, an), t_closure(ext, an)
            formula = (module_length(ext.bottom, plus.basis, ext.bottom.basis, an)
                       + len(an.decomposition(tcl).factors)
                       - len(an.decomposition(plus).factors)
                       + sum(r.length for r in residual_extensions(Extension(tcl, ext.top), an)))
            assert interval_length(enumerate_interval(ext)) == formula
            count += 1
    assert count == 4 * 6


@pytest.fixture(scope="module")
def mutation_instances(F2, F4alg):
    """F2 in F2[Y]/(Y^2) x F2, where +R lies strictly between R and tR = S,
    and F2 in F2 x F4, where R = +R lies strictly below tR = F2 x F2."""
    S1 = make_product(make_poly_quotient(F2, (0, 0, 1)), base_algebra(F2))
    S2 = make_product(base_algebra(F2), F4alg)
    return {name: Extension(generated_subalgebra(S, []), S)
            for name, S in (("seminormalization", S1), ("t_closure", S2))}


@pytest.mark.parametrize("closed_form,tag", [
    ("seminormalization", "seminormalization-vs-lattice"),
    ("t_closure", "t-closure-vs-lattice"),
])
@pytest.mark.parametrize("wrong", ["bottom", "top"])
def test_lattice_catches_a_wrong_closed_form(monkeypatch, mutation_instances,
                                             closed_form, tag, wrong):
    """A closed form that returns R, or S, in place of its ring disagrees
    with the nodes its covers reach, and canonical_decomposition says so."""
    ext = mutation_instances[closed_form]
    dec = canonical_decomposition(ext)
    assert ext.bottom != getattr(dec, closed_form) != ext.top
    monkeypatch.setattr(canonical, closed_form, lambda ext, an=None: getattr(ext, wrong))
    with pytest.raises(InternalInvariantError) as err:
        canonical_decomposition(ext)
    assert err.value.tag == tag


def test_t_closure_of_a_large_field_costs_no_work(F2):
    """GF(2) inside GF(2^16) is t-closed: the closed form is one kernel of a
    16-row map, with no unit of work and well under a second."""
    modulus = (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)  # x^16 + x^5 + x^3 + x^2 + 1
    assert gfq.poly_is_irreducible(F2, modulus)
    S = make_poly_quotient(F2, modulus)
    ext = Extension(generated_subalgebra(S, []), S)
    start = time.perf_counter()
    an = Analysis(budget=0)
    assert t_closure(ext, an) == ext.bottom
    assert time.perf_counter() - start < 1.0 and an.spent == 0


def test_seminormalization_examples(ext44, F2, F4alg):
    assert seminormalization(ext44) == ext44.top  # subintegral pair
    extI = Extension(generated_subalgebra(F4alg, []), F4alg)
    assert seminormalization(extI) == extI.bottom  # t-closed pair
    # factor-wise: F2 in F2[Y]/(Y^3) x F4
    S = make_product(make_poly_quotient(F2, (0, 0, 0, 1)), F4alg)
    ext = Extension(generated_subalgebra(S, []), S)
    plus = seminormalization(ext)
    assert plus.dim == 3
    assert is_subintegral(Extension(ext.bottom, plus))


def test_t_closure_examples(ext44, F2, F4alg):
    assert t_closure(ext44) == ext44.top  # infra-integral pair
    extI = Extension(generated_subalgebra(F4alg, []), F4alg)
    assert t_closure(extI) == extI.bottom  # already t-closed
    # F2 x F2 extended into F4 x F4: pivot at F2 x F2, then inert steps
    S = make_product(F4alg, F4alg)
    R = generated_subalgebra(S, [])
    ext = Extension(R, S)
    tcl = t_closure(ext)
    assert tcl.dim == 2
    assert is_infra_integral(Extension(R, tcl))
    assert is_t_closed(Extension(tcl, S.full()))


def test_canonical_decomposition_chain(F2, F4alg):
    S = make_product(make_poly_quotient(F2, (0, 0, 0, 1)), F4alg)
    ext = Extension(generated_subalgebra(S, []), S)
    dec = canonical_decomposition(ext)
    plus, tcl = dec.seminormalization, dec.t_closure
    assert tcl.contains(plus) and plus.contains(ext.bottom)
    assert is_subintegral(Extension(ext.bottom, plus))
    assert is_infra_integral(Extension(ext.bottom, tcl))
    assert is_t_closed(Extension(tcl, ext.top))


def test_lambda_examples(ext44, ext64, F2, F4alg):
    assert lambda_invariant(ext44) == 0
    assert lambda_invariant(ext64) == 2
    F8 = make_poly_quotient(F2, irreducible_poly(F2, 3))
    S = make_product(F4alg, F8)
    ext = Extension(generated_subalgebra(S, []), S)
    assert lambda_invariant(ext) == 1


def test_lambda_crosschecks(ext44, ext64, F2, F4alg):
    for ext in (ext44, ext64):
        assert lambda_crosscheck(ext).consistent
    # multi-maximal t-closed instance: F2 x F2 in F4 x F8
    F8 = make_poly_quotient(F2, irreducible_poly(F2, 3))
    S = make_product(F4alg, F8)
    R = Subalgebra(S, [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)])
    ext = Extension(R, S)
    cc = lambda_crosscheck(ext)
    assert cc.consistent and cc.localized_sup == 1 and cc.msupp_count == 2


def test_chain_classification_reports(ext44, ext64, ext_chain3):
    lat = enumerate_interval(ext64)
    chains, _ = maximal_chains(lat)
    rep = verify_chain_classification(lat, chains[0])
    assert rep.all_inert and rep.t_closed and rep.consistent
    lat44 = enumerate_interval(ext44)
    chains44, _ = maximal_chains(lat44)
    rep44 = verify_chain_classification(lat44, chains44[0])
    assert rep44.all_ramified_or_decomposed and rep44.infra_integral
    assert rep44.consistent and not rep44.all_inert


def test_chain_classification_mixed(F2, F4alg):
    S = make_product(make_poly_quotient(F2, (0, 0, 0, 1)), F4alg)
    ext = Extension(generated_subalgebra(S, []), S)
    lat = enumerate_interval(ext)
    chains, _ = maximal_chains(lat)
    rep = verify_chain_classification(lat, chains[0])
    assert not rep.all_inert and not rep.all_ramified_or_decomposed
    assert rep.consistent


def test_crucial_trace_invariance(ext44, ext64):
    an = Analysis()
    for ext in (ext44, ext64):
        lat = enumerate_interval(ext)
        chains, trunc = maximal_chains(lat)
        assert not trunc and len(chains) >= 2
        trace = crucial_traces(lat, an)
        traces = {frozenset(trace[e] for e in zip(c, c[1:])) for c in chains}
        assert len(traces) == 1
        assert traces.pop() == frozenset(m.basis for m in support(ext))


def test_census(ext44, ext64):
    kinds44 = classify_cover_edges(enumerate_interval(ext44))
    assert census(k.kind for k in kinds44.values()) == {"inert": 0, "decomposed": 0, "ramified": 7}
    kinds64 = classify_cover_edges(enumerate_interval(ext64))
    assert census(k.kind for k in kinds64.values()) == {"inert": 4, "decomposed": 0, "ramified": 0}


def test_ramified_subintegral_decomposed_infra(minimal_trio):
    _, decomposed, ramified = minimal_trio
    assert is_subintegral(ramified)
    assert is_infra_integral(decomposed)
    assert not is_subintegral(decomposed)


def test_length_additivity(ext44, ext64, F2, F4alg):
    rep = length_additivity_check(ext44)
    assert rep.t_split_ok and rep.total == 3
    rep64 = length_additivity_check(ext64)
    assert rep64.t_split_ok and rep64.below_t_closure == 0
    S = make_product(make_poly_quotient(F2, (0, 0, 0, 1)), F4alg)
    ext = Extension(generated_subalgebra(S, []), S)
    rep2 = length_additivity_check(ext)
    assert rep2.t_split_ok
    assert rep2.total == rep2.below_t_closure + rep2.above_t_closure
    if rep2.seminormal_split_applicable:
        assert rep2.seminormal_split_ok
