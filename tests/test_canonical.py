import pytest

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
    support,
)
from ringlat.analysis import Analysis
from ringlat.canonical import (
    DECOMPOSED,
    INERT,
    RAMIFIED,
    canonical_decomposition,
    census,
    chain_trace_set,
    classify_chain,
    classify_cover_edges,
    classify_minimal,
    crucial_ideal,
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
from ringlat.gfq import GF, irreducible_poly
from ringlat.lattice import enumerate_interval, maximal_chains


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
    res = is_t_closed(extI)
    assert res.value and res.method == "scan"


def test_t_closed_scan_vs_chain_paths(ext44, ext64, ext_chain3):
    for ext in (ext44, ext64, ext_chain3):
        by_scan = is_t_closed(ext, an=Analysis(scan_budget=2 ** 20))
        by_chain = is_t_closed(ext, an=Analysis(scan_budget=0))
        assert by_scan.method == "scan" and by_chain.method == "chain"
        assert by_scan.value == by_chain.value


def test_t_closed_witness(ext44):
    res = is_t_closed(ext44)
    assert not res.value
    b, r = res.witness
    A = ext44.ambient
    from ringlat.gfq import vsub

    b2 = A.mul(b, b)
    b3 = A.mul(b2, b)
    assert ext44.bottom.contains_vector(vsub(A.field, b2, A.mul(r, b)))
    assert ext44.bottom.contains_vector(vsub(A.field, b3, A.mul(r, b2)))
    assert not ext44.bottom.contains_vector(b)


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
    assert is_t_closed(Extension(tcl, S.full())).value


def test_canonical_decomposition_chain(F2, F4alg):
    S = make_product(make_poly_quotient(F2, (0, 0, 0, 1)), F4alg)
    ext = Extension(generated_subalgebra(S, []), S)
    dec = canonical_decomposition(ext)
    plus, tcl = dec.seminormalization, dec.t_closure
    assert tcl.contains(plus) and plus.contains(ext.bottom)
    assert is_subintegral(Extension(ext.bottom, plus))
    assert is_infra_integral(Extension(ext.bottom, tcl))
    assert is_t_closed(Extension(tcl, ext.top)).value


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
    for ext in (ext44, ext64):
        lat = enumerate_interval(ext)
        kinds = classify_cover_edges(lat)
        chains, trunc = maximal_chains(lat)
        assert not trunc and len(chains) >= 2
        traces = {chain_trace_set(classify_chain(lat, c, kinds)) for c in chains}
        assert len(traces) == 1
        assert traces.pop() == frozenset(m.basis for m in support(ext))


def test_census(ext44, ext64):
    kinds44 = classify_cover_edges(enumerate_interval(ext44))
    assert census(kinds44) == {"inert": 0, "decomposed": 0, "ramified": 7}
    kinds64 = classify_cover_edges(enumerate_interval(ext64))
    assert census(kinds64) == {"inert": 4, "decomposed": 0, "ramified": 0}


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
