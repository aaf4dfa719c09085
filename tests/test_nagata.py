from pathlib import Path

import pytest

from ringlat import algebra, cli
from ringlat.algebra import (
    AlgebraError,
    Extension,
    Subalgebra,
    conductor,
    generated_subalgebra,
    localize_extension,
    make_poly_quotient,
    make_product,
    module_length,
    quotient,
    support,
)
from ringlat.analysis import Analysis
from ringlat.canonical import is_subintegral, seminormalization
from ringlat.gen import GenSpec, random_extension
from ringlat.gfq import contains_rows, rref
from ringlat.lattice import enumerate_interval, is_chained
from ringlat.nagata import (
    filtration_data,
    fip_subintegral_crosscheck,
    filtration_conditions,
    nagata_has_fip,
    nagata_report,
)

from conftest import nilpotency_index


def test_nilpotency_index_examples(ext44, T44, deep_local_ext):
    assert nilpotency_index(ext44) == 1  # M = 0, C = 0
    R = Subalgebra(T44, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert nilpotency_index(Extension(R, T44)) == 1  # C = M
    assert nilpotency_index(deep_local_ext) == 2


def test_nilpotency_index_needs_local(ext_f2xf4):
    with pytest.raises(AlgebraError):
        nilpotency_index(ext_f2xf4)


def test_filtration_minimal_ramified(F2):
    E = make_poly_quotient(F2, (0, 0, 1))
    ext = Extension(generated_subalgebra(E, []), E)
    data = filtration_data(ext)
    assert data.n == 1 and data.residue_is_field
    assert data.layer_lengths == () and data.sm_over_m_length == 0
    assert filtration_conditions(data) == (True, True, True)


def test_filtration_deep_local(deep_local_ext):
    data = filtration_data(deep_local_ext)
    assert data.conductor_dim == 1  # C = (s^4)
    assert data.n == 2 and not data.residue_is_field
    assert data.layer_lengths == (1,)
    assert data.sm_over_m_length == 1
    assert filtration_conditions(data) == (True, True, True)


def test_filtration_example_field_case(ext44):
    data = filtration_data(ext44)
    assert data.residue_is_field and data.n == 1
    assert data.ext is ext44 and data.conductor_dim == 0


def test_filtration_monotone(deep_local_ext, fat_layer_ext):
    for ext in (deep_local_ext, fat_layer_ext):
        data = filtration_data(ext)
        F = data.ext.ambient.field
        for hi, lo in zip(data.m_chain, data.m_chain[1:]):
            assert contains_rows(F, hi, lo)
        # strict descent of the ideals between 1 and n when R is not a field
        if not data.residue_is_field:
            for i in range(1, data.n):
                assert len(data.m_chain[i]) > len(data.m_chain[i + 1])


def test_filtration_rejects_bad_input(ext_f2xf4, F2, F4alg):
    with pytest.raises(AlgebraError):
        filtration_data(ext_f2xf4)  # not local
    extI = Extension(generated_subalgebra(F4alg, []), F4alg)
    with pytest.raises(AlgebraError):
        filtration_data(extI)  # not subintegral


def test_fat_layer_all_three_fail(fat_layer_ext):
    assert conductor(fat_layer_ext.bottom, fat_layer_ext.top).dim == 0
    data = filtration_data(fat_layer_ext)
    assert data.n == 2
    assert data.layer_lengths == (2,)
    assert data.sm_over_m_length == 2
    assert filtration_conditions(data) == (False, False, False)


def test_nagata_has_fip_examples(ext44, ext_chain3, F4alg):
    assert not nagata_has_fip(ext44).fip
    assert nagata_has_fip(ext_chain3).fip
    extI = Extension(generated_subalgebra(F4alg, []), F4alg)
    res = nagata_has_fip(extI)
    assert res.fip and seminormalization(extI) == extI.bottom


def test_crosscheck_examples(ext44, fat_layer_ext, F2):
    assert fip_subintegral_crosscheck(ext44) == (False, False)
    E = make_poly_quotient(F2, (0, 0, 1))
    extE = Extension(generated_subalgebra(E, []), E)
    assert fip_subintegral_crosscheck(extE) == (True, True)
    assert fip_subintegral_crosscheck(fat_layer_ext) == (False, False)


def test_crosscheck_requires_subintegral(ext_f2xf4):
    with pytest.raises(AlgebraError):
        fip_subintegral_crosscheck(ext_f2xf4)


def test_crosscheck_nonlocal_subintegral(F2):
    """Product instance: one chained local part, one non-chained local part."""
    T44 = make_poly_quotient(F2, (0, 0, 0, 0, 1))
    T2 = make_poly_quotient(F2, (0, 0, 1))
    S = make_product(T44, T2)
    R = Subalgebra(S, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)])
    ext = Extension(R, S)
    a, b = fip_subintegral_crosscheck(ext)
    assert (a, b) == (False, False)


def test_nagata_report_examples(ext44, ext64, ext_chain3):
    rep = nagata_report(ext_chain3)
    assert (rep.fip, rep.cardinality, rep.length, rep.lambda_value) == (True, 3, 2, 0)
    rep64 = nagata_report(ext64)
    assert (rep64.fip, rep64.cardinality, rep64.length, rep64.lambda_value) == (
        True, 4, 2, 2)
    rep44 = nagata_report(ext44)
    assert rep44.fip is False and rep44.cardinality is None
    assert rep44.length == 3 and rep44.lambda_value == 0
    assert rep44.criteria_agreement["subintegral_crosscheck"] == {
        "arithmetic": False, "filtration": False}
    doc = rep44.to_dict()
    assert doc["witnesses"] and doc["transfer_notes"]


def test_report_stable_under_conductor_reduction(deep_local_ext):
    """Reducing mod the conductor first must not change any reported value."""
    ext = deep_local_ext
    C = conductor(ext.bottom, ext.top)
    qm = quotient(ext.top, C.basis)
    R2 = Subalgebra(qm.algebra, qm.project_rows(ext.bottom.basis), check=False)
    reduced = Extension(R2)
    a, b = nagata_report(ext), nagata_report(reduced)
    assert (a.fip, a.lambda_value) == (b.fip, b.lambda_value)
    # interval sizes agree above the conductor: [R, S] vs [R/C, S/C]
    assert len(enumerate_interval(ext).nodes) == len(enumerate_interval(reduced).nodes)


def test_fip_true_when_every_local_part_is_two_nodes(F2):
    """Seminormalization consistency: all localized subintegral parts minimal."""
    E = make_poly_quotient(F2, (0, 0, 1))
    S = make_product(E, E)
    R = Subalgebra(S, [(1, 0, 0, 0), (0, 0, 1, 0)])
    ext = Extension(R, S)
    assert nagata_has_fip(ext).fip


GOLDEN = Path(__file__).parent / "golden"


def reference_filtration(ext):
    """Reference route: reduce the pair mod its conductor C with `quotient`,
    decompose R/C in the quotient algebra, and build the filtration there,
    each power of M from scratch.  Returns the projection and the data in
    quotient coordinates."""
    an = Analysis()
    C = conductor(ext.bottom, ext.top)
    qm = quotient(ext.top, C.basis)
    A2 = qm.algebra
    F = A2.field
    R2 = Subalgebra(A2, qm.project_rows(ext.bottom.basis), check=False)
    assert conductor(R2, A2.full()).dim == 0
    dec = an.decomposition(R2)
    assert dec.is_local
    M = dec.factors[0].maximal_ideal.basis

    def power(i):  # M^i, with M^0 = R/C
        cur = R2.basis
        for _ in range(i):
            cur = rref(F, [A2.mul(a, m) for a in cur for m in M])
        return cur

    n = next(i for i in range(1, A2.dim + 2) if not power(i))
    r_chain, m_chain = [], []
    for i in range(n + 1):
        smi = rref(F, [A2.mul(s, m) for s in A2.full().basis for m in power(i)])
        r_chain.append(rref(F, R2.basis + smi))
        m_chain.append(rref(F, M + smi))
    layers = tuple(module_length(R2, m_chain[i], m_chain[i + 1], an) for i in range(1, n))
    sm_over_m = module_length(R2, m_chain[1], M, an)
    r1 = Subalgebra(A2, r_chain[1], check=False)
    conditions = (sm_over_m == n - 1, all(x == 1 for x in layers),
                  is_chained(an.lattice(Extension(R2, r1))))
    return qm, {
        "n": n,
        "conductor_dim": C.dim,
        "residue_is_field": not M,
        "layer_lengths": layers,
        "sm_over_m_length": sm_over_m,
        "conditions": conditions,
        "maximal_ideal_rows": M,
        "r_chain": tuple(r_chain),
        "m_chain": tuple(m_chain),
    }


@pytest.mark.parametrize("shape", ["local-subintegral", "mixed", "product-of-locals"])
def test_filtration_matches_quotient_route(shape):
    """The filtration read in the pair's ambient equals the one built in the
    quotient by the conductor, on every support localization of seeded
    subintegral pairs over GF(2), GF(3), GF(4) and GF(9), non-local bottoms
    included."""
    nonzero_conductor = nonfield = 0
    for q in (2, 3, 4, 9):
        for seed in (5, 6):
            for k, ext in enumerate(random_extension(
                    GenSpec(seed=seed, q=q, max_dim=5, shape=shape, count=40))):
                an = Analysis()
                if not is_subintegral(ext, an):
                    continue
                for M in support(ext, an):
                    loc = localize_extension(ext, M, an)
                    data = filtration_data(loc, an)
                    qm, ref = reference_filtration(loc)
                    got = {
                        "n": data.n,
                        "conductor_dim": data.conductor_dim,
                        "residue_is_field": data.residue_is_field,
                        "layer_lengths": data.layer_lengths,
                        "sm_over_m_length": data.sm_over_m_length,
                        "conditions": filtration_conditions(data, an),
                        "maximal_ideal_rows": qm.project_rows(data.maximal_ideal_rows),
                        "r_chain": tuple(qm.project_rows(r) for r in data.r_chain),
                        "m_chain": tuple(qm.project_rows(m) for m in data.m_chain),
                    }
                    assert got == ref, (q, seed, k)
                    if data.conductor_dim:
                        nonzero_conductor += 1
                        nonfield += not data.residue_is_field
    assert nonzero_conductor >= 20 and nonfield >= 3, (nonzero_conductor, nonfield)


@pytest.mark.parametrize("verb, algebras", [("nagata", 1), ("check", 3)])
def test_nagata_route_builds_no_quotient_algebra(verb, algebras, monkeypatch, capsys):
    """y7-over-y2 has a nonzero conductor.  Its filtration is read in the
    pair's ambient: `nagata` builds only the loaded algebra, and `check` adds
    only the two algebras of its quotient-interval checks."""
    made = []
    original = algebra.Algebra.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(algebra.Algebra, "__init__", counting)
    path = str(GOLDEN / "y7-over-y2.json")
    ext = cli.load_instance(path)
    assert conductor(ext.bottom, ext.top).dim > 0
    made.clear()
    assert cli.main([verb, path]) == 0
    capsys.readouterr()
    assert len(made) == algebras
