import pytest

from ringlat.algebra import (
    AlgebraError,
    Extension,
    Subalgebra,
    conductor,
    generated_subalgebra,
    make_poly_quotient,
    make_product,
    support,
)
from ringlat.gfq import contains_rows
from ringlat.lattice import enumerate_interval
from ringlat.nagata import (
    filtration_data,
    fip_subintegral_crosscheck,
    filtration_conditions,
    nagata_has_fip,
    nagata_report,
    nilpotency_index,
)


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
    assert data.conductor_dim == 1  # (s^4) was removed
    assert data.n == 2 and not data.residue_is_field
    assert data.layer_lengths == (1,)
    assert data.sm_over_m_length == 1
    assert filtration_conditions(data) == (True, True, True)


def test_filtration_example_field_case(ext44):
    data = filtration_data(ext44)
    assert data.residue_is_field and data.n == 1
    assert data.reduced.ambient.dim == 4  # conductor was zero, nothing removed


def test_filtration_monotone(deep_local_ext, fat_layer_ext):
    for ext in (deep_local_ext, fat_layer_ext):
        data = filtration_data(ext)
        F = data.reduced.ambient.field
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
    assert res.fip and res.seminormalization == extI.bottom


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
    from ringlat.algebra import quotient

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
