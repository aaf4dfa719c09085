"""Acceptance suite: one test per criterion, printing one line per result.

Campaign instances come from the seeded generator; the frozen regression
values for the running example were produced by the brute-force subspace
oracle before the enumeration path was built.
"""

import itertools
import time

import pytest

from ringlat.algebra import (
    Extension,
    conductor,
    generated_subalgebra,
    localize_extension,
    make_poly_quotient,
    nilradical,
    support,
)
from ringlat.analysis import Analysis
from ringlat.canonical import (
    DECOMPOSED,
    INERT,
    RAMIFIED,
    classify_cover_edges,
    crucial_traces,
    is_infra_integral,
    is_subintegral,
    is_t_closed,
    lambda_invariant,
    t_closure,
)
from ringlat.gen import GenSpec, random_extension
from ringlat.gfq import GF
from ringlat.lattice import (
    brute_force_interval,
    check_distributivity,
    enumerate_interval,
    interval_length,
    is_arithmetic,
    is_chained,
    is_delta_extension,
    maximal_chains,
    quotient_interval_check,
)
from ringlat.nagata import filtration_data, fip_subintegral_crosscheck, filtration_conditions, nagata_has_fip

from conftest import exhaustive_top_algebras, vec

# frozen from the brute-force oracle ahead of the enumeration build
EX44_CARDINALITY = 6
EX44_LENGTH = 3


def report(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


@pytest.fixture(scope="module")
def ex44():
    T = make_poly_quotient(GF(2), (0, 0, 0, 0, 1))
    return Extension(generated_subalgebra(T, []), T)


@pytest.fixture(scope="module")
def subintegral_campaign():
    """>= 100 local Artinian subintegral instances, not fields after the
    conductor reduction, dim <= 5, q in {2, 3}."""
    out = []
    for q in (2, 3):
        collected = 0
        for block in range(10):
            spec = GenSpec(seed=q * 1000 + block, q=q, max_dim=5,
                           shape="local-subintegral", count=200)
            for ext in random_extension(spec):
                data = filtration_data(ext)
                if data.residue_is_field:
                    continue
                out.append((ext, data))
                collected += 1
                if collected >= 50:
                    break
            if collected >= 50:
                break
        assert collected >= 50, f"could not collect 50 instances for q={q}"
    return out


@pytest.fixture(scope="module")
def mixed_campaign():
    """>= 100 integral instances across all generator shapes, q in {2, 3}."""
    out = []
    for q in (2, 3):
        spec = GenSpec(seed=17 + q, q=q, max_dim=5, shape="mixed", count=50)
        out.extend(random_extension(spec))
    return out


def test_criterion_1_running_example_regression(ex44):
    t0 = time.monotonic()
    lat = enumerate_interval(ex44)
    assert is_subintegral(ex44)
    nodes = {n.basis: n for n in lat.nodes}
    F2 = ex44.ambient.field
    ky2 = nodes[(vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 1, 0)))]
    ky3 = nodes[(vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 0, 1)))]
    assert not ky2.contains(ky3) and not ky3.contains(ky2)
    arithmetic, witnesses = is_arithmetic(ex44)
    assert arithmetic is False and witnesses
    assert nagata_has_fip(ex44)[0] is False
    assert len(lat.nodes) == EX44_CARDINALITY
    assert interval_length(lat) == EX44_LENGTH
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "running-example regression")


def definitional_covers(nodes):
    """The pairs (i, j) with nodes[i] < nodes[j] and no node strictly between,
    by direct containment tests."""
    below = {(i, j) for i, j in itertools.permutations(range(len(nodes)), 2)
             if nodes[i].dim < nodes[j].dim and nodes[j].contains(nodes[i])}
    return {(i, j) for i, j in below
            if not any((i, k) in below and (k, j) in below for k in range(len(nodes)))}


def assert_matches_oracle(ext):
    """Enumeration finds the oracle's rings, and its covers are those rings'
    definitional covers."""
    lat = enumerate_interval(ext)
    oracle = brute_force_interval(ext)
    assert set(lat.nodes) == oracle
    nodes = sorted(oracle, key=lambda n: (n.dim, n.basis))
    assert lat.covers == tuple(sorted(definitional_covers(nodes)))


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    # exhaustive sweep: every generator-shape top algebra of dim <= 4 over
    # GF(2), against every subalgebra of it as the bottom ring
    F2 = GF(2)
    for S in exhaustive_top_algebras(F2, 4):
        prime = generated_subalgebra(S, [])
        all_bottoms = brute_force_interval(Extension(prime, S))
        for R in sorted(all_bottoms, key=lambda n: (n.dim, n.basis)):
            assert_matches_oracle(Extension(R, S))
            checked += 1
    # seeded sample over GF(3)
    sampled = 0
    for ext in random_extension(GenSpec(seed=300, q=3, max_dim=4,
                                        shape="mixed", count=50)):
        assert_matches_oracle(ext)
        sampled += 1
    assert sampled >= 50
    # seeded samples over extension fields, where a line has more than
    # p - 1 nonzero scalar multiples
    for q, count in ((4, 50), (9, 30)):
        for ext in random_extension(GenSpec(seed=100 * q, q=q, max_dim=4,
                                            shape="mixed", count=count)):
            assert_matches_oracle(ext)
            sampled += 1
    assert sampled >= 130
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(2, f"oracle equivalence on {checked} exhaustive + {sampled} sampled")


def test_criterion_3_filtration_tri_equivalence(subintegral_campaign):
    assert len(subintegral_campaign) >= 100
    for ext, data in subintegral_campaign:
        c1, c2, c3 = filtration_conditions(data)
        assert c1 == c2 == c3, (data.n, data.layer_lengths, (c1, c2, c3))
    report(3, f"filtration tri-equivalence on {len(subintegral_campaign)} instances")


def test_criterion_4_fip_criteria_agreement(subintegral_campaign):
    for ext, _ in subintegral_campaign:
        a, b = fip_subintegral_crosscheck(ext)
        assert a == b
    report(4, f"finiteness criteria agree on {len(subintegral_campaign)} instances")


def test_criterion_5_length_additivity(mixed_campaign):
    assert len(mixed_campaign) >= 100
    for ext in mixed_campaign:
        lat = enumerate_interval(ext)
        tcl = t_closure(ext)
        below = interval_length(enumerate_interval(Extension(ext.bottom, tcl)))
        above = interval_length(enumerate_interval(Extension(tcl, ext.top)))
        assert interval_length(lat) == below + above
    report(5, f"length additivity on {len(mixed_campaign)} instances")


def test_criterion_6_lambda_consistency(mixed_campaign):
    for ext in mixed_campaign:
        lat = enumerate_interval(ext)
        tcl = t_closure(ext)
        assert lambda_invariant(ext) == lambda_invariant(Extension(tcl, ext.top))
        if tcl == ext.bottom and not ext.is_trivial:  # t-closed instance
            supp = support(ext)
            localized = [
                interval_length(enumerate_interval(localize_extension(ext, M)))
                for M in supp]
            assert lambda_invariant(ext) == max(localized, default=0)
            assert interval_length(lat) <= len(supp) * lambda_invariant(ext)
    report(6, f"lambda consistency on {len(mixed_campaign)} instances")


def test_criterion_7_crucial_trace_invariance(mixed_campaign, ex44):
    an = Analysis()
    exts = list(mixed_campaign) + [ex44]
    multi_chain = 0
    for ext in exts:
        lat = enumerate_interval(ext)
        chains, truncated = maximal_chains(lat)
        assert not truncated
        if len(chains) < 2:
            continue
        multi_chain += 1
        trace = crucial_traces(lat, an)
        traces = {frozenset(trace[e] for e in zip(c, c[1:])) for c in chains}
        assert len(traces) == 1
        assert traces.pop() == frozenset(m.basis for m in support(ext))
    assert multi_chain >= 1
    report(7, f"crucial-trace invariance on {multi_chain} multi-chain instances")


def test_criterion_8_trichotomy_exhaustiveness(mixed_campaign, ex44):
    edges = 0
    for ext in list(mixed_campaign) + [ex44]:
        lat = enumerate_interval(ext)
        kinds = classify_cover_edges(lat)  # raises unless exactly one type
        edges += len(kinds)
        if not kinds:
            continue
        values = [k.kind for k in kinds.values()]
        all_rd = all(v in (RAMIFIED, DECOMPOSED) for v in values)
        all_inert = all(v == INERT for v in values)
        assert is_infra_integral(ext) == all_rd
        assert is_t_closed(ext) == all_inert
    report(8, f"trichotomy exhaustive on {edges} cover edges")


def test_criterion_9_quotient_order_isomorphism(mixed_campaign):
    pairs = 0
    for ext in mixed_campaign:
        if pairs >= 24:
            break
        for rows in (nilradical(ext.ambient.full()).basis,
                     conductor(ext.bottom, ext.top).basis):
            ok, _ = quotient_interval_check(ext, rows)
            assert ok
            pairs += 1
    assert pairs >= 20
    report(9, f"quotient order isomorphism on {pairs} (instance, ideal) pairs")


def test_criterion_10_arithmetic_implies_delta_distributive(mixed_campaign):
    arithmetic_count = 0
    for ext in mixed_campaign:
        ok, _ = is_arithmetic(ext)
        if not ok:
            continue
        arithmetic_count += 1
        lat = enumerate_interval(ext)
        assert is_delta_extension(lat)[0]
        assert check_distributivity(lat)
    assert arithmetic_count >= 1
    # the 64-element tower reproduces the modular non-chain shape
    F2 = GF(2)
    from ringlat.gfq import irreducible_poly
    from test_lattice import compositum_rows, meet_rows

    F64 = make_poly_quotient(F2, irreducible_poly(F2, 6))
    ext = Extension(generated_subalgebra(F64, []), F64)
    lat = enumerate_interval(ext)
    assert len(lat.nodes) == 4
    t1 = lat.index_of([n for n in lat.nodes if n.dim == 2][0])
    t2 = lat.index_of([n for n in lat.nodes if n.dim == 3][0])
    assert compositum_rows(lat, t1, t2) == lat.nodes[lat.top].basis
    assert meet_rows(lat, t1, t2) == lat.nodes[lat.bottom].basis
    assert check_distributivity(lat)  # modular lattice: identities hold
    assert not is_chained(lat)
    assert not is_delta_extension(lat)[0]
    report(10, f"arithmetic implies delta+distributive on {arithmetic_count} instances")
