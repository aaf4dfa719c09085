import itertools
import pathlib
import sys

import pytest

from ringlat import gfq
from ringlat.algebra import (
    Extension,
    Subalgebra,
    Subspace,
    generated_subalgebra,
    ideal_mul_rows,
    make_product,
)
from ringlat.analysis import Analysis, BudgetExceeded
from ringlat.gfq import GF, intersect_rowspaces, rref
from ringlat.lattice import (
    ExtensionLattice,
    brute_force_interval,
    check_distributivity,
    enumerate_interval,
    first_incomparable_pair,
    interval_length,
    is_arithmetic,
    is_chained,
    is_delta_extension,
    is_pinched_at,
    longest_chain,
    maximal_chains,
    quotient_interval_check,
    to_dot,
)

# regression values frozen from the brute-force oracle before the main build
EX44_CARDINALITY = 6
EX44_LENGTH = 3
EX44_CHAIN_COUNT = 3
GOLDEN = pathlib.Path(__file__).parent / "golden"


# Reference definitions of the order of [R, S] by linear algebra on the node
# bases; the lattice reads the same facts off its covers.

def module_sum_rows(lat, i, j):
    return rref(lat.ext.ambient.field, lat.nodes[i].basis + lat.nodes[j].basis)


def compositum_rows(lat, i, j):
    return ideal_mul_rows(lat.ext.ambient, lat.nodes[i].basis, lat.nodes[j].basis)


def meet_rows(lat, i, j):
    A = lat.ext.ambient
    return intersect_rowspaces(A.field, lat.nodes[i].basis, lat.nodes[j].basis, A.dim)


def contains_leq(lat, i, j):
    a, b = lat.nodes[i], lat.nodes[j]
    return a.dim <= b.dim and b.contains(a)


def reference_distributivity(lat):
    """Both distributive identities over all node triples, on meet and join
    tables made by linear algebra; the first failing triple."""
    n = len(lat.nodes)
    index = {node.basis: k for k, node in enumerate(lat.nodes)}
    pairs = list(itertools.product(range(n), repeat=2))
    meet = {(i, j): index[meet_rows(lat, i, j)] for i, j in pairs}
    join = {(i, j): index[compositum_rows(lat, i, j)] for i, j in pairs}
    for b, c, d in itertools.product(range(n), repeat=3):
        if meet[b, join[c, d]] != join[meet[b, c], meet[b, d]]:
            return False, (lat.nodes[b], lat.nodes[c], lat.nodes[d])
        if join[b, meet[c, d]] != meet[join[b, c], join[b, d]]:
            return False, (lat.nodes[b], lat.nodes[c], lat.nodes[d])
    return True, None


def test_enumerate_interval_frozen_regression(ext44):
    lat = enumerate_interval(ext44)
    assert len(lat.nodes) == EX44_CARDINALITY
    assert sorted(n.dim for n in lat.nodes) == [1, 2, 2, 2, 3, 4]
    assert set(lat.nodes) == brute_force_interval(ext44)


def test_enumerate_trivial(T44):
    lat = enumerate_interval(Extension(T44.full(), T44))
    assert len(lat.nodes) == 1
    assert lat.covers == ()
    assert interval_length(lat) == 0
    assert is_chained(lat)


def test_enumerate_field_tower_divisor_lattice(ext64):
    lat = enumerate_interval(ext64)
    assert [n.dim for n in lat.nodes] == [1, 2, 3, 6]
    assert set(lat.nodes) == brute_force_interval(ext64)


def test_brute_force_minimal_decomposed(F2):
    from ringlat.algebra import base_algebra

    P = make_product(base_algebra(F2), base_algebra(F2))
    ext = Extension(generated_subalgebra(P, []), P)
    assert len(brute_force_interval(ext)) == 2


@pytest.mark.parametrize("n,from_bottom", [(2, 1), (3, 10)])
def test_one_closure_per_line(monkeypatch, n, from_bottom):
    """GF(9) inside GF(9)[Y]/(Y^n): adjoining s or cs gives the same ring, so
    enumeration closes (9**codim - 1) / 8 vectors from the bottom, not
    9**codim - 1."""
    from ringlat import lattice
    from ringlat.algebra import make_poly_quotient

    T = make_poly_quotient(GF(3, 2), (0,) * n + (1,))
    ext = Extension(generated_subalgebra(T, []), T)
    seeds = []
    original = lattice.generated_subalgebra

    def counting(A, gens, seed=None):
        seeds.append(seed)
        return original(A, gens, seed=seed)

    monkeypatch.setattr(lattice, "generated_subalgebra", counting)
    lat = enumerate_interval(ext)
    assert seeds.count(ext.bottom) == from_bottom
    assert set(lat.nodes) == brute_force_interval(ext)


def test_node_budget(ext44):
    """Each node found costs at least one closure, so the work budget bounds
    the node count: nodes <= units + 1."""
    an = Analysis()
    assert len(enumerate_interval(ext44, an).nodes) <= an.spent + 1
    with pytest.raises(BudgetExceeded):
        enumerate_interval(ext44, Analysis(budget=2))


def test_transversal_budget_counts_lines():
    """GF(4) inside GF(4)[Y]/(Y^3) has codim 2: enumeration charges
    (16 - 1) / 3 = 5 line vectors for the bottom and 1 for each node of
    codim 1, and a budget one unit short of that raises."""
    from ringlat.algebra import make_poly_quotient

    T = make_poly_quotient(GF(2, 2), (0, 0, 0, 1))
    ext = Extension(generated_subalgebra(T, []), T)
    an = Analysis()
    nodes = enumerate_interval(ext, an).nodes
    assert an.spent == 5 + sum(1 for n in nodes if n.dim == 2)
    exact = Analysis(budget=an.spent)
    assert set(enumerate_interval(ext, exact).nodes) == brute_force_interval(ext)
    with pytest.raises(BudgetExceeded):
        enumerate_interval(ext, Analysis(budget=4))
    with pytest.raises(BudgetExceeded):
        enumerate_interval(ext, Analysis(budget=an.spent - 1))


def test_interval_length_examples(ext44, ext64, ext_chain3):
    assert interval_length(enumerate_interval(ext44)) == EX44_LENGTH
    assert interval_length(enumerate_interval(ext_chain3)) == 2
    assert interval_length(enumerate_interval(ext64)) == 2


def test_longest_chain_is_witness(ext44):
    lat = enumerate_interval(ext44)
    chain = longest_chain(lat)
    assert chain[0] == lat.bottom and chain[-1] == lat.top
    assert len(chain) - 1 == EX44_LENGTH
    for i, j in zip(chain, chain[1:]):
        assert (i, j) in lat.covers


def test_cover_edges_have_nothing_between(ext44):
    lat = enumerate_interval(ext44)
    for i, j in lat.covers:
        between = [k for k in range(len(lat.nodes))
                   if k not in (i, j) and lat.leq(i, k) and lat.leq(k, j)]
        assert not between


def test_cover_edges_minimal_by_brute_force(ext44, ext64):
    """Independent re-test: the subspace scan of each cover edge finds only
    its two endpoints."""
    for ext in (ext44, ext64):
        lat = enumerate_interval(ext)
        for i, j in lat.covers:
            inner = brute_force_interval(Extension(lat.nodes[i], lat.nodes[j]))
            assert inner == {lat.nodes[i], lat.nodes[j]}


def test_is_chained(ext44, ext_chain3):
    assert is_chained(enumerate_interval(ext_chain3))
    assert not is_chained(enumerate_interval(ext44))


def test_is_arithmetic_witness(ext44):
    ok, witnesses = is_arithmetic(ext44)
    assert not ok
    pair = witnesses[0].pair
    bases = {p.basis for p in pair}
    assert ((1, 0, 0, 0), (0, 0, 1, 0)) in bases  # K[y^2]
    assert ((1, 0, 0, 0), (0, 0, 0, 1)) in bases  # K[y^3]
    assert not pair[0].contains(pair[1]) and not pair[1].contains(pair[0])


def test_is_arithmetic_chain_and_product(ext_chain3, F2):
    assert is_arithmetic(ext_chain3)[0]
    from ringlat.algebra import make_poly_quotient

    T3 = make_poly_quotient(F2, (0, 0, 0, 1))
    S = make_product(T3, T3)
    R = Subalgebra(S, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
    ext = Extension(R, S)
    ok, _ = is_arithmetic(ext)
    assert ok


def test_arithmetic_witness_pullback_lands_in_interval(F2):
    """For a non-local failure the witness pair consists of genuine
    intermediate rings of the original pair."""
    from ringlat.algebra import make_poly_quotient

    T44 = make_poly_quotient(F2, (0, 0, 0, 0, 1))
    S = make_product(T44, make_poly_quotient(F2, (0, 1)))
    R = Subalgebra(S, [(1, 0, 0, 0, 0), (0, 0, 0, 0, 1)])
    ext = Extension(R, S)
    ok, witnesses = is_arithmetic(ext)
    assert not ok
    for w in witnesses:
        for node in w.pair:
            assert node.ambient is S
            assert node.contains(ext.bottom)
            assert ext.top.contains(node)
        a, b = w.pair
        assert not a.contains(b) and not b.contains(a)


def test_is_pinched_at(ext44, ext64):
    lat = enumerate_interval(ext44)
    assert is_pinched_at(lat, lat.nodes[lat.bottom])
    dim3 = [n for n in lat.nodes if n.dim == 3][0]
    assert is_pinched_at(lat, dim3)
    lat64 = enumerate_interval(ext64)
    f4 = [n for n in lat64.nodes if n.dim == 2][0]
    assert not is_pinched_at(lat64, f4)


def test_is_delta_extension(ext44, ext64, ext_chain3):
    lat = enumerate_interval(ext_chain3)
    assert is_delta_extension(lat)[0]
    lat44 = enumerate_interval(ext44)
    assert is_delta_extension(lat44)[0]
    lat64 = enumerate_interval(ext64)
    ok, pair = is_delta_extension(lat64)
    assert not ok
    assert {p.dim for p in pair} == {2, 3}  # the two proper subfields


def _delta_by_compositum(lat):
    """The definition: the first pair of nodes whose module sum differs from
    their compositum."""
    for i, j in itertools.combinations_with_replacement(range(len(lat.nodes)), 2):
        if module_sum_rows(lat, i, j) != compositum_rows(lat, i, j):
            return False, (lat.nodes[i], lat.nodes[j])
    return True, None


def test_is_delta_extension_matches_compositum_definition():
    """Same answer and same witness as the definition, on the goldens and on
    seeded instances over GF(2) and GF(3), several of them not delta; on the
    same instances the order, meets and joins read off the covers are
    containment, intersection and compositum, and distributivity gives the
    verdict and witness of the scan over tables made by linear algebra."""
    from ringlat.cli import load_instance
    from ringlat.gen import GenSpec, random_extension

    exts = [load_instance(str(path)) for path in sorted(GOLDEN.glob("*.json"))]
    for q in (2, 3):
        exts += random_extension(GenSpec(seed=4, q=q, max_dim=5, count=5))
    verdicts, distributive = [], []
    for ext in exts:
        lat = enumerate_interval(ext)
        verdicts.append(is_delta_extension(lat))
        assert verdicts[-1] == _delta_by_compositum(lat)
        bases = [node.basis for node in lat.nodes]
        for i, j in itertools.product(range(len(lat.nodes)), repeat=2):
            assert lat.leq(i, j) == contains_leq(lat, i, j)
            assert bases[lat.meet(i, j)] == meet_rows(lat, i, j)
            assert bases[lat.join(i, j)] == compositum_rows(lat, i, j)
        distributive.append(check_distributivity(lat))
        assert distributive[-1] == reference_distributivity(lat)
    assert sum(not ok for ok, _ in verdicts) >= 4
    assert sum(not ok for ok, _ in distributive) >= 4


def test_order_queries_make_no_linear_algebra(monkeypatch):
    """On the golden lattices the order queries read the masks built from the
    covers: no rref, no row-space intersection, no containment test."""
    from ringlat.cli import load_instance

    lats = [enumerate_interval(load_instance(str(path)))
            for path in sorted(GOLDEN.glob("*.json"))]
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    for name in ("rref", "intersect_rowspaces"):
        original = getattr(gfq, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("ringlat")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(original))
    monkeypatch.setattr(Subspace, "contains", counting(Subspace.contains))
    for lat in lats:
        n = len(lat.nodes)
        is_delta_extension(lat)
        check_distributivity(lat)
        first_incomparable_pair(lat)
        for i, j in itertools.product(range(n), repeat=2):
            lat.leq(i, j)
        for node in lat.nodes:
            is_pinched_at(lat, node)
    assert calls == []


def test_check_distributivity(ext44, ext64, ext_chain3):
    assert check_distributivity(enumerate_interval(ext_chain3))[0]
    ok64, _ = check_distributivity(enumerate_interval(ext64))
    assert ok64  # modular non-chain: both identities still hold
    ok44, triple = check_distributivity(enumerate_interval(ext44))
    assert not ok44 and triple is not None


def test_remark_finite_field_analogue_shape(ext64):
    """[R,S] for the 64-element tower: T1*T2 = S, T1 meet T2 = R, no chain."""
    lat = enumerate_interval(ext64)
    t1 = [n for n in lat.nodes if n.dim == 2][0]
    t2 = [n for n in lat.nodes if n.dim == 3][0]
    i1, i2 = lat.index_of(t1), lat.index_of(t2)
    assert compositum_rows(lat, i1, i2) == lat.nodes[lat.top].basis
    assert meet_rows(lat, i1, i2) == lat.nodes[lat.bottom].basis
    assert not is_chained(lat)


def test_maximal_chains(ext44, ext64, ext_chain3):
    chains, trunc = maximal_chains(enumerate_interval(ext_chain3))
    assert len(chains) == 1 and not trunc
    chains64, _ = maximal_chains(enumerate_interval(ext64))
    assert len(chains64) == 2
    chains44, _ = maximal_chains(enumerate_interval(ext44))
    assert len(chains44) == EX44_CHAIN_COUNT
    partial, trunc = maximal_chains(enumerate_interval(ext44), 2)
    assert len(partial) == 2 and trunc
    exact, trunc = maximal_chains(enumerate_interval(ext44), EX44_CHAIN_COUNT)
    assert len(exact) == EX44_CHAIN_COUNT and not trunc


def test_maximal_chains_consistent_with_length(ext44):
    lat = enumerate_interval(ext44)
    chains, trunc = maximal_chains(lat)
    assert not trunc
    assert all(c[0] == lat.bottom and c[-1] == lat.top for c in chains)
    assert max(len(c) - 1 for c in chains) == interval_length(lat)


def test_quotient_interval_bijection(ext44, deep_local_ext):
    ok, detail = quotient_interval_check(ext44, [(0, 0, 0, 1)])
    assert ok and detail["upstairs"] == detail["downstairs"]
    ok0, _ = quotient_interval_check(ext44, ())
    assert ok0
    # a proper subring top: GF(2) <= GF(2)[s^2] inside GF(2)[s]/(s^5), modulo s^4
    S = deep_local_ext.ambient
    ext = Extension(generated_subalgebra(S, []), deep_local_ext.bottom)
    ok, detail = quotient_interval_check(ext, [(0, 0, 0, 0, 1)])
    assert ok and detail == {"upstairs": 2, "downstairs": 2}


def test_quotient_interval_check_compares_covers_not_containment(ext44, monkeypatch):
    calls = []
    original = ExtensionLattice.leq

    def counting_leq(self, i, j):
        calls.append((i, j))
        return original(self, i, j)

    monkeypatch.setattr(ExtensionLattice, "leq", counting_leq)
    ok, detail = quotient_interval_check(ext44, [(0, 0, 0, 1)])
    assert ok and detail == {"upstairs": 3, "downstairs": 3}
    assert calls == []


def test_dot_output_stable(ext44):
    lat = enumerate_interval(ext44)
    out1 = to_dot(lat)
    out2 = to_dot(enumerate_interval(ext44, Analysis(threads=3)))
    assert out1 == out2
    assert out1.startswith("digraph interval {")
    assert out1.count("->") == len(lat.covers)


def test_threads_do_not_change_nodes(ext44, ext64):
    for ext in (ext44, ext64):
        a = enumerate_interval(ext)
        b = enumerate_interval(ext, Analysis(threads=4))
        assert tuple(n.basis for n in a.nodes) == tuple(n.basis for n in b.nodes)
        assert a.covers == b.covers


@pytest.mark.parametrize("name", ["y5", "product"])
def test_order_reads_make_no_containment_test(monkeypatch, name):
    """The covers come with the enumeration: reading them, the upper covers of
    each node and chainedness tests no containment."""
    from pathlib import Path

    from ringlat.algebra import Subspace
    from ringlat.cli import load_instance

    lat = enumerate_interval(load_instance(Path(__file__).parent / "golden" / f"{name}.json"))
    calls = []
    original = Subspace.contains

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Subspace, "contains", counting)
    assert lat.covers
    assert all(lat.up(i) or i == lat.top for i in range(len(lat.nodes)))
    assert not is_chained(lat)
    assert calls == []


PRODUCT_SPLIT_CASES = [pytest.param(q, seed, id=f"q{q}-{seed}")
                       for q in (2, 3, 4) for seed in range(3)]


@pytest.mark.parametrize("q, seed", PRODUCT_SPLIT_CASES)
def test_product_split(q, seed):
    """[R1 x R2, S1 x S2] = [R1, S1] x [R2, S2] for local nontrivial pairs
    (Dobbs-Picavet-Picavet-L'Hermitte 2012): both maximal ideals are in the
    support, sizes multiply, lengths add, and the localization at the
    maximal ideal of each factor is that factor's interval."""
    from ringlat.algebra import localize_extension, support
    from ringlat.gen import GenSpec, random_extension
    from ringlat.gfq import zero_vec

    local = list(random_extension(GenSpec(seed=seed, q=q, max_dim=3,
                                          shape="local-subintegral", count=6)))
    fields = random_extension(GenSpec(seed=seed, q=q, max_dim=3, shape="field-tower",
                                      count=3))
    for e1, e2 in [*zip(local[::2], local[1::2]), *zip(local, fields)]:
        S = make_product(e1.ambient, e2.ambient)
        n1, n2 = e1.ambient.dim, e2.ambient.dim
        R = Subalgebra(S, [r + zero_vec(n2) for r in e1.bottom.basis]
                       + [zero_vec(n1) + r for r in e2.bottom.basis])
        ext = Extension(R, S)
        an = Analysis()
        lat, lat1, lat2 = (enumerate_interval(e) for e in (ext, e1, e2))
        assert len(lat.nodes) == len(lat1.nodes) * len(lat2.nodes)
        assert interval_length(lat) == interval_length(lat1) + interval_length(lat2)
        supp = support(ext, an)
        assert len(supp) == 2
        first = e1.ambient.one + zero_vec(n2)
        for M in supp:
            (e,) = [f.idempotent for f in an.decomposition(R).factors
                    if f.maximal_ideal == M]
            part = lat1 if e == first else lat2
            loc_lat = enumerate_interval(localize_extension(ext, M, an))
            assert len(loc_lat.nodes) == len(part.nodes)
            assert interval_length(loc_lat) == interval_length(part)
