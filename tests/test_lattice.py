import itertools
import pathlib
import sys

import pytest

from ringlat import gfq
from ringlat.algebra import (
    Extension,
    Subalgebra,
    Subspace,
    conductor,
    generated_subalgebra,
    ideal_mul_rows,
    local_decomposition,
    localize_extension,
    make_product,
    support,
)
from ringlat.analysis import Analysis, BudgetExceeded
from ringlat.canonical import crucial_traces, seminormalization
from ringlat.cli import load_instance, parse_instance
from ringlat.gen import SHAPES, GenSpec, field_step_algebra, random_extension
from ringlat.gfq import GF, intersect_rowspaces, rref
from ringlat.lattice import (
    ExtensionLattice,
    _is_maximal,
    _is_minimal_over,
    brute_force_interval,
    chain_census,
    check_distributivity,
    enumerate_interval,
    first_incomparable_pair,
    interval_length,
    is_arithmetic,
    is_chained,
    is_delta_extension,
    is_pinched_at,
    maximal_chains,
    quotient_interval_check,
    to_dot,
)

from conftest import (
    base_algebra,
    deadline,
    distributivity_scan,
    incomparable_pair_scan,
    leq,
    line_closure_interval,
    vec,
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


def test_cover_edges_have_nothing_between(ext44):
    lat = enumerate_interval(ext44)
    for i, j in lat.covers:
        between = [k for k in range(len(lat.nodes))
                   if k not in (i, j) and leq(lat, i, k) and leq(lat, k, j)]
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


def test_first_incomparable_pair_matches_the_pair_scan():
    """The branch-node witness is the first incomparable pair that the scan of
    all node pairs finds, on every [R, S], [R, +R] and localization of the
    goldens and of gen seed 23, q in {2, 3, 4, 5, 7, 8, 9}, all four shapes."""
    exts = [load_instance(str(path)) for path in sorted(GOLDEN.glob("*.json"))]
    for q in (2, 3, 4, 5, 7, 8, 9):
        for shape in SHAPES:
            exts.extend(random_extension(GenSpec(seed=23, q=q, max_dim=3 if q in (8, 9) else 4,
                                                 shape=shape, count=9)))
    lattices = branched = 0
    for ext in exts:
        an = Analysis()
        subs = [ext, Extension(ext.bottom, seminormalization(ext, an))]
        subs += [localize_extension(ext, M, an) for M in support(ext, an)]
        for sub in subs:
            lat = an.lattice(sub)
            pair = first_incomparable_pair(lat)
            assert pair == incomparable_pair_scan(lat)
            assert is_chained(lat) == (pair is None)
            lattices += 1
            branched += pair is not None
    assert (lattices, branched) == (774, 206)


def test_is_arithmetic_witness(ext44):
    ok, witnesses = is_arithmetic(ext44)
    assert not ok
    pair = witnesses[0].pair
    bases = {p.basis for p in pair}
    F2 = ext44.ambient.field
    assert (vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 1, 0))) in bases  # K[y^2]
    assert (vec(F2, (1, 0, 0, 0)), vec(F2, (0, 0, 0, 1))) in bases  # K[y^3]
    assert not pair[0].contains(pair[1]) and not pair[1].contains(pair[0])


def test_is_arithmetic_chain_and_product(ext_chain3, F2):
    assert is_arithmetic(ext_chain3)[0]
    from ringlat.algebra import make_poly_quotient

    T3 = make_poly_quotient(F2, (0, 0, 0, 1))
    S = make_product(T3, T3)
    R = Subalgebra(S, [vec(F2, (1, 0, 0, 0, 0, 0)), vec(F2, (0, 0, 0, 1, 0, 0))])
    ext = Extension(R, S)
    ok, _ = is_arithmetic(ext)
    assert ok


def test_arithmetic_witness_pullback_lands_in_interval(F2):
    """For a non-local failure the witness pair consists of genuine
    intermediate rings of the original pair."""
    from ringlat.algebra import make_poly_quotient

    T44 = make_poly_quotient(F2, (0, 0, 0, 0, 1))
    S = make_product(T44, make_poly_quotient(F2, (0, 1)))
    R = Subalgebra(S, [vec(F2, (1, 0, 0, 0, 0)), vec(F2, (0, 0, 0, 0, 1))])
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
    """The definition: the module sum of every pair of nodes is their compositum."""
    return all(module_sum_rows(lat, i, j) == compositum_rows(lat, i, j)
               for i, j in itertools.combinations(range(len(lat.nodes)), 2))


@pytest.fixture(scope="module")
def seeded_lattices():
    """The lattices of the goldens and of gen seed 11, q in {2, 3}, all four
    shapes, 30 instances each."""
    exts = [load_instance(str(path)) for path in sorted(GOLDEN.glob("*.json"))]
    for q in (2, 3):
        for shape in SHAPES:
            exts += random_extension(GenSpec(seed=11, q=q, max_dim=5, shape=shape, count=30))
    return [enumerate_interval(ext) for ext in exts]


def test_is_delta_extension_matches_compositum_definition(seeded_lattices):
    """Same verdict as the definition on the goldens and 240 seeded
    instances, 20 of them not delta; each witness is two upper covers of
    one node whose module sum is not their compositum."""
    not_delta = 0
    for lat in seeded_lattices:
        ok, pair = is_delta_extension(lat)
        assert ok == _delta_by_compositum(lat)
        if not ok:
            not_delta += 1
            u, v = map(lat.index_of, pair)
            assert any({u, v} <= set(lat.up(t)) for t in range(len(lat.nodes)))
            assert module_sum_rows(lat, u, v) != compositum_rows(lat, u, v)
    assert (len(seeded_lattices), not_delta) == (246, 20)


def test_distributivity_matches_the_triple_scans(seeded_lattices):
    """Distributivity by chain lengths agrees with the triple scan over the
    masks on the goldens and 240 seeded instances, 49 of them not
    distributive.  On the goldens and gen seed 4 the order, meets and joins
    that the masks give are containment, intersection and compositum, so
    the scan over the masks is the scan over tables made by linear algebra."""
    assert sum(not check_distributivity(lat) for lat in seeded_lattices) == 49
    assert all(check_distributivity(lat) == distributivity_scan(lat) for lat in seeded_lattices)
    exts = [load_instance(str(path)) for path in sorted(GOLDEN.glob("*.json"))]
    for q in (2, 3):
        exts += random_extension(GenSpec(seed=4, q=q, max_dim=5, count=5))
    for ext in exts:
        lat = enumerate_interval(ext)
        bases = [node.basis for node in lat.nodes]
        for i, j in itertools.product(range(len(lat.nodes)), repeat=2):
            assert leq(lat, i, j) == contains_leq(lat, i, j)
            assert bases[(lat.below[i] & lat.below[j]).bit_length() - 1] == meet_rows(lat, i, j)
            assert bases[lat.join(i, j)] == compositum_rows(lat, i, j)


def _natural_lattices(n):
    """The covers of every lattice on 0, ..., n - 1 (n >= 2) whose order
    refines the order of the integers, bottom 0 and top n - 1.

    Each new element k is given its lower covers, an antichain of the
    elements before it.  Later elements lie above none before them, so the
    join of two elements is their first common upper bound; a prefix is
    kept only while that upper bound lies below every later one.
    """
    def grow(down, joins, covers):
        k = len(down)
        if k == n:
            if down[-1] == (1 << n) - 1:
                yield tuple(covers)
            return
        for size in range(1, k + 1):
            for lower in itertools.combinations(range(k), size):
                if any(down[b] >> a & 1 for a, b in itertools.permutations(lower, 2)):
                    continue
                mask = 1 << k
                for a in lower:
                    mask |= down[a]
                new = dict(joins)
                pairs = itertools.combinations([a for a in range(k + 1) if mask >> a & 1], 2)
                if all(mask >> new.setdefault(pair, k) & 1 for pair in pairs):
                    yield from grow(down + [mask], new, covers + [(a, k) for a in lower])

    yield from grow([1], {}, [])


def test_distributivity_on_every_small_lattice():
    """On each of the 4,007 lattices with 2 to 8 elements and a natural
    labelling, distributivity by chain lengths agrees with the triple scan."""
    count = distributive = 0
    for n in range(2, 9):
        for covers in _natural_lattices(n):
            lat = ExtensionLattice(ext=None, nodes=tuple(range(n)), bottom=0, top=n - 1,
                                   covers=tuple(sorted(covers)))
            ok = check_distributivity(lat)
            assert ok == distributivity_scan(lat), covers
            count += 1
            distributive += ok
    assert (count, distributive) == (4007, 90)


def test_local_criteria_join_work(monkeypatch):
    """On the golden lattices, all of them delta, the delta test joins each
    pair of upper covers of each node once, against n (n - 1) / 2 pairs for
    a scan of all nodes (91 on product.json), and distributivity joins none."""
    calls = []
    original = ExtensionLattice.join

    def counting(self, i, j):
        calls.append((i, j))
        return original(self, i, j)

    monkeypatch.setattr(ExtensionLattice, "join", counting)
    joins = {}
    for path in sorted(GOLDEN.glob("*.json")):
        lat = enumerate_interval(load_instance(str(path)))
        calls.clear()
        check_distributivity(lat)
        assert calls == []
        assert is_delta_extension(lat)[0]
        assert len(calls) == sum(len(lat.up(t)) * (len(lat.up(t)) - 1) // 2
                                 for t in range(len(lat.nodes)))
        joins[path.stem] = len(calls)
    assert joins == {"f4-y3": 0, "f9-mixed": 4, "product": 17, "y4": 3, "y5": 6,
                     "y7-over-y2": 0}


def test_order_queries_make_no_linear_algebra(monkeypatch):
    """On the golden lattices the order queries read the masks built from the
    covers: no rref, no row-space intersection, no containment test."""
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
            leq(lat, i, j)
        for node in lat.nodes:
            is_pinched_at(lat, node)
    assert calls == []


def test_check_distributivity(ext44, ext64, ext_chain3):
    assert check_distributivity(enumerate_interval(ext_chain3))
    assert check_distributivity(enumerate_interval(ext64))  # a non-chain square
    assert not check_distributivity(enumerate_interval(ext44))


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


Y4_CUBED = {"field": {"p": 2, "e": 1},
            "algebra": {"product": [{"poly_quotient": [0, 0, 0, 0, 1]}] * 3},
            "base_subring": {"generators": [[1] + [0] * 11, [0] * 4 + [1] + [0] * 7]}}


def census_instances():
    """The goldens, seeded streams of every shape over four fields, and
    F2[Y]/(Y^4)^3 over F2^3 with its 45,360 maximal chains."""
    for path in sorted(GOLDEN.glob("*.json")):
        yield path.stem, load_instance(str(path))
    for q in (2, 3, 4, 5):
        for shape in SHAPES:
            spec = GenSpec(seed=13, q=q, max_dim=5, shape=shape, count=8)
            for k, ext in enumerate(random_extension(spec)):
                yield f"{shape} q={q} #{k}", ext
    yield "y4-cubed", parse_instance(Y4_CUBED)


def test_chain_census_matches_the_listing():
    """One pass over the covers counts the maximal chains and gathers their
    trace sets as listing every chain does, for the crucial traces and for
    the edges themselves, whose trace sets tell every chain apart; and the
    listing cut at one chain gives the first chain of the full listing."""
    seen = 0
    for name, ext in census_instances():
        an = Analysis()
        lat = an.lattice(ext)
        chains, more = maximal_chains(lat)
        assert not more, name
        for trace in (crucial_traces(lat, an), {e: e for e in lat.covers}):
            expected = {frozenset(trace[e] for e in zip(c, c[1:])) for c in chains}
            assert chain_census(lat, trace) == (len(chains), expected), name
        assert maximal_chains(lat, 1) == ([chains[0]], len(chains) > 1), name
        seen += 1
    assert seen == 6 + 4 * len(SHAPES) * 8 + 1


def test_quotient_interval_bijection(ext44, deep_local_ext):
    F2 = ext44.ambient.field
    ok, detail = quotient_interval_check(ext44, [vec(F2, (0, 0, 0, 1))])
    assert ok and detail["upstairs"] == detail["downstairs"]
    ok0, _ = quotient_interval_check(ext44, ())
    assert ok0
    # a proper subring top: GF(2) <= GF(2)[s^2] inside GF(2)[s]/(s^5), modulo s^4
    S = deep_local_ext.ambient
    ext = Extension(generated_subalgebra(S, []), deep_local_ext.bottom)
    ok, detail = quotient_interval_check(ext, [vec(F2, (0, 0, 0, 0, 1))])
    assert ok and detail == {"upstairs": 2, "downstairs": 2}


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
    local = list(random_extension(GenSpec(seed=seed, q=q, max_dim=3,
                                          shape="local-subintegral", count=6)))
    fields = random_extension(GenSpec(seed=seed, q=q, max_dim=3, shape="field-tower",
                                      count=3))
    for e1, e2 in [*zip(local[::2], local[1::2]), *zip(local, fields)]:
        S = make_product(e1.ambient, e2.ambient)
        F, n1, n2 = S.field, e1.ambient.dim, e2.ambient.dim

        def joined(u, v):
            return vec(F, gfq.entries(F, u, n1) + gfq.entries(F, v, n2))

        zero1, zero2 = gfq.zero_vec(F, n1), gfq.zero_vec(F, n2)
        R = Subalgebra(S, [joined(r, zero2) for r in e1.bottom.basis]
                       + [joined(zero1, r) for r in e2.bottom.basis])
        ext = Extension(R, S)
        an = Analysis()
        lat, lat1, lat2 = (enumerate_interval(e) for e in (ext, e1, e2))
        assert len(lat.nodes) == len(lat1.nodes) * len(lat2.nodes)
        assert interval_length(lat) == interval_length(lat1) + interval_length(lat2)
        supp = support(ext, an)
        assert len(supp) == 2
        first = joined(e1.ambient.one, zero2)
        for M in supp:
            (e,) = [f.idempotent for f in an.decomposition(R).factors
                    if f.maximal_ideal == M]
            part = lat1 if e == first else lat2
            loc_lat = enumerate_interval(localize_extension(ext, M, an))
            assert len(loc_lat.nodes) == len(part.nodes)
            assert interval_length(loc_lat) == interval_length(part)


@pytest.mark.parametrize("name, closures", [("y4", 17), ("y5", 46), ("product", 61),
                                            ("f9-mixed", 123)])
def test_enumeration_spends_no_rref_on_closure_rows(monkeypatch, name, closures):
    """A closure keeps its rows in rref through reduce_insert, and its ring
    takes them as they are: the closures of enumerating a golden make not one
    gfq.rref call, where re-reducing each closure's rows made one each.  The
    minimality certificate does its linear algebra outside the closures."""
    from pathlib import Path

    from ringlat import algebra, lattice

    ext = load_instance(Path(__file__).parent / "golden" / f"{name}.json")
    counts = {"rref": 0, "closures": 0}
    closing = []
    rref, close = gfq.rref, algebra.generated_subalgebra

    def counting_rref(*args):
        counts["rref"] += bool(closing)
        return rref(*args)

    def counting_closure(*args, **kwargs):
        counts["closures"] += 1
        closing.append(True)
        try:
            return close(*args, **kwargs)
        finally:
            closing.pop()

    for module in (gfq, algebra, lattice):
        monkeypatch.setattr(module, "rref", counting_rref)
    monkeypatch.setattr(lattice, "generated_subalgebra", counting_closure)
    enumerate_interval(ext)
    assert counts == {"rref": 0, "closures": closures}


ROOT = pathlib.Path(__file__).resolve().parent.parent
GEN_QS = (2, 3, 4, 5, 8, 9)


def workload_extensions():
    """The extensions of the seed-0 instances of the benchmark's four workloads."""
    import importlib.util

    import ringlat

    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up
    spec.loader.exec_module(workloads)
    return [parse_instance(cmd.doc) for name in workloads.WORKLOADS
            for cmd in workloads.build(ringlat, name, 0)]


def assert_same_as_the_unpruned_enumeration(ext):
    an, ref_an = Analysis(), Analysis()
    lat, ref = enumerate_interval(ext, an), line_closure_interval(ext, ref_an)
    assert lat.nodes == ref.nodes
    assert lat.covers == ref.covers
    assert an.spent == ref_an.spent


def test_skipped_lines_change_nothing_on_goldens_and_workloads():
    """Skipping the lines of certified covers gives the nodes, covers and
    units of closing every line, on the goldens and on the 100 seed-0
    instances of the benchmark workloads."""
    exts = [load_instance(path) for path in sorted(GOLDEN.glob("*.json"))]
    exts += workload_extensions()
    assert len(exts) == 106
    for ext in exts:
        assert_same_as_the_unpruned_enumeration(ext)


@pytest.mark.parametrize("q", GEN_QS)
@pytest.mark.parametrize("shape", SHAPES)
def test_skipped_lines_change_nothing_on_gen_streams(shape, q):
    max_dim = 5 if q < 8 else 4  # GF(9) at dimension 5 takes seconds per stream
    for ext in random_extension(GenSpec(seed=0, q=q, max_dim=max_dim, shape=shape, count=12)):
        assert_same_as_the_unpruned_enumeration(ext)


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_minimality_certificate_is_the_cover_relation(q):
    """_is_minimal_over(T, X) holds for exactly the covers among all pairs
    T < X of nodes of seeded lattices: the certificate is sound and complete,
    and its Frobenius filter rejects no cover."""
    verdicts = {True: 0, False: 0}
    for shape in SHAPES:
        spec = GenSpec(seed=7, q=q, max_dim=5 if q < 8 else 4, shape=shape, count=6)
        for ext in random_extension(spec):
            an = Analysis()
            lat = enumerate_interval(ext, an)
            covers = set(lat.covers)
            for t, x in itertools.permutations(range(len(lat.nodes)), 2):
                if lat.above[t] >> x & 1:
                    minimal = _is_minimal_over(lat.nodes[t], lat.nodes[x], an)
                    assert minimal == ((t, x) in covers)
                    verdicts[minimal] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_maximality_from_frobenius_kernels_matches_the_local_decomposition(q):
    """_is_maximal(M, ring), read off the Frobenius kernels, holds iff M is
    the maximal ideal of a local factor of ring, for the conductor M of every
    pair T < X of nodes of seeded lattices, as an ideal of T and of X."""
    verdicts = {True: 0, False: 0}
    for shape in SHAPES:
        spec = GenSpec(seed=7, q=q, max_dim=5 if q < 8 else 4, shape=shape, count=6)
        for ext in random_extension(spec):
            an = Analysis()
            lat = enumerate_interval(ext, an)
            for t, x in itertools.permutations(range(len(lat.nodes)), 2):
                if lat.above[t] >> x & 1:
                    M = conductor(lat.nodes[t], lat.nodes[x])
                    for ring in (lat.nodes[t], lat.nodes[x]):
                        maximal = _is_maximal(M, ring, an)
                        assert maximal == any(f.maximal_ideal.basis == M.basis
                                              for f in local_decomposition(ring).factors)
                        verdicts[maximal] += 1
    assert verdicts[True] and verdicts[False]


def field_step_4_5():
    """GF(4) inside GF(4^5), codimension 4: 85 lines from the bottom."""
    S = field_step_algebra(GF(2, 2), 5)
    return Extension(generated_subalgebra(S, []), S)


def test_prime_degree_field_step_costs_one_closure(monkeypatch):
    """The first closure from GF(4) is GF(4^5), certified minimal, so the
    other 84 lines close nothing; the unpruned enumeration closes all 85.
    Both charge 85 units and give the same two nodes and one cover."""
    from ringlat import algebra, lattice

    ext = field_step_4_5()
    closures = []

    def counting(*args, **kwargs):
        closures.append(None)
        return algebra.generated_subalgebra(*args, **kwargs)

    monkeypatch.setattr(lattice, "generated_subalgebra", counting)
    an = Analysis()
    lat = enumerate_interval(ext, an)
    assert (len(closures), an.spent, len(lat.nodes), lat.covers) == (1, 85, 2, ((0, 1),))
    monkeypatch.undo()
    assert_same_as_the_unpruned_enumeration(ext)


def test_threads_give_the_same_lattice_on_a_prime_degree_field_step():
    ext = field_step_4_5()
    one, three = Analysis(), Analysis(threads=3)
    a, b = enumerate_interval(ext, one), enumerate_interval(ext, three)
    assert (a.nodes, a.covers, one.spent) == (b.nodes, b.covers, three.spent)


def test_worker_threads_share_one_analysis_safely():
    """Eight workers on two cores, switching threads every microsecond, read
    and store the facts of one analysis while they certify covers: every
    lattice, and every fact the analysis keeps, is the one a single thread
    gets."""
    exts = [field_step_4_5(), *random_extension(GenSpec(seed=3, q=4, max_dim=5,
                                                        shape="mixed", count=8))]
    single = Analysis()
    expected = [enumerate_interval(ext, single) for ext in exts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with deadline(60):
            shared = Analysis(threads=8)
            got = [enumerate_interval(ext, shared) for ext in exts]
    finally:
        sys.setswitchinterval(interval)
    assert [(lat.nodes, lat.covers) for lat in got] == \
        [(lat.nodes, lat.covers) for lat in expected]
    assert shared.spent == single.spent
    assert shared._facts.keys() == single._facts.keys()
