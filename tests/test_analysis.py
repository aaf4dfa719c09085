"""The per-command analysis context: memoization, one budget on every path."""

import contextlib
import io
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from ringlat import algebra, canonical, cli, lattice, nagata
from ringlat.algebra import Extension, Subalgebra
from ringlat.analysis import Analysis, BudgetExceeded
from ringlat.cli import main

Y5 = {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0, 0, 0, 0, 0, 1]}}
Y6 = {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0, 0, 0, 0, 0, 0, 1]}}
Y8 = {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0] * 8 + [1]}}
PRODUCT = {"field": {"p": 2, "e": 1},
           "algebra": {"product": [{"poly_quotient": [0, 0, 1]},
                                   {"poly_quotient": [1, 1, 1]},
                                   {"poly_quotient": [0, 1]}]}}
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def write(tmp_path):
    def _write(doc, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def spy(monkeypatch, module, name, record):
    """Replace module.name in every ringlat module that holds it; each call
    passes (args, kwargs, result) to record."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        record(args, kwargs, result)
        return result

    for key, mod in list(sys.modules.items()):
        if key.startswith("ringlat") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


def ring_content(ring):
    """A ring by value: its ambient's field and table, and its basis."""
    A = ring.ambient
    return (A.field.p, A.field.e, A.table, A.one, ring.basis)


def test_facts_are_shared_within_one_analysis(ext44):
    an = Analysis()
    A = ext44.ambient
    same = Extension(Subalgebra(A, ext44.bottom.basis), A)
    assert an.lattice(ext44) is an.lattice(same)
    assert an.decomposition(ext44.top) is an.decomposition(A.full())
    assert an.canonical(ext44) is an.canonical(same)


def test_a_fresh_analysis_computes_again(ext44):
    first, second = Analysis(), Analysis()
    assert first.lattice(ext44) is not second.lattice(ext44)
    assert first.spent == second.spent > 0
    with pytest.raises(BudgetExceeded):
        Analysis(budget=2).lattice(ext44)


def test_nilradical_once_per_distinct_ring(write, monkeypatch):
    calls = Counter()
    spy(monkeypatch, algebra, "nilradical",
        lambda args, kwargs, result: calls.update([ring_content(args[0])]))
    run(["analyze", write(Y6), "--json"])
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("verb", ["analyze", "check"])
@pytest.mark.parametrize("name", ["product", "f9-mixed", "y5"])
def test_frobenius_once_per_distinct_ring(monkeypatch, verb, name):
    """The Frobenius kernels of a ring serve its counts, its nilradical and
    its local decomposition: its basis is raised to the q-th power once."""
    calls = Counter()
    spy(monkeypatch, algebra, "frobenius",
        lambda args, kwargs, result: calls.update([ring_content(args[0])]))
    run([verb, str(GOLDEN / f"{name}.json")])
    assert calls and max(calls.values()) == 1


def test_analyze_product_algebra_products(monkeypatch):
    """Algebra.mul calls of one in-process analyze of the product golden."""
    calls = []
    original = algebra.Algebra.mul

    def counting_mul(self, u, v):
        calls.append(None)
        return original(self, u, v)

    monkeypatch.setattr(algebra.Algebra, "mul", counting_mul)
    run(["analyze", str(GOLDEN / "product.json")])
    assert len(calls) == 567


@pytest.mark.parametrize("name", ["y5", "y7-over-y2", "y4"])
def test_check_builds_each_filtration_once(monkeypatch, name):
    """check reads the filtration of a localization from the analysis for
    both the two-criteria verdict and the tri-equivalence rows."""
    calls = []
    spy(monkeypatch, nagata, "filtration_data",
        lambda args, kwargs, result: calls.append(result))
    run(["check", str(GOLDEN / f"{name}.json")])
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["y5", "product", "f9-mixed"])
def test_analyze_makes_no_t_closed_call(monkeypatch, name):
    """analyze reads t-closedness off its canonical decomposition."""
    calls = []
    spy(monkeypatch, canonical, "is_t_closed",
        lambda args, kwargs, result: calls.append(result))
    run(["analyze", str(GOLDEN / f"{name}.json")])
    assert calls == []


@pytest.mark.parametrize("name", ["f4-y3", "f9-mixed", "product", "y4", "y5", "y7-over-y2"])
def test_analyze_classifies_covers_by_counts_alone(monkeypatch, name):
    """analyze reads each cover's kind off the Frobenius counts: it makes no
    classify_minimal call, computes no conductor but the one the Nagata
    filtration needs, and decomposes no ring but the bottom and the top."""
    calls = {fn: [] for fn in ("classify_minimal", "conductor", "filtration_data",
                               "local_decomposition")}
    for module, fn in ((canonical, "classify_minimal"), (algebra, "conductor"),
                       (nagata, "filtration_data"), (algebra, "local_decomposition")):
        spy(monkeypatch, module, fn,
            lambda args, kwargs, result, fn=fn: calls[fn].append(args[0]))
    run(["analyze", str(GOLDEN / f"{name}.json")])
    assert calls["classify_minimal"] == []
    assert len(calls["conductor"]) == len(calls["filtration_data"])
    ext = cli.load_instance(str(GOLDEN / f"{name}.json"))
    assert sorted(ring.basis for ring in calls["local_decomposition"]) == \
        sorted((ext.bottom.basis, ext.top.basis))


def test_check_exits_3_when_the_kind_routes_disagree(monkeypatch, capsys):
    """check compares the counted kind of every cover with classify_minimal's
    before it prints a line; every cover of y4 is ramified."""
    monkeypatch.setattr(canonical, "cover_kind", lambda T, U, an=None: canonical.INERT)
    assert main(["check", str(GOLDEN / "y4.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violation: [cover-counts] cover ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name", ["product", "f9-mixed"])
def test_check_classifies_each_edge_once(monkeypatch, name):
    """Every lattice, chain and t-closedness test of check that meets a cover
    edge reads one memoized classification, and the crucial-trace test
    computes the crucial ideal of each cover once, for every maximal chain
    through it."""
    calls = {fn: Counter() for fn in ("classify_minimal", "crucial_ideal")}
    for fn, counter in calls.items():
        spy(monkeypatch, canonical, fn,
            lambda args, kwargs, result, counter=counter: counter.update(
                [(ring_content(args[0]), ring_content(args[1]))]))
    run(["check", str(GOLDEN / f"{name}.json")])
    assert all(c and max(c.values()) == 1 for c in calls.values())


def test_check_meets_each_crucial_ideal_with_r_once(monkeypatch):
    """check on the product golden meets R with the crucial ideal of each
    cover once, not once per step of every maximal chain through it."""
    calls = []
    spy(monkeypatch, algebra, "intersect_with",
        lambda args, kwargs, result: calls.append(result))
    run(["check", str(GOLDEN / "product.json")])
    assert len(calls) == 43


@pytest.mark.parametrize("name", ["y5", "product", "f9-mixed"])
def test_check_tests_t_closedness_once(monkeypatch, name):
    """census-vs-predicates and chain-classification read one t-closure."""
    calls = []
    spy(monkeypatch, canonical, "t_closure",
        lambda args, kwargs, result: calls.append(result))
    run(["check", str(GOLDEN / f"{name}.json")])
    assert len(calls) == 1


def test_analyze_finds_residue_fields_a_few_times(write, monkeypatch):
    """analyze on the base field in F2[Y]/(Y^8), 110 nodes, reads residue
    fields for its closed forms and predicates, not once per node."""
    calls = []
    spy(monkeypatch, canonical, "residual_extensions",
        lambda args, kwargs, result: calls.append(args[0]))
    run(["analyze", write(Y8)])
    assert 0 < len(calls) <= 10


@pytest.mark.parametrize("verb", [("check",), ("nagata", "--json"), ("analyze", "--json")])
def test_budget_nodes_reaches_nested_enumerations(write, monkeypatch, verb):
    """Every enumeration of a command charges the command's one analysis."""
    analyses = []
    spy(monkeypatch, lattice, "enumerate_interval",
        lambda args, kwargs, result: analyses.append(args[1]))
    run([verb[0], write(PRODUCT), *verb[1:], "--budget", "5000"])
    assert len(analyses) > 1 and len(set(map(id, analyses))) == 1
    assert analyses[0].budget == 5000 and analyses[0].spent > 0


BUDGET_ERROR = (r"error: work budget exceeded in (interval enumeration|subspace oracle"
                r"|maximal chains): \d+ of {} units spent, \d+ more requested\n")


@pytest.mark.parametrize("verb", ["analyze", "lattice", "nagata", "check"])
@pytest.mark.parametrize("name", ["f4-y3", "f9-mixed", "product", "y4", "y5", "y7-over-y2"])
def test_budget_counts_what_is_done(spent_at_default, capsys, name, verb):
    """A budget of exactly the units a report spends prints its golden bytes;
    one unit less ends with exit 2, one stderr line naming the phase that ran
    out, and only the lines that finished before it."""
    flags = {"analyze": ["--json"], "lattice": ["--format", "json"], "nagata": ["--json"]}
    argv = [verb, str(GOLDEN / f"{name}.json"), *flags.get(verb, [])]
    golden = (GOLDEN / f"{name}.{verb}.out").read_text()
    out, spent = spent_at_default(argv)
    assert out == golden and spent > 0
    assert run([*argv, "--budget", str(spent)]) == golden
    capsys.readouterr()
    assert main([*argv, "--budget", str(spent - 1)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(BUDGET_ERROR.format(spent - 1), captured.err)
    # check prints its finished lines first, the others print nothing
    assert golden.startswith(captured.out) and (verb == "check" or captured.out == "")
