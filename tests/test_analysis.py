"""The per-command analysis context: memoization, budgets on every path."""

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from ringlat import algebra, canonical, lattice
from ringlat.algebra import Extension, Subalgebra
from ringlat.analysis import Analysis
from ringlat.cli import main
from ringlat.lattice import BudgetExceeded

Y5 = {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0, 0, 0, 0, 0, 1]}}
Y6 = {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0, 0, 0, 0, 0, 0, 1]}}
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
    M = algebra.support(ext44, an)[0]
    assert an.localization(ext44, M) is an.localization(same, M)


def test_a_fresh_analysis_computes_again(ext44):
    assert Analysis().lattice(ext44) is not Analysis().lattice(ext44)
    with pytest.raises(BudgetExceeded):
        Analysis(node_budget=2).lattice(ext44)


def test_nilradical_once_per_distinct_ring(write, monkeypatch):
    calls = Counter()
    spy(monkeypatch, algebra, "nilradical",
        lambda args, kwargs, result: calls.update([ring_content(args[0])]))
    run(["analyze", write(Y6), "--json"])
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("doc", [Y5, PRODUCT], ids=["check-y5", "check-product"])
def test_budget_scan_reaches_every_t_closed_call(write, monkeypatch, doc):
    """With no GF(q)-line left to the scan, every t-closedness test of check
    reads the edge kinds of a cover path, and the report is unchanged."""
    path = write(doc)
    default = run(["check", path])
    methods = Counter()
    spy(monkeypatch, canonical, "is_t_closed",
        lambda args, kwargs, result: methods.update([result.method]))
    monkeypatch.setattr(canonical, "SCAN_LINES", 0)
    assert run(["check", path]) == default
    assert methods and set(methods) == {"chain"}


@pytest.mark.parametrize("name", ["y5", "product", "f9-mixed"])
def test_analyze_makes_no_t_closed_call(monkeypatch, name):
    """analyze reads t-closedness off the classified lattice."""
    calls = []
    spy(monkeypatch, canonical, "is_t_closed",
        lambda args, kwargs, result: calls.append(result))
    run(["analyze", str(GOLDEN / f"{name}.json")])
    assert calls == []


@pytest.mark.parametrize("name", ["product", "f9-mixed"])
def test_check_classifies_each_edge_once(monkeypatch, name):
    """Every lattice, chain and t-closedness test of check that meets a cover
    edge reads one memoized classification."""
    calls = Counter()
    spy(monkeypatch, canonical, "classify_minimal",
        lambda args, kwargs, result: calls.update([(ring_content(args[0]),
                                                    ring_content(args[1]))]))
    run(["check", str(GOLDEN / f"{name}.json")])
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("verb", [("check",), ("nagata", "--json"), ("analyze", "--json")])
def test_budget_nodes_reaches_nested_enumerations(write, monkeypatch, verb):
    budgets = []
    spy(monkeypatch, lattice, "enumerate_interval",
        lambda args, kwargs, result: budgets.append(kwargs.get("node_budget")))
    run([verb[0], write(PRODUCT), *verb[1:], "--budget-nodes", "50"])
    assert len(budgets) > 1 and set(budgets) == {50}
