"""The per-command analysis context: memoization, budgets on every path."""

import contextlib
import io
import json
import sys
from collections import Counter

import pytest

from ringlat import algebra, canonical, lattice
from ringlat.algebra import Extension, Subalgebra, span_rows_of
from ringlat.analysis import Analysis
from ringlat.cli import main
from ringlat.lattice import BudgetExceeded

Y5 = {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0, 0, 0, 0, 0, 1]}}
Y6 = {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0, 0, 0, 0, 0, 0, 1]}}
PRODUCT = {"field": {"p": 2, "e": 1},
           "algebra": {"product": [{"poly_quotient": [0, 0, 1]},
                                   {"poly_quotient": [1, 1, 1]},
                                   {"poly_quotient": [0, 1]}]}}


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
    A = getattr(ring, "ambient", ring)
    return (A.field.p, A.field.e, A.table, A.one, span_rows_of(ring))


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


@pytest.mark.parametrize("doc", [Y5, PRODUCT], ids=["y5", "product"])
@pytest.mark.parametrize("verb", [("analyze", "--json"), ("check",)], ids=["analyze", "check"])
def test_budget_scan_reaches_every_t_closed_call(write, monkeypatch, doc, verb):
    path = write(doc)
    default = run([verb[0], path, *verb[1:]])
    methods = Counter()
    spy(monkeypatch, canonical, "is_t_closed",
        lambda args, kwargs, result: methods.update([result.method]))
    assert run([verb[0], path, *verb[1:], "--budget-scan", "1"]) == default
    assert methods and set(methods) == {"chain"}


@pytest.mark.parametrize("verb", [("check",), ("nagata", "--json"), ("analyze", "--json")])
def test_budget_nodes_reaches_nested_enumerations(write, monkeypatch, verb):
    budgets = []
    spy(monkeypatch, lattice, "enumerate_interval",
        lambda args, kwargs, result: budgets.append(kwargs.get("node_budget")))
    run([verb[0], write(PRODUCT), *verb[1:], "--budget-nodes", "50"])
    assert len(budgets) > 1 and set(budgets) == {50}
