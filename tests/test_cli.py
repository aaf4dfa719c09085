import argparse
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from ringlat import cli, gfq
from ringlat.cli import ParseError, main, parse_instance, serialize_instance
from ringlat.gfq import count_subspaces

from conftest import deadline, same_table

EX44 = {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0, 0, 0, 0, 1]}}
F64 = {"field": {"p": 2, "e": 1},
       "algebra": {"poly_quotient": [1, 1, 0, 1, 1, 0, 1]}}
TRIVIAL = {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0, 1]},
           "base_subring": {"generators": [[1]]}}
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def write(tmp_path):
    def _write(doc, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "ringlat.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_serialize_roundtrip():
    ext = parse_instance(EX44)
    doc = serialize_instance(ext)
    ext2 = parse_instance(doc)
    assert same_table(ext2.ambient, ext.ambient)
    assert ext2.bottom.basis == ext.bottom.basis
    assert serialize_instance(ext2) == doc


def test_parse_product_and_table():
    doc = {"field": {"p": 2, "e": 1},
           "algebra": {"product": [{"poly_quotient": [0, 1]},
                                   {"poly_quotient": [1, 1, 1]}]}}
    ext = parse_instance(doc)
    assert ext.ambient.dim == 3
    table_doc = serialize_instance(ext)
    assert same_table(parse_instance(table_doc).ambient, ext.ambient)


def test_parse_extension_field_instance():
    doc = {"field": {"p": 2, "e": 2},
           "algebra": {"poly_quotient": [2, 1, 1]}}
    ext = parse_instance(doc)
    assert ext.ambient.field.q == 4 and ext.ambient.dim == 2


def test_analyze_example(write):
    rc, out, _ = run_cli(["analyze", write(EX44), "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["interval"] == {"cardinality": 6, "length": 3}
    assert doc["predicates"]["subintegral"] is True
    assert doc["predicates"]["arithmetic"] is False
    assert doc["nagata"]["fip"] is False
    assert doc["census"] == {"inert": 0, "decomposed": 0, "ramified": 7}
    assert "timing" not in doc


def test_second_main_call_builds_no_parser(write, capsys, monkeypatch):
    """In-process callers, such as the benchmark, pay for the parser once."""
    path = write(TRIVIAL)
    assert main(["analyze", path]) == 0
    first = capsys.readouterr().out
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kw: built.append(self) or real(self, *args, **kw))
    assert main(["analyze", path]) == 0
    assert built == [] and capsys.readouterr().out == first


def test_analyze_trivial(write):
    rc, out, _ = run_cli(["analyze", write(TRIVIAL), "--json"])
    doc = json.loads(out)
    assert rc == 0
    assert doc["interval"] == {"cardinality": 1, "length": 0}
    assert all(doc["predicates"].values())


def test_analyze_f64(write):
    rc, out, _ = run_cli(["analyze", write(F64), "--json"])
    doc = json.loads(out)
    assert doc["interval"] == {"cardinality": 4, "length": 2}
    assert doc["lambda"] == 2
    assert doc["census"] == {"inert": 4, "decomposed": 0, "ramified": 0}
    assert doc["nagata"]["cardinality"] == 4


def test_analyze_over_the_largest_prime_field_stays_small(write, capsys):
    """F_4093[Y]/(Y^2), 4093 being the largest prime the parser accepts: the
    prime field holds no tables, so analyze peaks well under 32 MB."""
    path = write({"field": {"p": 4093, "e": 1}, "algebra": {"poly_quotient": [0, 0, 1]}})
    tracemalloc.start()
    try:
        code = main(["analyze", path, "--json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 32 * 2 ** 20
    assert json.loads(capsys.readouterr().out)["interval"] == {"cardinality": 2, "length": 1}


def test_exit_code_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": {')
    rc, _, err = run_cli(["analyze", str(path)])
    assert rc == 1 and "broken.json:1:" in err


def test_exit_code_validation_error(write):
    # non-commutative table: c[0][1] != c[1][0]
    doc = {"field": {"p": 2, "e": 1},
           "algebra": {"table": {"dim": 2,
                                 "mul": [1, 0, 0, 1, 1, 0, 0, 0],
                                 "one": [1, 0]}}}
    rc, _, err = run_cli(["analyze", write(doc)])
    assert rc == 1 and "commutative" in err


@pytest.mark.parametrize("field, size", [
    ({"p": 2305843009213693951, "e": 1}, "2305843009213693951"),
    ({"p": 2, "e": 1000000000}, "2^1000000000"),
    ({"p": 4099, "e": 2}, "4099^2"),
], ids=["p-mersenne-61", "e-billion", "p-over-bound-squared"])
def test_oversized_field_is_refused_at_once(field, size):
    """p above 4096 or e above 12 is refused before p is trial-divided and
    before p**e is computed."""
    doc = {"field": field, "algebra": {"poly_quotient": [0, 1]}}
    with deadline(1), pytest.raises(ParseError) as caught:
        parse_instance(doc)
    assert caught.value.path == "$.field"
    assert str(caught.value) == f"$.field: field size {size} exceeds supported bound 4096"


def analyze_in_256_mb(path):
    """Run `ringlat analyze path` in a child process held to 256 MB of
    address space; returns the completed process and its wall time."""
    limit = 256 * 2 ** 20
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ringlat.cli", "analyze", path],
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return proc, time.perf_counter() - start


def test_degree_400_instance_is_refused_at_once(write):
    """F2[Y]/(Y^400 + 1), 1.3 KB, would build 400**3 structure constants: the
    parser refuses it in a child process held to 256 MB of address space."""
    doc = {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [1] + [0] * 399 + [1]}}
    proc, elapsed = analyze_in_256_mb(write(doc))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"error: $.algebra.poly_quotient: dimension 400 exceeds "
                           f"the maximum {cli.MAX_DIM}\n")
    assert elapsed < 1


def test_extension_field_over_the_table_bound_is_refused_at_once(write):
    """GF(61^2) names a field of 3,721 elements, within the field-size bound
    but over the extension-field table bound: the parser refuses it before
    building any table, in a child process held to 256 MB of address space."""
    doc = {"field": {"p": 61, "e": 2, "modulus": [2, 0, 1]},
           "algebra": {"poly_quotient": [0, 1]}}
    proc, elapsed = analyze_in_256_mb(write(doc))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"error: $.field: extension field size 3721 exceeds table bound "
                           f"{gfq.MAX_EXTENSION_Q}\n")
    assert elapsed < 1


@pytest.mark.parametrize("algebra, path, dim", [
    ({"table": {"dim": 10 ** 6, "mul": [], "one": []}}, "$.algebra.table.dim", 10 ** 6),
    ({"product": [{"poly_quotient": [0] * 30 + [1]},
                  {"product": [{"poly_quotient": [0] * 15 + [1]},
                               {"table": {"dim": 4, "mul": [], "one": []}}]}]},
     "$.algebra.product", 49),
], ids=["table", "nested-product"])
def test_dimension_over_the_cap_is_refused_before_any_table(algebra, path, dim):
    """A product's dimension is summed from its documents, nested products
    included, before any factor is built: each factor here is within the cap."""
    assert cli.MAX_DIM == 48
    with deadline(1), pytest.raises(ParseError) as caught:
        parse_instance({"field": {"p": 2, "e": 1}, "algebra": algebra})
    assert str(caught.value) == f"{path}: dimension {dim} exceeds the maximum 48"


def test_dimension_at_the_cap_is_parsed():
    doc = {"field": {"p": 2, "e": 1},
           "algebra": {"product": [{"poly_quotient": [0] * 40 + [1]},
                                   {"poly_quotient": [0] * 8 + [1]}]}}
    assert parse_instance(doc).ambient.dim == 48


@pytest.mark.parametrize("doc, message", [
    ({"field": {"p": 2, "e": True}, "algebra": {"poly_quotient": [False, False, True]},
      "base_subring": {"generators": [[True, False]]}},
     "$.field: 'p' and 'e' must be integers"),
    ({"field": {"p": 2, "e": 2, "modulus": [1, 1, True]}, "algebra": {"poly_quotient": [0, 1]}},
     "$.field.modulus: expected a list of integers"),
    ({"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [False, False, True]}},
     "$.algebra.poly_quotient: expected a list of integers"),
    ({"field": {"p": 2, "e": 1}, "algebra": {"table": {"dim": True, "mul": [1], "one": [1]}}},
     "$.algebra.table.dim: 'dim' must be a positive integer"),
    ({"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0, 0, 1]},
      "base_subring": {"generators": [[True, False]]}},
     "$.base_subring.generators[0]: expected a list of integers"),
], ids=["p-and-e", "modulus", "poly-quotient", "table-dim", "generators"])
def test_json_booleans_are_not_integers(doc, message):
    """JSON true and false are refused wherever the schema asks for an
    integer, as schema/instance.json refuses them."""
    with pytest.raises(ParseError) as caught:
        parse_instance(doc)
    assert str(caught.value) == message
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parent.parent / "schema" / "instance.json").read_text())
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


@pytest.mark.parametrize("p, e, one", [(2, 2, 5), (3, 1, 4), (2, 1, 2)])
def test_unit_out_of_range_exits_1(write, p, e, one):
    """The unit vector is range-checked like the structure constants, over
    GF(2) too, where a vector is packed only after its entries pass."""
    doc = {"field": {"p": p, "e": e},
           "algebra": {"table": {"dim": 1, "mul": [1], "one": [one]}}}
    rc, out, err = run_cli(["analyze", write(doc)])
    assert (rc, out) == (1, "")
    assert err == f"error: $.algebra: scalar {one} outside range({p ** e})\n"


Y2_TABLE = {"dim": 2, "mul": [1, 0, 0, 1, 0, 1, 0, 0], "one": [1, 0]}  # F2[Y]/(Y^2)


@pytest.mark.parametrize("table, generators, message", [
    ({**Y2_TABLE, "mul": [1, 0, 0, 1, 0, 2, 0, 0]}, [],
     "$.algebra: scalar 2 outside range(2)"),
    ({**Y2_TABLE, "mul": [1, 0, 0, 1, 0, 1, 0]}, [],
     "$.algebra.table.mul: expected 8 scalars, got 7"),
    (Y2_TABLE, [[0, 0, 1]], "$.base_subring.generators[0]: expected 2 coordinates, got 3"),
    (Y2_TABLE, [[0, 2]], "$.base_subring.generators[0]: coordinates must lie in range(2)"),
], ids=["table-entry-2", "table-short", "generator-long", "generator-entry-2"])
def test_gf2_entries_are_checked_before_packing(write, table, generators, message):
    """Over GF(2) a vector is an int, which has no length and no entry of 2:
    each check runs on the entries of the document, and a generator one
    entry too long is refused although its leading zero would pack away."""
    doc = {"field": {"p": 2, "e": 1}, "algebra": {"table": table},
           "base_subring": {"generators": generators}}
    rc, out, err = run_cli(["analyze", write(doc)])
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_exit_code_budget(write):
    rc, out, err = run_cli(["analyze", write(EX44), "--budget", "2"])
    assert rc == 2 and out == ""
    assert err == ("error: work budget exceeded in interval enumeration: "
                   "0 of 2 units spent, 7 more requested\n")


@pytest.mark.parametrize("args", [
    ["analyze", str(GOLDEN / "y4.json"), "--bogus"],
    ["analyze", str(GOLDEN / "y4.json"), "--budget", "many"],
    ["analyze", str(GOLDEN / "y4.json"), "--budget", "-1"],
    ["check"],
    ["analyze", str(GOLDEN / "y4.json"), "--threads", "0"],
    ["gen", "--q", "6"],
    ["gen", "--q", "1"],
    ["gen", "--q", "4099"],
    ["gen", "--q", "1000000007"],
    ["gen", "--q", "1024"],
    ["check", "--gen", "mixed", "--q", "6"],
    ["gen", "--max-dim", "-2"],
    ["check", "--gen", "mixed", "--max-dim", "9"],
    ["gen", "--count", "-1"],
    ["check", str(GOLDEN / "y4.json"), "--gen", "mixed"],
    ["check", str(GOLDEN / "y4.json"), "--q", "9", "--count", "5", "--seed", "3",
     "--max-dim", "2"],
    ["check", str(GOLDEN / "y4.json"), "--seed", "0"],
], ids=["unknown-option", "non-integer", "negative-budget", "bare-check", "zero-threads",
        "q-not-prime-power", "q-one", "q-over-field-bound", "q-large-prime",
        "q-no-default-modulus", "check-q-not-prime-power", "negative-max-dim", "max-dim-over-8",
        "negative-count", "check-path-and-gen", "check-path-and-gen-options",
        "check-path-and-default-seed"])
def test_usage_error_exits_1(args):
    """A usage error has the parse/validation status 1, not the budget status
    2, with argparse's usage text on stderr."""
    rc, out, err = run_cli(args)
    assert rc == 1 and out == ""
    assert err.startswith("usage:") and "Traceback" not in err


def test_zero_budget_is_valid(capsys):
    assert main(["analyze", str(GOLDEN / "y4.json"), "--budget", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: work budget exceeded")


def test_check_counts_chains_without_charging_them(write, spent_at_default):
    """check on F2[Y]/(Y^4)^3 over F2^3 counts its 45,360 maximal chains in
    one pass over the covers and charges no unit for them, so 40,000 units
    suffice: enumeration alone spends 23,953."""
    doc = {"field": {"p": 2, "e": 1},
           "algebra": {"product": [{"poly_quotient": [0, 0, 0, 0, 1]}] * 3},
           "base_subring": {"generators": [[1] + [0] * 11, [0] * 4 + [1] + [0] * 7]}}
    out, spent = spent_at_default(["check", write(doc), "--budget", "40000"])
    assert all(line.startswith("PASS ") for line in out.splitlines())
    assert "PASS crucial-trace-invariance: 45360 chains\n" in out
    assert spent == 23953


def test_exit_code_missing_field(write):
    rc, _, err = run_cli(["analyze", write({"algebra": {"poly_quotient": [0, 1]}})])
    assert rc == 1 and "field" in err


def test_output_byte_determinism(write):
    path = write(EX44)
    outs = {run_cli(["analyze", path, "--json"])[1] for _ in range(2)}
    outs.add(run_cli(["analyze", path, "--json", "--threads", "4"])[1])
    assert len(outs) == 1


def test_lattice_dot(write):
    rc, out, _ = run_cli(["lattice", write(EX44)])
    assert rc == 0
    assert out.startswith("digraph interval {")
    assert out.count("->") == 7
    assert out.count('label="R0"') == 7  # all edges ramified, trace index 0
    rc2, out2, _ = run_cli(["lattice", write(EX44), "--format", "json"])
    doc = json.loads(out2)
    assert len(doc["nodes"]) == 6 and len(doc["covers"]) == 7


def test_lattice_dot_field_tower(write):
    rc, out, _ = run_cli(["lattice", write(F64)])
    assert rc == 0 and out.count('label="I0"') == 4


def test_nagata_subcommand(write):
    rc, out, _ = run_cli(["nagata", write(EX44), "--json"])
    doc = json.loads(out)
    assert rc == 0 and doc["fip"] is False and doc["length"] == 3


def test_oracle_subcommand(write):
    rc, out, _ = run_cli(["oracle", write(EX44)])
    doc = json.loads(out)
    assert rc == 0 and doc["equal"] and doc["enumerated"] == 6
    rc2, out2, _ = run_cli(["oracle", write(TRIVIAL)])
    assert rc2 == 0 and json.loads(out2)["enumerated"] == 1


def test_check_subcommand(write):
    rc, out, _ = run_cli(["check", write(EX44)])
    assert rc == 0
    assert "FAIL" not in out
    assert "oracle-interval-equality" in out
    assert "fip-criteria-agreement" in out


@pytest.mark.parametrize("doc", [
    {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [1, 1]}},
    {"field": {"p": 2, "e": 1}, "algebra": {"poly_quotient": [0, 0, 1]},
     "base_subring": {"generators": [[0, 1]]}},
], ids=["f2", "y2-over-itself"])
def test_check_trivial_pair(write, capsys, doc):
    """R = S: the conductor is the whole ring, which has no quotient ring, so
    its quotient-interval row is not computed; every row passes."""
    assert main(["check", write(doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)
    assert lines[-1] == ("PASS quotient-interval-bijection-conductor: "
                         "not computed: the conductor is the whole ring")


@pytest.mark.parametrize("short,oracle_line", [
    (0, "4 nodes"),
    (374, "skipped: over subspace budget"),  # GF(2)^5 has 374 subspaces
])
def test_check_oracle_subspace_budget(write, spent_at_default, capsys, short, oracle_line):
    """GF(2) inside GF(64): the oracle charges its 374 subspaces, more than the
    rest of check spends.  Take them from the default spend and the oracle
    is skipped, charging nothing, while every other line finishes."""
    path = write(F64)
    default, spent = spent_at_default(["check", path])
    assert count_subspaces(2, 5) == 374 > spent - 374
    assert main(["check", path, "--budget", str(spent - short)]) == 0
    assert capsys.readouterr().out == default.replace(
        "oracle-interval-equality: 4 nodes", f"oracle-interval-equality: {oracle_line}")


def test_check_generated_campaign():
    rc, out, _ = run_cli(["check", "--gen", "local-subintegral",
                          "--seed", "3", "--count", "3", "--max-dim", "4"])
    assert rc == 0 and "FAIL" not in out


@pytest.mark.parametrize("args", [
    ("mixed", "--q", "4", "--max-dim", "4", "--count", "10"),
    ("mixed", "--q", "9", "--max-dim", "3", "--count", "6"),
    ("product-of-locals", "--q", "4", "--max-dim", "4", "--count", "6"),
], ids=["mixed-q4", "mixed-q9", "product-q4"])
def test_check_extension_field_campaign(capsys, args):
    assert main(["check", "--gen", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)


def test_gen_subcommand(tmp_path):
    out_dir = tmp_path / "instances"
    rc, out, _ = run_cli(["gen", "--shape", "field-tower", "--seed", "1",
                          "--count", "2", "--out-dir", str(out_dir)])
    assert rc == 0
    files = sorted(out_dir.iterdir())
    assert len(files) == 2
    for f in files:
        doc = json.loads(f.read_text())
        ext = parse_instance(doc)
        assert ext.bottom.dim == 1


def test_gen_deterministic(tmp_path):
    args = ["gen", "--shape", "mixed", "--seed", "5", "--count", "3"]
    assert run_cli(args)[1] == run_cli(args)[1]


def test_instances_validate_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "schema" / "instance.json")
        .read_text())
    for doc in (EX44, F64, TRIVIAL):
        jsonschema.validate(doc, schema)
    rc, out, _ = run_cli(["gen", "--shape", "mixed", "--seed", "8", "--count", "1"])
    jsonschema.validate(json.loads(out), schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"field": {"p": 2}}, schema)


def test_main_callable_directly(write, capsys):
    assert main(["analyze", write(EX44), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["interval"]["cardinality"] == 6


def test_closed_stdout_exits_141_quietly():
    """A reader that stops after one line gets exit status 141 (128 + SIGPIPE)
    and no traceback, not the parse-error status 1."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ringlat.cli", "check", "--gen", "mixed",
         "--seed", "4", "--count", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"PASS [0] ")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert stderr == b""
