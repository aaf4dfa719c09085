"""File-based front end: parse instances, run analyses, emit reports.

Instances are JSON documents (see schema/instance.json).  Exit codes:
0 success, 1 parse/validation error, 2 budget exceeded, 3 a structural
cross-check failed (a bug signal, printed with its machine tag).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .algebra import (
    AlgebraError,
    Extension,
    InternalInvariantError,
    conductor,
    generated_subalgebra,
    intersect_with,
    make_poly_quotient,
    make_product,
    support,
)
from .analysis import DEFAULT_NODE_BUDGET, DEFAULT_SCAN_BUDGET, Analysis
from .canonical import (
    census,
    chain_trace_set,
    classify_chain,
    classify_cover_edges,
    is_infra_integral,
    is_subintegral,
    is_t_closed,
    lambda_crosscheck,
    lambda_invariant,
    length_additivity_check,
    verify_chain_classification,
)
from .gen import GenSpec, RejectionExhausted, random_extension
from .gfq import GF
from .lattice import (
    BudgetExceeded,
    brute_force_interval,
    check_distributivity,
    interval_length,
    is_arithmetic,
    is_chained,
    is_delta_extension,
    is_pinched_at,
    maximal_chains,
    quotient_interval_check,
    to_dot,
)
from .nagata import filtration_conditions, filtration_data, fip_subintegral_crosscheck, nagata_report


class ParseError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond, path, message):
    if not cond:
        raise ParseError(path, message)


def _int_list(value, path):
    _expect(isinstance(value, list) and all(isinstance(x, int) for x in value),
            path, "expected a list of integers")
    return value


def parse_field(doc, path="$.field"):
    _expect(isinstance(doc, dict), path, "expected an object")
    _expect("p" in doc and "e" in doc, path, "field needs 'p' and 'e'")
    p, e = doc["p"], doc["e"]
    _expect(isinstance(p, int) and isinstance(e, int), path, "'p' and 'e' must be integers")
    modulus = doc.get("modulus")
    if modulus is not None:
        modulus = tuple(_int_list(modulus, path + ".modulus"))
    try:
        return GF(p, e, modulus)
    except (ValueError, ZeroDivisionError) as ex:
        raise ParseError(path, str(ex)) from ex


def parse_algebra(field, doc, path="$.algebra"):
    _expect(isinstance(doc, dict) and len(doc) == 1, path,
            "expected exactly one of 'poly_quotient', 'table', 'product'")
    try:
        if "poly_quotient" in doc:
            coeffs = _int_list(doc["poly_quotient"], path + ".poly_quotient")
            return make_poly_quotient(field, coeffs)
        if "table" in doc:
            t = doc["table"]
            _expect(isinstance(t, dict), path + ".table", "expected an object")
            _expect(all(k in t for k in ("dim", "mul", "one")), path + ".table",
                    "table needs 'dim', 'mul' and 'one'")
            n = t["dim"]
            _expect(isinstance(n, int) and n >= 1, path + ".table.dim",
                    "'dim' must be a positive integer")
            mul = _int_list(t["mul"], path + ".table.mul")
            _expect(len(mul) == n ** 3, path + ".table.mul",
                    f"expected {n ** 3} scalars, got {len(mul)}")
            one = _int_list(t["one"], path + ".table.one")
            _expect(len(one) == n, path + ".table.one", f"expected {n} coordinates")
            from .algebra import Algebra
            table = [[tuple(mul[(i * n + j) * n:(i * n + j) * n + n])
                      for j in range(n)] for i in range(n)]
            return Algebra(field, table, one)
        if "product" in doc:
            parts = doc["product"]
            _expect(isinstance(parts, list) and len(parts) >= 2, path + ".product",
                    "expected a list of at least two algebra documents")
            factors = [parse_algebra(field, part, f"{path}.product[{k}]")
                       for k, part in enumerate(parts)]
            return make_product(*factors)
    except AlgebraError as ex:
        raise ParseError(path, str(ex)) from ex
    raise ParseError(path, "unknown algebra variant "
                     + "/".join(sorted(doc)))


def parse_instance(doc, path="$"):
    _expect(isinstance(doc, dict), path, "expected a JSON object")
    _expect("field" in doc, path, "missing 'field'")
    _expect("algebra" in doc, path, "missing 'algebra'")
    unknown = set(doc) - {"field", "algebra", "base_subring"}
    _expect(not unknown, path, f"unknown keys: {sorted(unknown)}")
    field = parse_field(doc["field"])
    algebra = parse_algebra(field, doc["algebra"])
    sub_doc = doc.get("base_subring")
    if sub_doc is None:
        bottom = generated_subalgebra(algebra, [])
    else:
        _expect(isinstance(sub_doc, dict) and set(sub_doc) == {"generators"},
                "$.base_subring", "expected an object with 'generators'")
        gens = sub_doc["generators"]
        _expect(isinstance(gens, list), "$.base_subring.generators",
                "expected a list of coordinate vectors")
        vectors = []
        for k, g in enumerate(gens):
            v = _int_list(g, f"$.base_subring.generators[{k}]")
            _expect(len(v) == algebra.dim, f"$.base_subring.generators[{k}]",
                    f"expected {algebra.dim} coordinates, got {len(v)}")
            _expect(all(0 <= c < field.q for c in v),
                    f"$.base_subring.generators[{k}]",
                    f"coordinates must lie in range({field.q})")
            vectors.append(tuple(v))
        try:
            bottom = generated_subalgebra(algebra, vectors)
        except AlgebraError as ex:
            raise ParseError("$.base_subring", str(ex)) from ex
    return Extension(bottom, algebra)


def serialize_instance(ext):
    """Canonical instance document (table form) for a parsed extension."""
    A = ext.ambient
    F = A.field
    mul = [c for i in range(A.dim) for j in range(A.dim) for c in A.table[i][j]]
    return {
        "field": {"p": F.p, "e": F.e, "modulus": list(F.modulus)},
        "algebra": {"table": {"dim": A.dim, "mul": mul, "one": list(A.one)}},
        "base_subring": {"generators": [list(r) for r in ext.bottom.basis]},
    }


def load_instance(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as ex:
        raise ParseError(path, str(ex)) from ex
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise ParseError(f"{path}:{ex.lineno}:{ex.colno}", ex.msg) from ex
    return parse_instance(doc)


# ---------------------------------------------------------------------------
# report assembly


def _rows(node):
    return [list(r) for r in node.basis]


def analysis_for(args):
    """The analysis context of one command, with the command's budgets."""
    return Analysis(node_budget=args.budget_nodes, scan_budget=args.budget_scan,
                    threads=args.threads)


def build_result(ext, args):
    t0 = time.monotonic()
    an = analysis_for(args)
    lat = an.lattice(ext)
    edge_kinds = classify_cover_edges(lat, an)
    dec = an.canonical(ext)
    tcl = dec.t_closure
    arith, _ = is_arithmetic(ext, an)
    delta, _ = is_delta_extension(ext, lat)
    nrep = nagata_report(ext, an)
    supp = support(ext, an)
    doc = {
        "version": __version__,
        "interval": {
            "cardinality": len(lat.nodes),
            "length": interval_length(lat),
        },
        "support": [
            {"maximal_ideal": _rows(m), "residue_dim": ext.bottom.dim - m.dim}
            for m in supp
        ],
        "canonical": {
            "base_dim": ext.bottom.dim,
            "seminormalization_dim": dec.seminormalization.dim,
            "t_closure_dim": tcl.dim,
            "top_dim": ext.top.dim,
        },
        "census": census(edge_kinds),
        "predicates": {
            "subintegral": is_subintegral(ext, an),
            "infra_integral": is_infra_integral(ext, an),
            "t_closed": is_t_closed(ext, an).value,
            "chained": is_chained(lat),
            "arithmetic": arith,
            "delta": delta,
            "pinched_at_tclosure": is_pinched_at(lat, tcl),
        },
        "lambda": lambda_invariant(ext, an),
        "nagata": nrep.to_dict(),
    }
    if args.timing:
        doc["timing"] = {"seconds": round(time.monotonic() - t0, 6)}
    return doc


def print_result(doc, as_json):
    if as_json:
        print(json.dumps(doc, indent=2))
        return
    flat = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        else:
            flat.append((prefix, value))

    walk("", doc)
    width = max(len(k) for k, _ in flat)
    for k, v in flat:
        print(f"{k.ljust(width)}  {v}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args):
    ext = load_instance(args.path)
    doc = build_result(ext, args)
    print_result(doc, args.json)
    return 0


def cmd_lattice(args):
    ext = load_instance(args.path)
    an = analysis_for(args)
    lat = an.lattice(ext)
    edge_kinds = classify_cover_edges(lat, an)
    supp = support(ext, an)
    supp_index = {m.basis: k for k, m in enumerate(supp)}

    def edge_label(edge):
        kind = edge_kinds[edge]
        trace = intersect_with(ext.bottom, kind.conductor.basis, ext.ambient)
        idx = supp_index.get(trace, "-")
        return f"{kind.kind[0].upper()}{idx}"

    if args.format == "dot":
        labels = {edge: edge_label(edge) for edge in lat.covers}
        sys.stdout.write(to_dot(lat, edge_labels=labels))
    else:
        doc = {
            "version": __version__,
            "nodes": [{"dim": n.dim, "basis": _rows(n)} for n in lat.nodes],
            "covers": [{"from": i, "to": j, "label": edge_label((i, j))}
                       for i, j in lat.covers],
            "bottom": lat.bottom,
            "top": lat.top,
        }
        print(json.dumps(doc, indent=2))
    return 0


def cmd_nagata(args):
    ext = load_instance(args.path)
    doc = nagata_report(ext, analysis_for(args)).to_dict()
    print_result(doc, args.json)
    return 0


def cmd_oracle(args):
    ext = load_instance(args.path)
    lat = analysis_for(args).lattice(ext)
    oracle = brute_force_interval(ext, subspace_budget=args.budget_subspaces)
    fast = set(lat.nodes)
    doc = {
        "enumerated": len(fast),
        "brute_force": len(oracle),
        "equal": fast == oracle,
    }
    print(json.dumps(doc, indent=2))
    if not doc["equal"]:
        raise InternalInvariantError("oracle-interval-equality",
                                     "enumeration disagrees with the subspace scan")
    return 0


def _check_suite(ext, args):
    """Named invariant checks; yields (name, ok, detail)."""
    an = analysis_for(args)
    lat = an.lattice(ext)
    edge_kinds = classify_cover_edges(lat, an)

    codim = ext.top.dim - ext.bottom.dim
    from .gfq import count_subspaces
    if count_subspaces(ext.ambient.field.q, codim) <= args.budget_subspaces:
        oracle = brute_force_interval(ext, subspace_budget=args.budget_subspaces)
        yield "oracle-interval-equality", set(lat.nodes) == oracle, \
            f"{len(lat.nodes)} nodes"
    else:
        yield "oracle-interval-equality", True, "skipped: over subspace budget"

    an.canonical(ext)  # its cross-checks run before the census checks print
    infra = is_infra_integral(ext, an)
    tcl_res = is_t_closed(ext, an)
    kinds = [k.kind for k in edge_kinds.values()]
    chains, truncated = maximal_chains(lat)

    yield "trichotomy-census", True, str(census(edge_kinds))
    all_rd = all(k in ("ramified", "decomposed") for k in kinds)
    all_inert = all(k == "inert" for k in kinds)
    ok = True
    if lat.covers:
        ok = (infra == all_rd) and (tcl_res.value == all_inert)
    yield "census-vs-predicates", ok, \
        f"infra={infra} all_rd={all_rd} t_closed={tcl_res.value} all_inert={all_inert}"

    supp_set = frozenset(m.basis for m in support(ext, an))
    traces = {chain_trace_set(classify_chain(lat, c, edge_kinds, an)) for c in chains}
    ok = (not truncated) and (len(traces) <= 1) and \
        (not chains or traces == {supp_set} or (len(lat.nodes) == 1 and not supp_set))
    yield "crucial-trace-invariance", ok, f"{len(chains)} chains"

    add = length_additivity_check(ext, an)
    ok = add.t_split_ok and add.seminormal_split_ok is not False
    yield "length-additivity", ok, \
        f"{add.total} = {add.below_t_closure} + {add.above_t_closure}"

    lam = lambda_crosscheck(ext, an)
    yield "lambda-consistency", lam.consistent, f"lambda={lam.value}"

    chain_rep = verify_chain_classification(lat, chains[0], an) if chains else None
    yield "chain-classification", chain_rep is None or chain_rep.consistent, \
        "; ".join(chain_rep.violations) if chain_rep else "no chains"

    if is_subintegral(ext, an):
        a, b = fip_subintegral_crosscheck(ext, an)
        yield "fip-criteria-agreement", a == b, f"arithmetic={a} filtration={b}"
        for M in support(ext, an):
            loc, _ = an.localization(ext, M)
            data = filtration_data(loc, an)
            if not data.residue_is_field:
                c1, c2, c3 = filtration_conditions(data, an)
                yield "filtration-tri-equivalence", c1 == c2 == c3, \
                    f"({c1}, {c2}, {c3})"

    arith, _ = is_arithmetic(ext, an)
    if arith:
        delta, _ = is_delta_extension(ext, lat)
        dist, _ = check_distributivity(lat)
        yield "arithmetic-implies-delta-distributive", delta and dist, \
            f"delta={delta} distributive={dist}"

    if ext.top == ext.ambient.full():
        nil = an.decomposition(ext.top).nilradical
        cond = conductor(ext.bottom, ext.top)
        for name, rows in (("nilradical", nil.basis), ("conductor", cond.basis)):
            ok, detail = quotient_interval_check(ext, rows, an)
            yield f"quotient-interval-bijection-{name}", ok, str(detail)


def cmd_check(args):
    if args.gen:
        spec = GenSpec(seed=args.seed, q=args.q, max_dim=args.max_dim,
                       shape=args.gen, count=args.count)
        exts = list(random_extension(spec))
    else:
        exts = [load_instance(args.path)]
    failures = 0
    for k, ext in enumerate(exts):
        prefix = f"[{k}] " if len(exts) > 1 else ""
        for name, ok, detail in _check_suite(ext, args):
            status = "PASS" if ok else "FAIL"
            print(f"{status} {prefix}{name}: {detail}")
            if not ok:
                failures += 1
                print(json.dumps({"instance": serialize_instance(ext)}, indent=2))
    if failures:
        raise InternalInvariantError("check-suite",
                                     f"{failures} invariant check(s) failed")
    return 0


def cmd_gen(args):
    spec = GenSpec(seed=args.seed, q=args.q, max_dim=args.max_dim,
                   shape=args.shape, count=args.count)
    docs = [serialize_instance(ext) for ext in random_extension(spec)]
    if args.out_dir:
        import os
        os.makedirs(args.out_dir, exist_ok=True)
        for k, doc in enumerate(docs):
            path = os.path.join(args.out_dir, f"instance_{k:04d}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        print(f"wrote {len(docs)} instance(s) to {args.out_dir}")
    else:
        for doc in docs:
            print(json.dumps(doc, indent=2))
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="ringlat",
        description="Analyze the lattice of intermediate rings of a finite "
                    "algebra extension over GF(q).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_path=True):
        if with_path:
            p.add_argument("path", help="instance JSON file")
        p.add_argument("--threads", type=int, default=1,
                       help="enumeration worker threads (output-identical)")
        p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET,
                       help="most nodes any one interval enumeration may find")
        p.add_argument("--budget-scan", type=int, default=DEFAULT_SCAN_BUDGET,
                       help="most (b, r) pairs a t-closedness scan may try before "
                            "it classifies a chain instead")
        p.add_argument("--budget-subspaces", type=int, default=2 ** 24)

    p = sub.add_parser("analyze", help="full analysis report")
    common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing (breaks byte determinism)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lattice", help="Hasse diagram export")
    common(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("nagata", help="extended-pair invariant report")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_nagata)

    p = sub.add_parser("oracle", help="enumeration vs brute-force comparison")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="run the invariant suites")
    common(p, with_path=False)
    p.add_argument("path", nargs="?", help="instance JSON file")
    p.add_argument("--gen", choices=("local-subintegral", "product-of-locals",
                                     "field-tower", "mixed"),
                   help="generate instances instead of reading a file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--max-dim", type=int, default=5)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="emit seeded instance files")
    p.add_argument("--shape", choices=("local-subintegral", "product-of-locals",
                                       "field-tower", "mixed"), default="mixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--max-dim", type=int, default=5)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and not args.path and not args.gen:
        parser.error("check needs an instance path or --gen")
    try:
        return args.func(args)
    except ParseError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except (AlgebraError, RejectionExhausted) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except BudgetExceeded as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except InternalInvariantError as ex:
        print(f"internal invariant violation: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
