"""File-based front end: parse instances, run analyses, emit reports.

Instances are JSON documents (see schema/instance.json) of dimension at most
MAX_DIM, read off the document before any table is built.  Each command has
one work budget (``--budget``, in the units of ``ringlat.analysis``) that its
enumerations, oracle and chain listing all charge; the canonical chain comes
from closed forms and charges nothing.  Exit codes: 0 success, 1
parse/validation error or a usage error (argparse's usage text on stderr),
2 work budget exceeded (one stderr line naming the phase), 3 a structural
cross-check failed (a bug signal, printed with its machine tag), 141 the
reader closed stdout early (128 + SIGPIPE, as a shell reports a broken
pipe).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .algebra import (
    Algebra,
    AlgebraError,
    Extension,
    InternalInvariantError,
    conductor,
    generated_subalgebra,
    intersect_with,
    localize_extension,
    make_poly_quotient,
    make_product,
    support,
)
from .analysis import DEFAULT_BUDGET, Analysis, BudgetExceeded
from .canonical import (
    census,
    check_cover_kinds,
    classify_cover_edges,
    crucial_traces,
    is_infra_integral,
    is_subintegral,
    is_t_closed,
    lambda_crosscheck,
    lambda_invariant,
    length_additivity_check,
    verify_chain_classification,
)
from .gen import SHAPES, GenSpec, RejectionExhausted, random_extension
from .gfq import GF
from .lattice import (
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
from .nagata import filtration_conditions, fip_subintegral_crosscheck, nagata_report


# The largest algebra dimension an instance may declare.  Parsing validates
# associativity on all dim**3 basis triples: F2[Y]/(Y^d + 1) parsed and
# validated in 0.09 s at d = 32, 0.33 s at d = 48 and 1.2 s at d = 64 on a
# shared 2-core x86_64 machine (Python 3.11), and `gen` never exceeds 8.
MAX_DIM = 48


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


def _algebra_dim(doc, path):
    """The dimension an algebra document declares, at most MAX_DIM, read
    before any table is built; a product sums its factors' documents."""
    _expect(isinstance(doc, dict) and len(doc) == 1, path,
            "expected exactly one of 'poly_quotient', 'table', 'product'")
    if "poly_quotient" in doc:
        path += ".poly_quotient"
        dim = len(_int_list(doc["poly_quotient"], path)) - 1
    elif "table" in doc:
        t = doc["table"]
        _expect(isinstance(t, dict), path + ".table", "expected an object")
        _expect(all(k in t for k in ("dim", "mul", "one")), path + ".table",
                "table needs 'dim', 'mul' and 'one'")
        path += ".table.dim"
        dim = t["dim"]
        _expect(isinstance(dim, int) and dim >= 1, path, "'dim' must be a positive integer")
    elif "product" in doc:
        parts = doc["product"]
        path += ".product"
        _expect(isinstance(parts, list) and len(parts) >= 2, path,
                "expected a list of at least two algebra documents")
        dim = sum(_algebra_dim(part, f"{path}[{k}]") for k, part in enumerate(parts))
    else:
        raise ParseError(path, "unknown algebra variant " + "/".join(sorted(doc)))
    _expect(dim <= MAX_DIM, path, f"dimension {dim} exceeds the maximum {MAX_DIM}")
    return dim


def parse_algebra(field, doc, path="$.algebra"):
    _algebra_dim(doc, path)
    return _build_algebra(field, doc, path)


def _build_algebra(field, doc, path):
    """The algebra of a document whose shape _algebra_dim has checked."""
    try:
        if "poly_quotient" in doc:
            return make_poly_quotient(field, doc["poly_quotient"])
        if "table" in doc:
            t = doc["table"]
            n = t["dim"]
            mul = _int_list(t["mul"], path + ".table.mul")
            _expect(len(mul) == n ** 3, path + ".table.mul",
                    f"expected {n ** 3} scalars, got {len(mul)}")
            one = _int_list(t["one"], path + ".table.one")
            _expect(len(one) == n, path + ".table.one", f"expected {n} coordinates")
            table = [[tuple(mul[(i * n + j) * n:(i * n + j) * n + n])
                      for j in range(n)] for i in range(n)]
            return Algebra(field, table, one)
        return make_product(*(_build_algebra(field, part, f"{path}.product[{k}]")
                              for k, part in enumerate(doc["product"])))
    except AlgebraError as ex:
        raise ParseError(path, str(ex)) from ex


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
    """The analysis context of one command, with the command's work budget."""
    return Analysis(budget=args.budget, threads=args.threads)


def build_result(ext, args):
    t0 = time.monotonic()
    an = analysis_for(args)
    lat = an.lattice(ext)
    dec = an.canonical(ext)
    tcl = dec.t_closure
    arith, _ = is_arithmetic(ext, an)
    delta, _ = is_delta_extension(lat)
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
        "census": census(an.cover_kind(lat.nodes[i], lat.nodes[j]) for i, j in lat.covers),
        "predicates": {
            "subintegral": is_subintegral(ext, an),
            "infra_integral": is_infra_integral(ext, an),
            "t_closed": tcl == ext.bottom,
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
        trace = intersect_with(ext.bottom, kind.conductor.basis)
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
    an = analysis_for(args)
    lat = an.lattice(ext)
    oracle = brute_force_interval(ext, an)
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
    check_cover_kinds(lat, edge_kinds, an)

    try:
        oracle = brute_force_interval(ext, an)
    except BudgetExceeded:  # charged nothing: the rest of the suite still runs
        ok, detail = True, "skipped: over subspace budget"
    else:
        ok, detail = set(lat.nodes) == oracle, f"{len(lat.nodes)} nodes"
    yield "oracle-interval-equality", ok, detail

    an.canonical(ext)  # its cross-checks run before the census checks print
    infra = is_infra_integral(ext, an)
    t_closed = is_t_closed(ext, an)
    kinds = [k.kind for k in edge_kinds.values()]
    chains, truncated = maximal_chains(lat, an.left)  # one more than is left raises
    an.charge("maximal chains", len(chains) + truncated)

    yield "trichotomy-census", True, str(census(kinds))
    all_rd = all(k in ("ramified", "decomposed") for k in kinds)
    all_inert = all(k == "inert" for k in kinds)
    ok = True
    if lat.covers:
        ok = (infra == all_rd) and (t_closed == all_inert)
    yield "census-vs-predicates", ok, \
        f"infra={infra} all_rd={all_rd} t_closed={t_closed} all_inert={all_inert}"

    supp_set = frozenset(m.basis for m in support(ext, an))
    trace = crucial_traces(lat, an)
    traces = {frozenset(trace[e] for e in zip(c, c[1:])) for c in chains}
    ok = len(traces) <= 1 and \
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
            data = an.filtration(localize_extension(ext, M, an))
            if not data.residue_is_field:
                c1, c2, c3 = filtration_conditions(data, an)
                yield "filtration-tri-equivalence", c1 == c2 == c3, \
                    f"({c1}, {c2}, {c3})"

    arith, _ = is_arithmetic(ext, an)
    if arith:
        delta, _ = is_delta_extension(lat)
        dist, _ = check_distributivity(lat)
        yield "arithmetic-implies-delta-distributive", delta and dist, \
            f"delta={delta} distributive={dist}"

    nil = an.decomposition(ext.top).nilradical
    cond = conductor(ext.bottom, ext.top)
    for name, rows in (("nilradical", nil.basis), ("conductor", cond.basis)):
        if ext.is_trivial and name == "conductor":
            # the conductor of R = S is S itself, which has no quotient ring
            yield f"quotient-interval-bijection-{name}", True, \
                "not computed: the conductor is the whole ring"
            continue
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(least):
    """The type of a whole-number option: least or more."""
    def parse(text):
        if text.isdecimal() and int(text) >= least:
            return int(text)
        raise argparse.ArgumentTypeError(f"expected a whole number, {least} or more, got {text!r}")
    return parse


def _spec_value(name):
    """The type of a gen option: a whole number that GenSpec accepts as name."""
    def parse(text):
        try:
            value = int(text)
            GenSpec(seed=0, **{name: value})
        except ValueError as ex:
            raise argparse.ArgumentTypeError(str(ex)) from None
        return value
    return parse


def make_parser():
    parser = _Parser(
        prog="ringlat",
        description="Analyze the lattice of intermediate rings of a finite "
                    "algebra extension over GF(q).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_path=True):
        if with_path:
            p.add_argument("path", help="instance JSON file")
        p.add_argument("--threads", type=_at_least(1), default=1,
                       help="enumeration worker threads (output-identical)")
        p.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET,
                       help="work units the command may spend: closures, oracle "
                            "subspaces and maximal chains")

    def gen_options(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--q", type=_spec_value("q"), default=2)
        p.add_argument("--max-dim", type=_spec_value("max_dim"), default=5)
        p.add_argument("--count", type=_spec_value("count"), default=1)

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
    p.add_argument("--gen", choices=SHAPES,
                   help="generate instances instead of reading a file")
    gen_options(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="emit seeded instance files")
    p.add_argument("--shape", choices=SHAPES, default="mixed")
    gen_options(p)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and (args.path is None) == (args.gen is None):
        parser.error("check needs exactly one of an instance path and --gen")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nothing more can be written; send the flush at exit to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, AlgebraError, RejectionExhausted) as ex:
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
