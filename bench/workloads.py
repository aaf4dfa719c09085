"""The benchmark's four workloads, built from a seed.

Each workload is a list of commands: a `ringlat` argv and the instance
document it reads.  The extensions come from two sources: fixed instances
named in the code (the paper's running example, a non-local product) and
chosen instances of `ringlat.gen.random_extension` streams whose gen seeds
are fixed per workload.

The benchmark seed then picks the coordinates every instance is written in:
a random permutation of the basis and, over q > 2, a random nonzero scale of
each basis vector.  The instance files, the bases in every report and the
pivot order of every elimination change with the seed, while the lattice and
the number of closures per node do not.  So one pass costs about the same on
every seed, which keeps the run-to-run spread of the timings small.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

ANALYZE = ("analyze", "--json", "--threads", "1")
CHECK = ("check", "--threads", "1")


@dataclass(frozen=True)
class Command:
    label: str           # unique within the workload; names the instance file
    verb: tuple          # ANALYZE or CHECK
    doc: dict            # instance document, written to <label>.json

    def argv(self, directory):
        path = os.path.join(directory, self.label + ".json")
        return [self.verb[0], path, *self.verb[1:]]


def poly_doc(p, degree, modulus=(0, 1), generators=None):
    """F_q[Y]/(Y^degree) in table form, over the base field or the given subring.

    Written out directly, so set-up builds no field tables for it."""
    n = degree
    mul = [int(i + j == k) for i in range(n) for j in range(n) for k in range(n)]
    one = [1] + [0] * (n - 1)
    return {"field": {"p": p, "e": len(modulus) - 1, "modulus": list(modulus)},
            "algebra": {"table": {"dim": n, "mul": mul, "one": one}},
            "base_subring": {"generators": generators or [one]}}


def product_doc(p, factors):
    return {"field": {"p": p, "e": 1},
            "algebra": {"product": [{"poly_quotient": c} for c in factors]}}


def _take(ringlat, verb, gen_seed, q, max_dim, shape, indices, prefix):
    """Commands on instances number `indices` of a gen stream."""
    spec = ringlat.gen.GenSpec(seed=gen_seed, q=q, max_dim=max_dim, shape=shape,
                               count=max(indices) + 1)
    docs = [ringlat.cli.serialize_instance(ext) for ext in ringlat.gen.random_extension(spec)]
    return [Command(f"{prefix}{k:02d}", verb, docs[k]) for k in indices]


# The gen streams below and the instances taken from them were chosen at
# ringlat 0.1.0 so that a pass lasts about 3 s, and so that several commands
# cost about the same around the median and around the heaviest tenth, where
# call_s.p50 and call_s.p90 fall: a percentile that falls in a gap between two
# costs jumps between them from run to run.

def analyze_local_q2(ringlat, rng):
    cmds = [Command(f"y{n}", ANALYZE, poly_doc(2, n)) for n in (4, 5, 6)]
    y2 = [0, 0, 1, 0, 0, 0, 0]
    cmds.append(Command("y7-over-y2", ANALYZE, poly_doc(2, 7, generators=[y2])))
    # stream #8 and #10 have codimension 5 and cost 0.7 s and 1.3 s
    indices = [k for k in range(23) if k not in (8, 10)] + [24, 26, 28]
    cmds += _take(ringlat, ANALYZE, 1, 2, 6, "local-subintegral", indices, "ls")
    cmds.append(Command("check-y4", CHECK, poly_doc(2, 4)))
    return cmds


F4_MODULUS = (1, 1, 1)          # GF(4) = GF(2)[x]/(x^2 + x + 1)


def analyze_extfield(ringlat, rng):
    cmds = [Command("f4-y3", ANALYZE, poly_doc(2, 3, F4_MODULUS))]
    # q=4: codimension 1 to 4; #17 (dim 6, codim 3) costs 1 s and is left out
    cmds += _take(ringlat, ANALYZE, 2, 4, 6, "mixed",
                  [0, 1, 4, 6, 8, 11, 16, 20, 24, 25, 26, 27, 43, 47], "q4-")
    # q=9: codimension 1 and 2, and #17, the one codimension-3 instance under 1 s
    cmds += _take(ringlat, ANALYZE, 3, 9, 4, "mixed", [0, 1, 6, 7, 8, 9, 11, 12, 17], "q9-")
    cmds.append(Command("check-f4-y3", CHECK, poly_doc(2, 3, F4_MODULUS)))
    return cmds


def check_campaign(ringlat, rng):
    product = product_doc(2, [[0, 0, 1], [1, 1, 1], [0, 1]])
    cmds = [Command("product", CHECK, product)]
    # #3 and #4 (0.7 s each) and #10 (codimension 5, 2 s) are left out
    indices = [k for k in range(30) if k not in (3, 4, 10)]
    cmds += _take(ringlat, CHECK, 4, 2, 5, "mixed", indices, "mx")
    cmds.append(Command("analyze-product", ANALYZE, product))
    return cmds


# One prime per band: field tables cost p*p entries and closures p - 1 per
# node, so a band keeps that cost within a few percent across seeds.
LARGE_P_BANDS = ((300, 330), (330, 360), (360, 390), (390, 420), (420, 450))
LARGE_P_FIXED = 1021
LARGE_P_CHECK = 101


def _primes_in(lo, hi):
    return [n for n in range(lo, hi) if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def analyze_large_p(ringlat, rng):
    cmds = [Command(f"p{LARGE_P_FIXED}-y2", ANALYZE, poly_doc(LARGE_P_FIXED, 2))]
    for band, (lo, hi) in enumerate(LARGE_P_BANDS):
        p = rng.choice(_primes_in(lo, hi))
        # codim 1 over GF(p): F_{p^2}, F_p[Y]/(Y^2) and F_p x F_p
        for kind, shape in (("field", "field-tower"), ("local", "local-subintegral"),
                            ("product", "product-of-locals")):
            spec = ringlat.gen.GenSpec(seed=10 + band, q=p, max_dim=2, shape=shape,
                                       count=10 ** 6)
            ext = next(e for e in ringlat.gen.random_extension(spec) if e.ambient.dim == 2)
            cmds.append(Command(f"band{band}-{kind}", ANALYZE,
                                ringlat.cli.serialize_instance(ext)))
    cmds.append(Command(f"check-p{LARGE_P_CHECK}-y2", CHECK, poly_doc(LARGE_P_CHECK, 2)))
    return cmds


def relabel(ringlat, doc, rng):
    """The same extension in the basis f_i = c_i * e_perm(i)."""
    fd = doc["field"]
    p, e = fd["p"], fd["e"]
    if e == 1:
        def fmul(a, b):
            return a * b % p

        def finv(a):
            return pow(a, p - 2, p)
    else:
        field = ringlat.gfq.GF(p, e, tuple(fd["modulus"]))
        fmul, finv = field.mul, field.inv
    table = doc["algebra"]["table"]
    n, mul = table["dim"], table["mul"]
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, p ** e) for _ in range(n)]
    unscale = [finv(c) for c in scale]

    def coords(v):
        return [fmul(v[perm[i]], unscale[i]) for i in range(n)]

    new_mul = []
    for i in range(n):
        for j in range(n):
            c = fmul(scale[i], scale[j])
            at = (perm[i] * n + perm[j]) * n
            new_mul.extend(fmul(c, x) for x in coords(mul[at:at + n]))
    return {
        "field": fd,
        "algebra": {"table": {"dim": n, "mul": new_mul, "one": coords(table["one"])}},
        "base_subring": {"generators": [coords(g) for g in doc["base_subring"]["generators"]]},
    }


WORKLOADS = {
    "analyze-local-q2": analyze_local_q2,
    "analyze-extfield": analyze_extfield,
    "check-campaign": check_campaign,
    "analyze-large-p": analyze_large_p,
}


def build(ringlat, name, seed):
    """The workload's commands, with every instance in seed-chosen coordinates."""
    rng = random.Random(f"{name}:{seed}")
    out = []
    for cmd in WORKLOADS[name](ringlat, rng):
        doc = cmd.doc
        if "table" not in doc["algebra"]:
            doc = ringlat.cli.serialize_instance(ringlat.cli.parse_instance(doc))
        out.append(Command(cmd.label, cmd.verb, relabel(ringlat, doc, rng)))
    return out


def write(commands, directory):
    """Write each command's instance file; returns the argv of each command."""
    os.makedirs(directory, exist_ok=True)
    for cmd in commands:
        with open(os.path.join(directory, cmd.label + ".json"), "w") as fh:
            json.dump(cmd.doc, fh)
            fh.write("\n")
    return [cmd.argv(directory) for cmd in commands]
