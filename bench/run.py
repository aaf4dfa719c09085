#!/usr/bin/env python3
"""End-to-end benchmark of `ringlat analyze` and `ringlat check`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark imports `ringlat` from `src/`,
writes the workload's instance files under `.bench_out/`, and calls
`ringlat.cli.main` in this process with the argv a user would type (default
budgets, `--threads 1`, no `--timing`).  Load is a closed loop from one
thread: a command starts only after the previous one returns.  Passes over
the workload's commands repeat until `--seconds` is used up; every timing is
a median over passes or commands, because back-to-back passes on a shared
two-core machine vary by up to 20%.

Every command's stdout is checked: exit code 0, a plausible report, the same
bytes on every pass (traced or not), and for the default seed the SHA-256
committed in `bench/golden.json`.  A command past `WALL_LIMIT_S` is stopped
and counted as failed.

`--trace 0` prints the end-to-end metrics; `--trace 1` makes untraced passes,
then traced passes (see tracer.py), and prints the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden.json")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WALL_LIMIT_S = 30.0
SETUP_REPEATS = 5
MIN_TRACED_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "corpus_s": "s",
    "call_s.p50": "s",
    "call_s.p90": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.load_instance.self_s": "s",
    "cli.print_result.self_s": "s",
    "gfq.rref.calls": "count",
    "gfq.rref.self_s": "s",
    "gfq.GF.mul.calls": "count",
    "gfq.GF.init.self_s": "s",
    "algebra.Algebra.mul.calls": "count",
    "algebra.Algebra.mul.self_s": "s",
    "algebra.generated_subalgebra.calls": "count",
    "algebra.generated_subalgebra.self_s": "s",
    "algebra.local_decomposition.calls": "count",
    "algebra.local_decomposition.self_s": "s",
    "algebra.local_decomposition.distinct_ratio": "ratio",
    "algebra.nilradical.calls": "count",
    "lattice.enumerate_interval.calls": "count",
    "lattice.enumerate_interval.self_s": "s",
    "lattice.enumerate_interval.distinct_ratio": "ratio",
    "lattice.enumerate_interval.nodes": "count",
    "lattice.enumerate_interval.closures_per_node": "ratio",
    "lattice.is_arithmetic.self_s": "s",
    "lattice.brute_force_interval.self_s": "s",
    "lattice.brute_force_interval.subspaces": "count",
    "lattice.maximal_chains.chains": "count",
    "canonical.classify_cover_edges.self_s": "s",
    "canonical.canonical_decomposition.self_s": "s",
    "canonical.is_t_closed.calls": "count",
    "canonical.length_additivity_check.self_s": "s",
    "nagata.nagata_report.self_s": "s",
    "nagata.fip_subintegral_crosscheck.self_s": "s",
    "gen.random_extension.self_s": "s",
    "trace_overhead": "ratio",
}


class WallLimit(BaseException):
    """Raised by SIGALRM inside a command; a BaseException so no handler in
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise WallLimit


def import_ringlat():
    """A fresh import of the package from src/, dropping any earlier one."""
    for key in [k for k in sys.modules if k == "ringlat" or k.startswith("ringlat.")]:
        del sys.modules[key]
    import ringlat
    import ringlat.cli  # noqa: F401
    return ringlat


def setup(name, seed, directory):
    """Import ringlat, generate the workload and write its instance files."""
    start = perf_counter()
    ringlat = import_ringlat()
    commands = workloads.build(ringlat, name, seed)
    argvs = workloads.write(commands, directory)
    return perf_counter() - start, ringlat, commands, argvs


def read_tree(directory):
    out = {}
    for entry in sorted(os.listdir(directory)):
        with open(os.path.join(directory, entry), "rb") as fh:
            out[entry] = fh.read()
    return out


def run_command(cli, argv):
    """(exit code, seconds, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, WALL_LIMIT_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except WallLimit:
        code = "wall-limit"
    except SystemExit as ex:          # argparse rejects the argv
        code = ex.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, perf_counter() - start, out.getvalue(), err.getvalue()


def plausible(verb, text):
    """Structural facts every report must satisfy, whatever the instance."""
    if verb == "check":
        lines = text.splitlines()
        return bool(lines) and all(line.startswith("PASS ") for line in lines)
    doc = json.loads(text)
    canon, interval = doc["canonical"], doc["interval"]
    return (canon["base_dim"] <= canon["seminormalization_dim"]
            <= canon["t_closure_dim"] <= canon["top_dim"]
            and 0 <= interval["length"] <= canon["top_dim"] - canon["base_dim"]
            and interval["cardinality"] >= interval["length"] + 1)


class Runner:
    """Runs passes over one workload's commands and checks every output."""

    def __init__(self, cli, commands, argvs, golden):
        self.cli = cli
        self.commands = commands
        self.argvs = argvs
        self.golden = golden          # {label: sha256}, empty off the default seed
        self.digests = {}             # label -> sha256 of the first output
        self.failures = Counter()     # reason -> commands
        self.attempted = 0
        self.samples = []             # seconds of every command

    def run_pass(self, tracer=None):
        """Seconds spent in the commands of one pass over the workload."""
        total = 0.0
        for index, (cmd, argv) in enumerate(zip(self.commands, self.argvs)):
            if tracer is not None:
                tracer.command_id = index
            gc.collect()              # start from a clean heap, as a fresh process would
            code, seconds, out, err = run_command(self.cli, argv)
            self.attempted += 1
            self.samples.append(seconds)
            total += seconds
            reason = self.verdict(cmd, code, out)
            if reason:
                self.failures[reason] += 1
                print(f"FAILED {cmd.label} ({reason}): {err.strip()[:400]}", file=sys.stderr)
        return total

    def verdict(self, cmd, code, out):
        if code != 0:
            return f"exit-{code}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.golden and self.golden.get(cmd.label) != digest:
            return "golden-mismatch"
        if self.digests.setdefault(cmd.label, digest) != digest:
            return "output-changed"
        try:
            ok = plausible(cmd.verb[0], out)
        except (ValueError, KeyError, TypeError):
            ok = False
        return None if ok else "implausible"

    @property
    def failed(self):
        return sum(self.failures.values())


def measure(runner, seconds, tracer=None, min_passes=1, buckets=None):
    """Pass times until the budget is spent; a pass starts only if it fits."""
    times = []
    start = perf_counter()
    while len(times) < min_passes or \
            perf_counter() - start + statistics.median(times) <= seconds:
        if tracer is not None:
            tracer.new_bucket()
        times.append(runner.run_pass(tracer))
        if tracer is not None:
            buckets.append(tracer.bucket)
    return times


def load_golden(name, seed):
    if seed != workloads.DEFAULT_SEED:
        return {}
    with open(GOLDEN) as fh:
        return json.load(fh)["workloads"][name]


def traced_run(runner, ringlat, name, seed, seconds, instance_dir, work):
    """Untraced passes, then traced set-up and passes; the per-layer metrics."""
    untraced = measure(runner, seconds / 2)
    tracer = tracing.Tracer()
    originals = tracer.originals()
    tracer.install()
    problems = []
    try:
        left = tracer.unwrapped_references(originals)
        if left:
            problems.append(f"unwrapped references: {left}")
        tracer.new_bucket()
        traced_dir = os.path.join(work, "traced-setup")
        workloads.write(workloads.build(ringlat, name, seed), traced_dir)
        setup_bucket = tracer.new_bucket()
        if read_tree(traced_dir) != read_tree(instance_dir):
            problems.append("traced set-up wrote different instance files")
        buckets = []
        traced = measure(runner, seconds / 2, tracer, MIN_TRACED_PASSES, buckets)
    finally:
        tracer.uninstall()
    per_pass = [tracing.layer_metrics(b) for b in buckets]
    counts = [{k: v for k, v in m.items() if not k.endswith(".self_s")} for m in per_pass]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    metrics = dict(counts[0])
    for key in per_pass[0]:
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(m[key] for m in per_pass)
    metrics["gen.random_extension.self_s"] = \
        tracing.layer_metrics(setup_bucket)["gen.random_extension.self_s"]
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"),
                       [c.label for c in runner.commands])
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(tracer.spans)} spans", flush=True)
    return metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ringlat", "cli.py")):
        sys.exit(f"bench: no ringlat source under {SRC}")
    sys.path.insert(0, SRC)

    work = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            directory = os.path.join(work, f"setup{rep}")
            seconds, ringlat, commands, argvs = setup(args.workload, args.seed, directory)
            setups.append(seconds)
            gc.collect()
        problems = []
        if any(read_tree(os.path.join(work, f"setup{rep}")) != read_tree(directory)
               for rep in range(SETUP_REPEATS - 1)):
            problems.append("set-up is not deterministic")
        runner = Runner(ringlat.cli, commands, argvs, load_golden(args.workload, args.seed))
        if args.trace:
            values, trace_problems = traced_run(runner, ringlat, args.workload, args.seed,
                                                args.seconds, directory, work)
            problems += trace_problems
            units = PER_LAYER
        else:
            times = measure(runner, args.seconds)
            samples = runner.samples
            values = {
                "setup_s": statistics.median(setups),
                "corpus_s": statistics.median(times),
                "call_s.p50": statistics.median(samples),
                "call_s.p90": statistics.quantiles(samples, n=10)[-1],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            print(f"passes: {len(times)}; call_s samples: {len(samples)}, "
                  f"{sum(s > values['call_s.p90'] for s in samples)} above p90", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    combined = hashlib.sha256(json.dumps(runner.digests, sort_keys=True).encode()).hexdigest()
    with open(os.path.join(OUT, f"digests-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"combined": combined, "commands": runner.digests}, fh, indent=1)
    failed_ratio = runner.failed / runner.attempted
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands per pass; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}", flush=True)
    print(f"failed_ratio {failed_ratio:g} ratio ({runner.failed}/{runner.attempted}) "
          f"by reason {dict(runner.failures)}; outputs sha256 {combined}", flush=True)
    for key, unit in units.items():
        print(f"  {key:48s} {values[key]:.6g} {unit}", flush=True)
    result = {
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
