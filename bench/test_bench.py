"""Tests of the benchmark itself (not of ringlat).

    python3 -m pytest bench/test_bench.py

One traced pass per workload takes about half a minute in all.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)
SEED = 1


def _setup(name, seed, tmp_path):
    return run.setup(name, seed, str(tmp_path / f"{name}-{seed}"))


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """Per-layer metrics of traced passes, two on the first workload."""
    out = {}
    for k, name in enumerate(workloads.WORKLOADS):
        _, ringlat, commands, argvs = _setup(name, SEED, tmp_path_factory.mktemp("w"))
        runner = run.Runner(ringlat.cli, commands, argvs, golden={})
        runner.run_pass()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            buckets = []
            for _ in range(2 if k == 0 else 1):
                tracer.new_bucket()
                runner.run_pass(tracer)
                buckets.append(tracer.bucket)
        finally:
            tracer.uninstall()
        assert runner.failed == 0, runner.failures     # traced stdout == untraced
        out[name] = [tracing.layer_metrics(b) for b in buckets]
    return out


def test_every_traced_name_is_called(traced_passes):
    for name in tracing.traced_names():
        if name == "gen.random_extension":
            continue                  # called in set-up, not by the commands
        assert any(passes[0][name + ".calls"] > 0 for passes in traced_passes.values()), name


def test_every_per_layer_time_is_measured_on_every_workload(traced_passes):
    for workload, passes in traced_passes.items():
        for key, value in passes[0].items():
            if key.endswith(".self_s") and key in run.PER_LAYER and \
                    not key.startswith("gen."):
                assert value > 0, (workload, key)


def test_traced_counts_repeat(traced_passes):
    first, second = traced_passes[next(iter(workloads.WORKLOADS))]
    counts = [{k: v for k, v in m.items() if not k.endswith(".self_s")}
              for m in (first, second)]
    assert counts[0] == counts[1]


def test_no_ringlat_module_keeps_an_unwrapped_reference(tmp_path):
    _setup("analyze-large-p", SEED, tmp_path)
    tracer = tracing.Tracer()
    originals = tracer.originals()
    assert len(originals) == len(tracing.traced_names())
    before = tracer.unwrapped_references(originals)
    assert ("ringlat.algebra", "rref") in before and ("ringlat.nagata", "rref") in before
    tracer.install()
    try:
        assert tracer.unwrapped_references(originals) == []
        for mod, cls, meth, _ in tracing.METHODS:
            klass = getattr(sys.modules[f"ringlat.{mod}"], cls)
            assert vars(klass)[meth] not in originals
    finally:
        tracer.uninstall()
    assert sorted(tracer.unwrapped_references(originals)) == sorted(before)


def test_gen_is_traced_during_setup(tmp_path):
    _, ringlat, _, _ = _setup("check-campaign", SEED, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.build(ringlat, "check-campaign", SEED)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.bucket)
    assert metrics["gen.random_extension.calls"] > 0
    assert metrics["gen.random_extension.self_s"] > 0


def test_seed_fixes_the_instance_files(tmp_path):
    trees = {}
    for tag, seed in (("a", SEED), ("b", SEED), ("c", SEED + 1)):
        for name in workloads.WORKLOADS:
            directory = tmp_path / f"{tag}-{name}"
            run.setup(name, seed, str(directory))
            trees[tag, name] = run.read_tree(str(directory))
    for name in workloads.WORKLOADS:
        assert trees["a", name] == trees["b", name]
        assert trees["a", name] != trees["c", name]


def test_wall_limit_counts_as_failure(tmp_path, monkeypatch):
    _, ringlat, commands, argvs = _setup("analyze-local-q2", SEED, tmp_path)
    monkeypatch.setattr(run, "WALL_LIMIT_S", 0.001)
    runner = run.Runner(ringlat.cli, commands[:1], argvs[:1], golden={})
    runner.run_pass()
    assert runner.failures == {"exit-wall-limit": 1}


def test_golden_mismatch_counts_as_failure(tmp_path):
    _, ringlat, commands, argvs = _setup("analyze-local-q2", SEED, tmp_path)
    runner = run.Runner(ringlat.cli, commands[:1], argvs[:1],
                        golden={commands[0].label: "0" * 64})
    runner.run_pass()
    assert runner.failures == {"golden-mismatch": 1}


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
