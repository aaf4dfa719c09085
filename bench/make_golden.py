#!/usr/bin/env python3
"""Regenerate bench/golden.json: the SHA-256 of every command's stdout for
the default seed.

    python3 bench/make_golden.py

Run it only when a change is meant to alter the reports, and say why in
CHANGES.md; bench/run.py counts any other difference as a failed command.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        directory = os.path.join(run.OUT, f"golden-{name}")
        try:
            _, ringlat, commands, argvs = run.setup(name, workloads.DEFAULT_SEED, directory)
            digests = {}
            for cmd, argv in zip(commands, argvs):
                code, _, out, err = run.run_command(ringlat.cli, argv)
                if code != 0:
                    sys.exit(f"{name} {cmd.label}: exit {code}: {err}")
                digests[cmd.label] = hashlib.sha256(out.encode()).hexdigest()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        doc["workloads"][name] = digests
        print(f"{name}: {len(digests)} commands", flush=True)
    doc["ringlat_version"] = ringlat.__version__
    with open(run.GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
