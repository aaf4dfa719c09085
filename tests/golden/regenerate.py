"""Rewrite the golden report files next to this script.

    PYTHONPATH=src python tests/golden/regenerate.py

Each instance `NAME.json` here gets one file per report, `NAME.VERB.out`,
holding the exact stdout of `ringlat VERB NAME.json ...`.  `test_golden.py`
asserts byte equality with these files.  Regenerate them only together with
a CHANGES.md entry that says why the output changed.
"""

from __future__ import annotations

import contextlib
import io
import os

HERE = os.path.dirname(os.path.abspath(__file__))

# verb -> the flags that follow the instance path
COMMANDS = {
    "analyze": ("--json",),
    "lattice": ("--format", "json"),
    "nagata": ("--json",),
    "check": (),
}


def instances():
    return sorted(f[:-len(".json")] for f in os.listdir(HERE) if f.endswith(".json"))


def report(name, verb):
    """(exit code, stdout) of one in-process CLI call on a golden instance."""
    from ringlat.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([verb, os.path.join(HERE, name + ".json"), *COMMANDS[verb]])
    return code, out.getvalue()


def expected_path(name, verb):
    return os.path.join(HERE, f"{name}.{verb}.out")


def main():
    for name in instances():
        for verb in COMMANDS:
            code, text = report(name, verb)
            if code != 0:
                raise SystemExit(f"{verb} {name}: exit code {code}")
            with open(expected_path(name, verb), "w") as fh:
                fh.write(text)
            print(f"wrote {os.path.basename(expected_path(name, verb))}")


if __name__ == "__main__":
    main()
