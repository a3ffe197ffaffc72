"""Time one-time set-up in a fresh process: import plus signature-table builds.

    python3 bench/probe.py {certify,box-scan,group-audit,cli}

prints one JSON object: setup_s, import_s and, per table level, its build
time and entry count.  ``run.py`` calls ``timed_setup`` directly for the
measuring process itself and runs this file for the extra samples.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# target -> (modules imported, signature-table levels built)
SETUP = {
    "certify": (("galmax", "galmax.certify", "galmax.numfield"), (4, 8, 9)),
    "box-scan": (("galmax", "galmax.sieve"), (4, 8, 9)),
    "group-audit": (("galmax", "galmax.audits"), ()),
    "cli": (("galmax.cli",), ()),
}


def timed_setup(target: str) -> dict:
    modules, levels = SETUP[target]
    t0 = time.perf_counter()
    for name in modules:
        importlib.import_module(name)
    import_s = time.perf_counter() - t0
    tables = {}
    if levels:
        subgroups = importlib.import_module("galmax.subgroups")
        for m in levels:
            t = time.perf_counter()
            table = subgroups.subgroup_signature_table(m)
            tables[str(m)] = {"s": time.perf_counter() - t, "entries": len(table.entries)}
    return {"setup_s": time.perf_counter() - t0, "import_s": import_s, "tables": tables}


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(json.dumps(timed_setup(sys.argv[1])))
