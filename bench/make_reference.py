"""Regenerate bench/reference.json: the certify input pool and its statuses.

    python3 bench/make_reference.py

The pool is drawn from a fixed seed, so it is the same on every machine; a
workload seed only chooses which pool entries a run certifies and in what
order.  Each entry stores the final and per-level verdict statuses galmax
gives it, which ``workloads.Certify.check`` compares against.  Rerun this
only when a change is meant to alter verdict statuses, and say so.
"""
from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from galmax import errors  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 2008
N_GENERIC, N_OBSTRUCTION, N_FIELD = 200, 48, 80
COEFF_BOUND = 10**4
FIELD_ANCHOR = {"kind": "anchor", "f": [1, 1, 0, 1], "a": [0, 1296], "b": [0, 0, 11664]}


def nonsingular(a: int, b: int) -> bool:
    return 4 * a**3 + 27 * b * b != 0


def q_entries(rng: random.Random) -> tuple[list, list]:
    generic = {(1, 1)}
    q = [{"kind": "anchor", "a": 1, "b": 1}]
    while len(q) <= N_GENERIC:
        a, b = rng.randint(-COEFF_BOUND, COEFF_BOUND), rng.randint(-COEFF_BOUND, COEFF_BOUND)
        if nonsingular(a, b) and (a, b) not in generic:
            generic.add((a, b))
            q.append({"kind": "generic", "a": a, "b": b})
    seen, obstruction = set(), []
    kinds = ("2-torsion", "cm-j0", "cm-j1728")
    while len(obstruction) < N_OBSTRUCTION:
        kind = kinds[len(obstruction) % 3]
        if kind == "2-torsion":  # (x - r)(x^2 + r x + s) = x^3 + (s - r^2) x - r s
            r, s = rng.randint(-60, 60), rng.randint(-600, 600)
            a, b = s - r * r, -r * s
        elif kind == "cm-j0":
            a, b = 0, rng.randint(1, COEFF_BOUND) * rng.choice((-1, 1))
        else:
            a, b = rng.randint(1, COEFF_BOUND) * rng.choice((-1, 1)), 0
        if max(abs(a), abs(b)) <= COEFF_BOUND and nonsingular(a, b) and (a, b) not in seen:
            seen.add((a, b))
            obstruction.append({"kind": kind, "a": a, "b": b})
    return q, obstruction


def field_entries(rng: random.Random) -> list:
    out, seen = [dict(FIELD_ANCHOR)], set()
    while len(out) <= N_FIELD:
        d = rng.choice((2, 3, 4))
        f = [rng.randint(-3, 3) for _ in range(d)] + [1]
        a = [rng.randint(-4, 4) for _ in range(d)]
        b = [rng.randint(-4, 4) for _ in range(d)]
        key = (tuple(f), tuple(a), tuple(b))
        if key in seen:
            continue
        try:
            op = workloads.Op("field", key)
            workloads.Certify.curve(op)  # irreducible f, nonsingular curve
        except (errors.InvalidInputError, errors.SingularCurveError):
            continue
        seen.add(key)
        out.append({"kind": "generic", "f": f, "a": a, "b": b})
    return out


def main() -> int:
    rng = random.Random(POOL_SEED)
    q, obstruction = q_entries(rng)
    fields = field_entries(rng)
    t0 = time.perf_counter()
    for e in q + obstruction:
        report = workloads.Certify.execute(workloads.Op("q", (e["a"], e["b"])))
        e["statuses"] = workloads.q_statuses(report)
    for e in fields:
        report = workloads.Certify.execute(workloads.Op("field", (tuple(e["f"]), tuple(e["a"]), tuple(e["b"]))))
        e["statuses"] = workloads.field_statuses(report)
    p = workloads.CERTIFY_PARAMS
    lines = ['{"about": "certify input pool (pool seed %d) and the verdict statuses galmax gives each entry",'
             % POOL_SEED,
             f' "params": {{"prime_bound": {p.prime_bound}, "l_max": {p.l_max}}},']
    for i, (key, entries) in enumerate((("q", q), ("obstruction", obstruction), ("field", fields))):
        body = ",\n  ".join(json.dumps(e, sort_keys=True) for e in entries)
        lines.append(f' "{key}": [\n  {body}\n ]' + ("," if i < 2 else ""))
    lines.append("}")
    workloads.REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(q) + len(obstruction) + len(fields)} entries in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
