"""galmax benchmark: run one workload, check every output, print the metrics.

    python3 bench/run.py --workload {certify,box-scan,group-audit,all} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-test

One process, one client, closed loop: each op starts when the previous one
has returned, and no worker threads or pools are used.  Child processes (the
set-up probes and the cold CLI requests) run one at a time while this
process waits.  The last line of standard output is the result object; the
line before it is a detailed report, also written under ``bench/out/``.
See bench/README.md for what each workload and metric means.
"""
from __future__ import annotations

import os

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_PINS:  # before anything loads numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3  # this process plus two fresh probes
CHILD_TIMEOUT_S = 150

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_s": "s", "op_tail_s": "s",
             "work_per_s": "1/s", "cold_cli_s": "s"}

LAYER_UNITS = {
    "ecff.point_count.calls": "count", "ecff.point_count.s": "s", "ecff.cubic_type.s": "s",
    "ecff.psi3_type.s": "s", "ecff.cm_screen.s": "s", "ecff.batch_curve_data.s": "s",
    "ecff.batch_curve_data.curve_primes": "count",
    "certify.collect_signatures.s": "s", "certify.signatures_collected": "count",
    "certify.primes_needed": "count", "certify.useful_ratio": "ratio", "certify.levels.s": "s",
    "certify.serre_verdict_from_signatures.s": "s",
    "sieve.batch_signatures.s": "s", "sieve.signatures_built": "count", "sieve.batch_rootless_split.s": "s",
    "subgroups.table_build_s.m4": "s", "subgroups.table_build_s.m8": "s", "subgroups.table_build_s.m9": "s",
    "subgroups.table_entries.m4": "count", "subgroups.table_entries.m8": "count",
    "subgroups.table_entries.m9": "count", "subgroups.subgroup_lattice.s": "s", "subgroups.cayley_table.s": "s",
    "modgroup.closure_codes.calls": "count", "modgroup.closure_codes.s": "s",
    "modgroup.enumerate_group.s": "s", "modgroup.conjugacy_classes.s": "s",
    "audits.coverage.m5.s": "s", "audits.coverage.m8.s": "s", "audits.coverage.m9.s": "s",
    "audits.coverage.m12.s": "s", "audits.coverage.m16.s": "s", "audits.reduction.m8.s": "s",
    "audits.reduction.m9.s": "s", "audits.reduction.m16.s": "s", "audits.goursat.m12.s": "s",
    "audits.nonvacuous_checks": "count", "audits.subgroups_tested": "count",
    "numfield.degree_one_primes.calls": "count", "numfield.degree_one_primes.s": "s",
    "numfield.reduce_elem.calls": "count", "numfield.reduce_elem.s": "s",
    "numfield.sqrt_cyclotomic_certificate.s": "s", "numfield.cbrt_cyclotomic_certificate.s": "s",
    "numfield.mu_n_membership.s": "s", "numfield.cyclotomic_intersection_certificate.s": "s",
    "nt.primes_up_to.calls": "count", "nt.legendre.calls": "count", "nt.kronecker.calls": "count",
    "cli.import_s": "s", "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}

# Time of one calibration piece at the reference machine speed (a quiet moment
# on the 2-vCPU Xeon VM the bounds were tuned on); end-to-end times are scaled to it.
CALIBRATION_REF_S = 0.0105

# per-modulus audit metrics: metric stem -> traced function
AUDIT_SPANS = {"coverage": "audits.coverage_implies_sl2_audit", "reduction": "audits.reduction_lemma_audit",
               "goursat": "audits.goursat_audit"}


@dataclass
class Sample:
    op: object
    seconds: float
    output: object
    problems: list


def _calibration_piece() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Machine-speed samples taken between measurements.

    On a shared host the same code runs up to 1.8x slower for minutes at a
    time.  A fixed pure-Python loop, timed next to each measurement, tracks
    that; ``factor(phase)`` converts the phase's wall times to seconds at the
    reference speed (CALIBRATION_REF_S per piece).
    """

    def __init__(self):
        self.pieces: dict[str, list[float]] = {}

    def sample(self, phase: str, seconds: float) -> None:
        pieces = self.pieces.setdefault(phase, [])
        end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            _calibration_piece()
            now = time.perf_counter()
            pieces.append(now - t0)
            if now >= end:
                return

    def factor(self, phase: str) -> float:
        return CALIBRATION_REF_S / statistics.mean(self.pieces[phase])


def calibration_seconds(op_seconds: float) -> float:
    """Speed sample taken after an op: a tenth of its time, within [0.05, 1] s."""
    return min(1.0, max(0.05, 0.1 * op_seconds))


def run_op(w, op) -> Sample:
    """Time one call into galmax and gate its output; a raise is a failed op."""
    w.before(op)
    t0 = time.perf_counter()
    try:
        output = w.execute(op)
    except Exception as exc:  # the loop must go on; the failure is counted
        return Sample(op, time.perf_counter() - t0, None, [f"raised {exc!r}"])
    seconds = time.perf_counter() - t0
    return Sample(op, seconds, output, w.check(op, output))


def timed_loop(w, seconds: float, speed: SpeedProbe) -> list[Sample]:
    """Run whole rounds of the seeded stream (at least one) while the next
    round is expected to end within ``seconds`` of op time."""
    samples = []
    speed.sample("ops", 0.5)
    for op in w.stream():
        samples.append(run_op(w, op))
        speed.sample("ops", calibration_seconds(samples[-1].seconds))
        rounds, partial = divmod(len(samples), w.ops_per_round)
        elapsed = sum(s.seconds for s in samples)
        if not partial and elapsed + elapsed / rounds > seconds:
            return samples
    return samples


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_samples(target: str, first: dict | None, speed: SpeedProbe) -> list[dict]:
    """Set-up timings from fresh processes (``first`` is this process's own)."""
    samples = [first] if first else []
    while len(samples) < SETUP_SAMPLES:
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), target], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        speed.sample(f"setup-{target}", 0.3)
    return samples


def cold_cli(w, speed: SpeedProbe) -> list[Sample]:
    """Fresh ``galmax`` processes for the workload's CLI requests, gated like ops."""
    samples = []
    speed.sample("cli", 0.3)
    for argv, check in w.cli_requests():
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "galmax.cli", *argv], cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            samples.append(Sample(argv, time.perf_counter() - t0, None, ["timed out"]))
            continue
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        else:
            problems = check(json.loads(proc.stdout))
        samples.append(Sample(argv, seconds, None, problems))
        speed.sample("cli", 0.3)
    return samples


def environment(seed: int) -> dict:
    import numpy
    import sympy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                  if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "git_commit": commit or "unavailable (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "thread_pins": {v: os.environ[v] for v in THREAD_PINS},
        "seed": seed,
    }


def untraced_run(w, seconds: float, setup: list[dict], speed: SpeedProbe) -> tuple[dict, dict, list[Sample]]:
    samples = timed_loop(w, seconds, speed)
    cli = cold_cli(w, speed)
    raw, detail = w.summarize(samples)
    raw["setup_s"] = statistics.median(s["setup_s"] for s in setup)
    raw["cold_cli_s"] = statistics.median(s.seconds for s in cli)
    factors = {"ops": speed.factor("ops"), "cli": speed.factor("cli"), "setup": speed.factor(f"setup-{w.name}")}
    e2e = {
        "setup_s": raw["setup_s"] * factors["setup"],
        "op_p50_s": raw["op_p50_s"] * factors["ops"],
        "op_tail_s": raw["op_tail_s"] * factors["ops"],
        "work_per_s": raw["work_per_s"] / factors["ops"],
        "cold_cli_s": raw["cold_cli_s"] * factors["cli"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail.update(raw_wall_clock=raw, speed_factors=factors, setup_s_samples=[s["setup_s"] for s in setup],
                  cold_cli_s_samples=[s.seconds for s in cli], cold_cli_requests=[s.op for s in cli])
    return e2e, detail, samples + cli


def traced_run(w, setup: list[dict], out_stem: str) -> tuple[dict, dict, list[Sample]]:
    import spans

    ops = w.trace_ops()
    untraced = [run_op(w, op) for op in ops]
    tracer = spans.Tracer()
    traced = []
    with tracer.instrument():
        for i, op in enumerate(ops):
            tracer.op = i
            traced.append(run_op(w, op))
    tracer.op = None
    spans_path = OUT / f"{out_stem}-spans.jsonl"
    tracer.write_spans(spans_path)

    t_plain = sum(s.seconds for s in untraced)
    t_traced = sum(s.seconds for s in traced)
    m = {name: 0 for name in LAYER_UNITS}
    for name in ("ecff.point_count", "modgroup.closure_codes", "numfield.degree_one_primes",
                 "numfield.reduce_elem", "nt.primes_up_to", "nt.legendre", "nt.kronecker"):
        m[f"{name}.calls"] = tracer.calls[name]
        if f"{name}.s" in m:
            m[f"{name}.s"] = tracer.inclusive[name]
    for name in ("ecff.cubic_type", "ecff.psi3_type", "ecff.cm_screen", "ecff.batch_curve_data",
                 "certify.levels", "certify.serre_verdict_from_signatures", "sieve.batch_rootless_split",
                 "subgroups.subgroup_lattice", "subgroups.cayley_table", "modgroup.enumerate_group",
                 "modgroup.conjugacy_classes", "numfield.sqrt_cyclotomic_certificate",
                 "numfield.cbrt_cyclotomic_certificate", "numfield.mu_n_membership",
                 "numfield.cyclotomic_intersection_certificate"):
        m[f"{name}.s"] = tracer.inclusive[name]
    for name in ("certify.collect_signatures", "sieve.batch_signatures"):  # self time
        m[f"{name}.s"] = tracer.self_time[name]
    m.update(tracer.counts)
    m.update(w.trace_extras(traced))
    for level in ("4", "8", "9"):
        builds = [s["tables"][level] for s in setup if level in s["tables"]]
        if builds:
            m[f"subgroups.table_build_s.m{level}"] = statistics.median(b["s"] for b in builds)
            m[f"subgroups.table_entries.m{level}"] = builds[0]["entries"]
    for i, op in enumerate(ops):
        if op.kind == "audit":
            for stem, fn in AUDIT_SPANS.items():
                key = f"audits.{stem}.m{op.inputs[0]}.s"
                if key in m:
                    m[key] = tracer.span_seconds(fn, i)
    m["cli.import_s"] = statistics.median(s["import_s"] for s in setup_samples("cli", None, SpeedProbe()))
    m["trace.overhead_s"] = t_traced - t_plain
    m["trace.overhead_ratio"] = t_traced / t_plain - 1
    detail = {"trace_ops": len(ops), "untraced_s": t_plain, "traced_s": t_traced, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return m, detail, untraced + traced


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    speed = SpeedProbe()
    speed.sample(f"setup-{name}", 0.3)
    first = probe.timed_setup(name)
    speed.sample(f"setup-{name}", 0.3)
    setup = setup_samples(name, first, speed)
    import workloads

    w = workloads.WORKLOADS[name](seed)
    w.warm_up()
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    if traced:
        metrics, detail, samples = traced_run(w, setup, stem)
        units = LAYER_UNITS
    else:
        metrics, detail, samples = untraced_run(w, seconds, setup, speed)
        units = E2E_UNITS
    failed = sum(1 for s in samples if s.problems)
    report = {
        "workload": name, "trace": int(traced), "seconds": seconds, "environment": environment(seed),
        "attempted": len(samples), "failed": failed, "ops_failed_ratio": failed / len(samples),
        "failures": [{"op": repr(s.op)[:200], "problems": s.problems[:3]} for s in samples if s.problems][:10],
        "metrics": metrics, "detail": detail,
    }
    text = json.dumps(report, default=str)
    (OUT / f"{stem}.json").write_text(text + "\n")
    print(text)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in turn, each in its own process; one combined result line."""
    import workloads  # noqa: F401  (fails early when galmax is missing)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("certify", "box-scan", "group-audit"):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(traced))],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(result)}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def self_test() -> int:
    """Show at a tiny size that the certify gate fails an op whose reference
    status is corrupted, or whose report carries a tampered a_p."""
    import workloads

    w = workloads.Certify(seed=0)
    q, fld = w.anchors

    class Tampered(workloads.Certify):
        def execute(self, op):
            report = super().execute(op)
            levels = report["conditions"]["a"] if op.kind == "field" else report["levels"]
            levels["5"]["witnesses"][0]["ap"] += 2
            return report

    tampered = Tampered(seed=0)
    bad_ref = workloads.Op(q.kind, q.inputs, {**q.ref, "final": "inconclusive"})
    cases = [
        ("reference Q anchor passes", w, q, False),
        ("reference field anchor passes", w, fld, False),
        ("corrupted reference status fails", w, bad_ref, True),
        ("tampered a_p over Q fails", tampered, q, True),
        ("tampered a_p over the field fails", tampered, fld, True),
    ]
    ok = True
    for label, workload, op, should_fail in cases:
        sample = run_op(workload, op)
        good = bool(sample.problems) == should_fail
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  {label}: {sample.problems[:1]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("certify", "box-scan", "group-audit", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "galmax" / "__init__.py").is_file():
        print(f"galmax sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
