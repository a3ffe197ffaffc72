"""Every galmax name the benchmark harness reads must exist, so that deleting
a library name cannot silently break ``bench/run.py`` (its trace mode calls
names that no test or CLI path reaches)."""
import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def galmax_reads(source: str) -> set[tuple[str, str]]:
    """(module, name) for each ``<module>.<name>`` read in the source, where
    <module> is bound by ``from galmax import <module>`` or by
    ``<module> = importlib.import_module("galmax.<module>")``."""
    tree = ast.parse(source)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "galmax":
            modules.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "importlib.import_module"
              and isinstance(node.value.args[0], ast.Constant)
              and str(node.value.args[0].value).startswith("galmax.")):
            modules[node.targets[0].id] = node.value.args[0].value.removeprefix("galmax.")
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def test_every_galmax_name_the_bench_reads_exists():
    reads = set().union(*(galmax_reads(path.read_text()) for path in sorted(BENCH.glob("*.py"))))
    # both ways of binding a module are seen: workloads.py imports, probe.py calls import_module
    assert {("certify", "certify_maximal"), ("subgroups", "subgroup_signature_table")} <= reads
    missing = sorted(f"galmax.{module}.{name}" for module, name in reads
                     if not hasattr(importlib.import_module(f"galmax.{module}"), name))
    assert not missing, missing


def test_trace_mode_reads_prefix_slices_of_the_signature_rows(monkeypatch):
    # the certify workload's trace mode binary-searches prefix slices of
    # collect_signatures through the four level functions; on the first block
    # of trace ops it needs 86 signatures
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    bench = workloads.Certify(1)
    ops = bench.trace_ops()[: len(workloads.BLOCK)]
    assert [op.kind for op in ops] == ["anchor", "q", "field", "q", "obstruction", "q", "field", "q"]

    class Sample:
        def __init__(self, op):
            self.op = op

    assert bench.trace_extras([Sample(op) for op in ops])["certify.primes_needed"] == 86
