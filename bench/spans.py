"""In-memory span recorder that instruments galmax's layers from outside.

``Tracer.instrument()`` wraps every public module-level function of the
layer modules, plus the ``SmallGroupTable`` constructor and lattice method,
and rebinds every galmax module attribute that holds one of them, so names
imported by value (``certify.subgroup_signature_table``) are traced as well.
Nothing under ``src/`` is edited; leaving the ``with`` block restores every
original binding.

Each call adds to per-name totals: calls, inclusive seconds (outermost
activation only, so recursion is not double counted) and self seconds
(inclusive minus the time of traced callees).  Calls not listed in ``HOT``
also record a span ``(name, start, end, parent span id, op id)``; the
per-prime and per-trial kernels in ``HOT`` keep totals only.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("nt", "ecff", "modgroup", "subgroups", "audits", "numfield", "certify", "sieve", "cli")

HOT = frozenset({
    "ecff.point_count", "ecff.cubic_type", "ecff.psi3_type", "ecff.quadratic_character_table",
    "ecff.discriminant", "ecff.validate", "ecff.j_invariant", "ecff.batch_curve_data",
    "nt.legendre", "nt.kronecker", "nt.primes_up_to", "nt.rational_roots_of_monic_cubic",
    "nt.x_pow_mod", "nt.poly_mulmod", "nt.is_perfect_square", "nt.factorint",
    "numfield.reduce_elem", "numfield.degree_one_primes",
    "modgroup.closure_codes", "modgroup.mat_from_code", "modgroup.identity", "modgroup.mat",
    "modgroup.decode", "modgroup.encode", "modgroup.mul_codes", "modgroup.mul_codes_left",
    "modgroup.mul_code_arrays", "modgroup.conj_codes", "modgroup.det_of_codes",
    "modgroup.trace_of_codes", "modgroup.reduce_codes", "modgroup.sl2_order", "modgroup.gl2_order",
    "modgroup.sl2_generators", "modgroup.gl2_generators",
    "sieve.batch_rootless_split",
    "certify.certify_mod_ell", "certify.certify_mod_small", "certify.signature_elimination",
    "certify.quadratic_entanglement_check", "certify.integer_model",
    "certify.serre_verdict_from_signatures",
})

# calls of these count as one stage: only the outermost one adds to the group total
GROUPS = {
    "certify.certify_mod_ell": "certify.levels",
    "certify.certify_mod_small": "certify.levels",
    "certify.signature_elimination": "certify.levels",
    "certify.quadratic_entanglement_check": "certify.levels",
}

# counters read off a traced call's arguments or result
COUNTERS = {
    "certify.collect_signatures": ("certify.signatures_collected", lambda args, result: len(result)),
    "sieve.batch_signatures": ("sieve.signatures_built", lambda args, result: sum(map(len, result))),
    "ecff.batch_curve_data": ("ecff.batch_curve_data.curve_primes", lambda args, result: len(args[1])),
}

METHODS = (
    ("subgroups", "SmallGroupTable", "__init__", "subgroups.cayley_table"),
    ("subgroups", "SmallGroupTable", "subgroup_lattice", "subgroups.subgroup_lattice"),
)


def _is_traceable(mod, name, obj) -> bool:
    if name.startswith("_") or isinstance(obj, type) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == mod.__name__


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[list] = []  # frames: [child seconds, span id for children]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        hot = name in HOT
        group = GROUPS.get(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            if hot:
                span_id = parent_id
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id]
            active = tracer._active
            outer = active[name] == 0
            group_outer = group is not None and active[group] == 0
            active[name] += 1
            if group is not None:
                active[group] += 1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                active[name] -= 1
                if group is not None:
                    active[group] -= 1
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                tracer.calls[name] += 1
                tracer.self_time[name] += dur - frame[0]
                if outer:
                    tracer.inclusive[name] += dur
                if group_outer:
                    tracer.inclusive[group] += dur
                if not hot:
                    tracer.spans.append((name, t0, t1, parent_id, tracer.op, span_id))
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the layers for the duration of the block, then restore them."""
        modules = [importlib.import_module(f"galmax.{layer}") for layer in LAYERS]
        all_galmax = [m for k, m in list(sys.modules.items()) if k == "galmax" or k.startswith("galmax.")]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.split(".", 1)[1]
            for name, obj in vars(mod).items():
                if _is_traceable(mod, name, obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        undo = []
        for mod in all_galmax:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)][1])
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(importlib.import_module(f"galmax.{mod_name}"), cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span_name, original))
        try:
            yield self
        finally:
            for owner, name, obj in reversed(undo):
                setattr(owner, name, obj)

    # -- reading ----------------------------------------------------------

    def span_seconds(self, name: str, op) -> float:
        """Summed duration of the spans called ``name`` recorded during one op
        (for functions that do not call themselves)."""
        return sum(end - start for n, start, end, _, o, _ in self.spans if n == name and o == op)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, span_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
