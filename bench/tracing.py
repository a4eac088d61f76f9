"""Spans around the package's public entry points, installed from outside.

``Tracer.install()`` rebinds each function in ``TARGETS`` in every loaded
``steercrit`` module that holds it, and patches constructors, methods,
classmethods and cached properties on their classes, so calls made through
any import path are timed. ``uninstall()`` restores the originals. Nothing
under ``src/`` is edited.

Per span name the tracer keeps exact call counts, inclusive time and self
time (inclusive minus the time covered by wrapped child calls), the
durations of single ``thresholds.sweep`` calls, and two counters: the bytes
each ``joint_distribution`` contraction reads and the ``state_diagnostics``
verdicts that are not valid. Every span, with name, start, end, parent and
item id, is kept in memory and written out by ``write_spans`` when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# span name -> (module, attribute); "Class" wraps the constructor,
# "Class.member" a method, classmethod or cached property, anything else a
# module-level function
TARGETS = {
    "linalg.eig_hermitian": ("linalg", "eig_hermitian"),
    "states.DensityMatrix": ("states", "DensityMatrix"),
    "states.state_diagnostics": ("states", "state_diagnostics"),
    "states.state_from_json": ("states", "state_from_json"),
    "observables.Observable": ("observables", "Observable"),
    "observables.projector_products": ("observables", "ObservablePairing.projector_products"),
    "inference.joint_distribution": ("inference", "joint_distribution"),
    "inference.expectation": ("inference", "expectation"),
    "inference.full_moments": ("inference", "full_moments"),
    "inference.MeasurementSettings.build": ("inference", "MeasurementSettings.build"),
    "families.family_state": ("families", "family_state"),
    "families.family_descriptor": ("families", "family_descriptor"),
    "criteria.evaluate_criterion": ("criteria", "evaluate_criterion"),
    "criteria.CriterionReport.to_json_dict": ("criteria", "CriterionReport.to_json_dict"),
    "closed_forms.closed_form_report": ("closed_forms", "closed_form_report"),
    "closed_forms.diff_rows": ("closed_forms", "diff_rows"),
    "oracle.enumerate_table": ("oracle", "enumerate_table"),
    "oracle.oracle_moments": ("oracle", "oracle_moments"),
    "oracle.audit_dump": ("oracle", "audit_dump"),
    "thresholds.sweep": ("thresholds", "sweep"),
    "thresholds.find_threshold": ("thresholds", "find_threshold"),
    "thresholds.sweep_csv_text": ("thresholds", "sweep_csv_text"),
    "cli.main": ("cli", "main"),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.sweep_durations: list[float] = []
        self.counters = {"computed_bytes": 0, "states.rejected": 0}
        self.item = -1
        self._names: list[str] = []
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._spans = {k: array("q") for k in ("id", "parent", "item", "name")}
        self._times = {k: array("d") for k in ("start", "end")}
        self._restore: list[tuple] = []

    @property
    def spans_total(self) -> int:
        return self._next_id

    def wrap(self, fn, name: str):
        name_id = len(self._names)
        self._names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.sweep_durations if name == "thresholds.sweep" else None
        counters = self.counters
        stack = self._stack
        spans, times = self._spans, self._times

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if durations is not None:
                    durations.append(elapsed)
                spans["id"].append(span_id)
                spans["parent"].append(parent)
                spans["item"].append(self.item)
                spans["name"].append(name_id)
                times["start"].append(start)
                times["end"].append(end)
            if name == "inference.joint_distribution":
                # rho plus the projector stack one contraction reads; both are
                # cached on their objects by now, so this opens no new span
                rho = args[0] if args else kwargs["rho"]
                pairing = args[1] if len(args) > 1 else kwargs["pairing"]
                counters["computed_bytes"] += (rho.matrix.nbytes
                                               + pairing.projector_products.nbytes)
            elif name == "states.state_diagnostics" and not result.get("valid"):
                counters["states.rejected"] += 1
            return result

        return traced

    def _rebind_function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        traced = self.wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "steercrit" and getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, traced)

    def _patch_member(self, cls, member: str, name: str) -> None:
        original = cls.__dict__[member]
        if isinstance(original, functools.cached_property):
            patched = functools.cached_property(self.wrap(original.func, name))
            patched.__set_name__(cls, member)
        elif isinstance(original, classmethod):
            patched = classmethod(self.wrap(original.__func__, name))
        else:
            patched = self.wrap(original, name)
        self._restore.append((cls, member, original))
        setattr(cls, member, patched)

    def install(self) -> None:
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(f"steercrit.{module_name}")
            owner, _, member = attr.partition(".")
            target = getattr(module, owner)
            if member:
                self._patch_member(target, member, name)
            elif isinstance(target, type):
                self._patch_member(target, "__init__", name)
            else:
                self._rebind_function(module, attr, name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def write_spans(self, path, origin: float) -> None:
        """Tab-separated spans in start order; times in seconds from origin."""
        ids = self._spans["id"]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\titem\tname\tstart_s\tend_s\n")
            for k in order:
                fh.write(
                    f"{ids[k]}\t{self._spans['parent'][k]}\t{self._spans['item'][k]}\t"
                    f"{self._names[self._spans['name'][k]]}\t"
                    f"{self._times['start'][k] - origin:.9f}\t"
                    f"{self._times['end'][k] - origin:.9f}\n"
                )
