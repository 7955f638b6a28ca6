"""Benchmark-side tracing: spans around the public functions of each layer.

Nothing here edits ``src/``.  :class:`LayerTracer` replaces each public
function named in :data:`FUNCTIONS` with a wrapper in every ``repro.*``
module that holds it, and each method in :data:`METHODS` on its class.
A wrapper records one span (name, start, end, parent, job) in memory,
and so does each full garbage collection (``runtime.gc``);
:meth:`LayerTracer.uninstall` puts every original back.  A layer's self
time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import re
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Tuple

#: (span name, module, function) — rebound wherever ``repro.*`` holds it.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("pipeline.optimize", "repro.pipeline.artemis", "optimize"),
    ("dsl.parse", "repro.dsl.parser", "parse"),
    ("ir.build_ir", "repro.ir.stencil", "build_ir"),
    ("codegen.lower", "repro.codegen.generator", "lower"),
    ("codegen.emit_cuda", "repro.codegen.cuda_emitter", "emit_cuda"),
    ("profiling.advise", "repro.profiling.advisor", "advise"),
    ("tuning.deep_tune", "repro.tuning.deeptuning", "deep_tune"),
    ("tuning.fusion_schedule", "repro.tuning.deeptuning", "fusion_schedule"),
    ("tuning.fission", "repro.tuning.fission", "generate_fission_candidates"),
    ("gpu.simulate", "repro.gpu.simulator", "simulate"),
    ("lint.certify", "repro.lint.rules_transform", "certify_plan_transformations"),
    ("lint.prescreen", "repro.lint.rules_plan", "plan_rejection"),
    ("lint.prescreen", "repro.lint.rules_plan", "fusion_rejection"),
    ("obs.explain", "repro.obs.explain", "build_explain"),
)

#: (span name, module, class, methods) — patched on the class.
METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("tuning.tune", "repro.tuning.hierarchical", "HierarchicalTuner", ("tune",)),
    (
        "evaluator.evaluate_batch",
        "repro.tuning.evaluator",
        "PlanEvaluator",
        ("evaluate_batch", "evaluate_spill_free_batch"),
    ),
    (
        "gpu.price_family",
        "repro.gpu.pricing",
        "FamilyStructure",
        ("price", "price_spill_free"),
    ),
    (
        "resilience.journal.open",
        "repro.resilience.checkpoint",
        "TuningJournal",
        ("__init__",),
    ),
    (
        "resilience.journal.record",
        "repro.resilience.checkpoint",
        "TuningJournal",
        ("record_candidate", "record_degree"),
    ),
)

#: Modules whose cumulative import time is reported (``-X importtime``).
#: ``repro.distrib`` is left out: ``repro.cli`` imports it only when a
#: distributed run asks for it.
IMPORT_MODULES = (
    "numpy",
    "networkx",
    "repro.codegen.cuda_emitter",
    "repro.gpu.executor",
    "repro.lint",
    "repro.obs",
    "repro.resilience",
)


class LayerTracer:
    """In-memory span recorder installed around the layers' public calls."""

    def __init__(self):
        #: one ``[name, start, end, parent_index, job]`` list per span
        self.spans: List[list] = []
        self.job = None
        #: wrappers record only while this is true (verification runs
        #: with the wrappers installed but must not count as work)
        self.active = False
        self.lookup_hits = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            record = [
                name, perf_counter(), 0.0, stack[-1] if stack else -1,
                tracer.job,
            ]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    @contextmanager
    def job_span(self, job):
        """Root span of one job; every span opened inside carries ``job``."""
        self.job = job
        self._stack.append(len(self.spans))
        record = ["job", perf_counter(), 0.0, -1, job]
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            self.job = None

    def _on_gc(self, phase: str, info: dict) -> None:
        """Record each full (generation 2) collection as a ``runtime.gc`` span.

        A collection pauses whichever layer is running; as a child span
        it leaves that layer's self time, so the cost of a large heap
        shows in one place.
        """
        if not self.active or info["generation"] != 2:
            return
        stack = self._stack
        if phase == "start":
            parent = stack[-1] if stack else -1
            stack.append(len(self.spans))
            self.spans.append(["runtime.gc", perf_counter(), 0.0, parent, self.job])
        elif stack and self.spans[stack[-1]][0] == "runtime.gc":
            self.spans[stack.pop()][2] = perf_counter()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        gc.callbacks.append(self._on_gc)
        for name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original)
            for module in _repro_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, module_name, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for method in methods:
                self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
        from repro.resilience.checkpoint import TuningJournal

        lookup = TuningJournal.__dict__["lookup"]
        tracer = self

        @functools.wraps(lookup)
        def counted_lookup(journal, key):
            found = lookup(journal, key)
            if tracer.active:
                tracer.lookup_hits += found is not None
            return found

        self._patch(TuningJournal, "lookup", counted_lookup)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layer_totals(
        self, scale: Dict[object, float]
    ) -> Dict[str, Tuple[float, float, int]]:
        """``name -> (self seconds, total seconds, calls)`` over all spans.

        Each span's seconds are multiplied by ``scale[its job]``, the
        job's speed calibration factor.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, list] = {}
        for index, (name, start, end, _, job) in enumerate(self.spans):
            entry = totals.setdefault(name, [0.0, 0.0, 0])
            entry[0] += ((end - start) - child[index]) * scale[job]
            entry[1] += (end - start) * scale[job]
            entry[2] += 1
        return {name: tuple(entry) for name, entry in totals.items()}

    def write_chrome(self, path: str) -> None:
        """Write the spans as a chrome://tracing (Perfetto) JSON file."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"job": job},
            }
            for name, start, end, _, job in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Milliseconds per module from ``-X importtime`` output.

    ``total`` is the sum of every module's self time; each module in
    :data:`IMPORT_MODULES` gets its cumulative time (0 when not imported).
    """
    total_us = 0
    cumulative: Dict[str, int] = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        total_us += int(match.group(1))
        cumulative.setdefault(match.group(4), int(match.group(2)))
    times = {"total": total_us / 1e3}
    for module in IMPORT_MODULES:
        times[module] = cumulative.get(module, 0) / 1e3
    return times


def import_times(env: Dict[str, str], samples: int) -> Dict[str, float]:
    """Median ``-X importtime`` breakdown of ``import repro.cli``."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
