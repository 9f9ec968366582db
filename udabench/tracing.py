"""Spans around udalab calls, for the traced run only.

A span is (name, start, end, parent, query).  The benchmark opens one root
span per query and one child span per public udalab call it makes.  While
tracing is installed, the ``numpy.linalg`` entry points and the Dykstra
engine that ``uda_certify`` and the range scan share are replaced by
wrappers that record child spans, so a layer's self time excludes the
kernel time spent under it.  Nothing under ``src/`` is edited: the wrappers
are module attributes, restored when tracing is removed.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

LINALG = ("eigh", "eigvalsh", "svd", "pinv", "det", "lstsq", "qr")
ENGINE = "certify._dykstra"
ENGINE_MODULES = ("certify", "numrange")
SETUP_OBSERVABLES = "construction.uda_observables:setup"

# Span name -> per-layer time metric that its self time counts towards.
SELF_TIME = {
    "certify.uda_certify": "certify.uda_s",
    ENGINE: "certify.uda_s",
    "certify.udp_certify": "certify.udp_s",
    "numrange.uniqueness_consistency_scan": "numrange.scan_s",
    "numrange.boundary_sweep": "numrange.sweep_s",
    "construction.uda_observables": "construction.uda_observables_s",
    SETUP_OBSERVABLES: "construction.setup_observables_s",
    "construction.family_signature_check": "construction.signature_check_s",
    "rdm.uda_rank_test": "rdm.rank_test_s",
    "rdm.mixed_uda_rank_test": "rdm.mixed_rank_test_s",
    "symmetry.SymmetryGroup.generate": "symmetry.group_build_s",
    "symmetry.average_projection": "symmetry.average_projection_s",
    "symmetry.udp_implies_uda_via_symmetry": "symmetry.star_certificate_s",
    "symmetry.bicommutant_check": "symmetry.bicommutant_s",
    "cli.dispatch:construct": "cli.construct_s",
    "cli.dispatch:rdm-check": "cli.rdm_check_s",
    "cli.dispatch:symmetry": "cli.symmetry_s",
    "numpy.linalg.eigh": "linalg.eigh_s",
    "numpy.linalg.svd": "linalg.svd_s",
}


class Tracer:
    """In-memory span recorder with install/remove of the kernel wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.query = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent, self.query])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    @contextlib.contextmanager
    def setup_span(self, package):
        """Trace set-up, with the ``uda_observables`` calls it makes as children."""
        original = package.uda_observables
        package.uda_observables = self.wrap(SETUP_OBSERVABLES, original)
        index = self.open("setup")
        try:
            yield
        finally:
            self.close(index)
            package.uda_observables = original

    def _kernel(self, entry: str, fn):
        name = f"numpy.linalg.{entry}"

        def traced(a, *args, **kwargs):
            if not self._stack:  # the checker's own calls are not udalab's
                return fn(a, *args, **kwargs)
            self.counts[f"linalg.{entry}_calls"] += 1
            if entry == "eigh":
                shape = np.shape(a)
                self.counts["linalg.eigh_matrices"] += int(np.prod(shape[:-2], dtype=int))
            index = self.open(name)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self.close(index)
        return traced

    def _engine(self, fn):
        def traced(starts, affine, cfg):
            index = self.open(ENGINE)
            try:
                run = fn(starts, affine, cfg)
            finally:
                self.close(index)
            streams = len(run["residuals"])
            capped = 0
            if run["iterations"] >= cfg.max_iterations:
                capped = int(np.sum(run["residuals"] > cfg.constraint_tol))
            self.counts["certify.streams"] += streams
            self.counts["certify.capped_streams"] += capped
            return run
        return traced

    def install(self) -> None:
        for entry in LINALG:
            original = getattr(np.linalg, entry)
            self._saved.append((np.linalg, entry, original))
            setattr(np.linalg, entry, self._kernel(entry, original))
        for module_name in ENGINE_MODULES:
            module = importlib.import_module(f"udalab.{module_name}")
            original = module._dykstra
            self._saved.append((module, "_dykstra", original))
            module._dykstra = self._engine(original)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time covered by direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start", "end", "parent", "query"], "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")))
