"""In-memory span recording around the public functions of the ``pcp`` modules.

Nothing in the package is edited: ``instrument`` rebinds each named function,
in its home module and in every ``pcp`` module that imported it by name, to a
wrapper that records a span (name, start, end, parent span) and restores the
originals on exit. Spans stay in a list until ``Tracer.write`` dumps them.
"""

import contextlib
import functools
import json
import sys
import time
from typing import NamedTuple

# span name -> (home module, function name); the span names are the layer
# names used by the per-layer metrics
LAYER_FUNCTIONS = {
    "linalg.svt": ("pcp.linalg", "svt"),
    "linalg.soft_threshold": ("pcp.linalg", "soft_threshold"),
    "linalg.spectral_norm": ("pcp.linalg", "spectral_norm"),
    "solver.pcp_solve": ("pcp.solver", "pcp_solve"),
    "pcpm.load_matrix": ("pcp.pcpm", "load_matrix"),
    "pcpm.save_matrix": ("pcp.pcpm", "save_matrix"),
    "problems.make_instance": ("pcp.problems", "make_instance"),
    "certificate.certify_instance": ("pcp.certificate", "certify_instance"),
    "certificate.opnorm_support_tangent": ("pcp.certificate", "opnorm_support_tangent"),
    "certificate.project_support": ("pcp.certificate", "project_support"),
    "certificate.project_tangent": ("pcp.certificate", "project_tangent"),
    "certificate.partition_support_complement": ("pcp.certificate", "partition_support_complement"),
    "certificate.golfing_component": ("pcp.certificate", "golfing_component"),
    "certificate.neumann_component": ("pcp.certificate", "neumann_component"),
    "certificate.verify_certificate": ("pcp.certificate", "verify_certificate"),
    "certificate.check_golfing_bounds": ("pcp.certificate", "check_golfing_bounds"),
    "certificate.check_sign_bounds": ("pcp.certificate", "check_sign_bounds"),
    "harness.run_sweep": ("pcp.harness", "run_sweep"),
    "harness.emit_csv": ("pcp.harness", "emit_csv"),
    "harness.emit_heatmap": ("pcp.harness", "emit_heatmap"),
    "harness.write_sidecar": ("pcp.harness", "write_sidecar"),
}


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float  # perf_counter seconds
    end: float
    count: int  # iterations for solver.pcp_solve, else 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one process; worker processes keep their own."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn):
        # the one count read off a return value is the solver's iteration
        # count; return values are not kept, so no matrix outlives its call
        counted = name == "solver.pcp_solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            count = result.iterations if counted else 0
            self.spans.append(Span(span_id, parent, name, start, end, count))
            return result

        return traced

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s._asdict()) + "\n")


@contextlib.contextmanager
def _rebound(home: str, attr: str, make_replacement):
    """Rebind every ``pcp`` module attribute that is ``home.attr``."""
    original = getattr(sys.modules[home], attr)
    replacement = make_replacement(original)
    saved = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "pcp" or key.startswith("pcp.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                saved.append((mod, name))
                setattr(mod, name, replacement)
    try:
        yield
    finally:
        for mod, name in saved:
            setattr(mod, name, original)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route calls of every layer function through ``tracer``.

    Calls between modules (``solver`` calling ``svt``) and calls through the
    package namespace are both recorded.
    """
    with contextlib.ExitStack() as stack:
        for name, (home, attr) in LAYER_FUNCTIONS.items():
            stack.enter_context(
                _rebound(home, attr, functools.partial(tracer.wrap, name))
            )
        yield tracer


@contextlib.contextmanager
def tap(home: str, attr: str, sink: list):
    """Append every return value of ``home.attr`` to ``sink``; no timing."""

    def make(fn):
        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result

        return tapped

    with _rebound(home, attr, make):
        yield sink


def self_time(spans, name: str) -> float:
    """Summed duration of the named spans minus the time their children cover."""
    covered = {}
    for s in spans:
        covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return sum(s.duration - covered.get(s.id, 0.0) for s in spans if s.name == name)
