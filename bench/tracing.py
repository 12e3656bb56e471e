"""Spans around the public functions of each layer, from outside the package.

``Tracer.installed()`` replaces every module binding of each function
listed in ``LAYERS`` with a wrapper (``eigh``, for one, is bound in
``spectral``, ``nodal``, ``morse``, ``linkage``, ``transversality``,
``families``, ``cli`` and the package root) and puts the originals back
on exit.  Each call records a span: name, start, end, parent span and
job id, thread, and the thread's CPU clock at both ends.  Spans live
in flat typed arrays in memory and are written out once, when the run
ends.

Calls made on worker threads (the signing sweep uses a thread pool) get
the main thread's innermost open span as parent.  Self time is measured
on the thread CPU clock: two pool threads contend for the interpreter
lock, and on the wall clock each would be charged the other's work.  A
call to a function that is already open on the same thread
(``dumps_canonical`` recurses) folds into the outermost span instead of
opening its own.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from array import array

import numpy as np

#: Layer module -> public functions recorded as spans.
LAYERS = {
    "cli": ("main",),
    "serialize": ("dumps_canonical",),
    "nodal": ("average_surplus_distribution", "nodal_count"),
    "operators": ("gauge_classes_of_signings", "signs_for_index",
                  "magnetic_action"),
    "spectral": ("eigh", "multiplicity"),
    "graphs": ("connected_components", "cycle_basis"),
    "morse": ("critical_scan", "gradient_coords", "hessian_eigenvalue",
              "verify_index_equals_surplus"),
    "linkage": ("analyze_exceptional", "build_exceptional_fixture",
                "sample_configuration"),
    "transversality": ("is_transverse_at",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items()
                   for fn in fns)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu_start = array("d")
        self.cpu_end = array("d")
        self.thread = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        #: UTF-8 bytes returned by outermost ``dumps_canonical`` calls.
        self.bytes_out = 0
        #: Switching classes returned by ``gauge_classes_of_signings``.
        self.classes_found = 0
        self.patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _wrap(self, fn, nid: int):
        tracer = self
        after = _AFTER.get(self.names[nid])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if any(active == nid for _, active in stack):
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            else:
                try:
                    parent = tracer._main_stack[-1][0]
                except IndexError:
                    parent = -1
            with tracer._lock:
                idx = len(tracer.name)
                tracer.name.append(nid)
                tracer.parent.append(parent)
                tracer.job.append(tracer.job_id)
                tracer.thread.append(threading.get_ident())
                tracer.end.append(0.0)
                tracer.cpu_end.append(0.0)
                tracer.cpu_start.append(time.thread_time())
                tracer.start.append(time.perf_counter())
            stack.append((idx, nid))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.cpu_end[idx] = time.thread_time()
                stack.pop()
            if after is not None:
                after(tracer, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the listed functions; restore on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "magnodal"
                                         or name.startswith("magnodal."))]
        try:
            for nid, span in enumerate(self.names):
                layer, fn_name = span.split(".")
                home = importlib.import_module(f"magnodal.{layer}")
                original = getattr(home, fn_name, None)
                if not callable(original):
                    continue
                wrapped = self._wrap(original, nid)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self.patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(self.patched):
                setattr(mod, attr, original)
            self.patched.clear()

    # -- derived numbers -----------------------------------------------------

    def arrays(self) -> dict:
        out = {"names": np.array(self.names)}
        for key in ("name", "parent", "job", "thread", "start", "end",
                    "cpu_start", "cpu_end"):
            out[key] = np.array(getattr(self, key))
        return out

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())


def self_times(a: dict) -> np.ndarray:
    """Per span: thread CPU time minus that of its same-thread children.

    A child on another thread (a pool worker under the sweep) runs
    beside its parent rather than inside it, so it is not subtracted.
    """
    own = a["cpu_end"] - a["cpu_start"]
    parent = a["parent"]
    kids = np.nonzero(parent >= 0)[0]
    kids = kids[a["thread"][kids] == a["thread"][parent[kids]]]
    covered = np.bincount(parent[kids], weights=own[kids],
                          minlength=own.size)
    return own - covered


def inside(a: dict, span: str) -> np.ndarray:
    """Mask of spans that are ``span`` or have it as an ancestor."""
    target = a["names"].tolist().index(span)
    mask = a["name"] == target
    parent = a["parent"]
    has_parent = parent >= 0
    while True:
        grown = mask.copy()
        grown[has_parent] |= mask[parent[has_parent]]
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def _count_bytes(tracer: Tracer, text) -> None:
    tracer.bytes_out += len(text.encode("utf-8"))


def _count_classes(tracer: Tracer, classes) -> None:
    tracer.classes_found += int(classes.num_classes)


_AFTER = {"serialize.dumps_canonical": _count_bytes,
          "operators.gauge_classes_of_signings": _count_classes}
