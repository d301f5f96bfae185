"""Span recording around the calls into each qmc layer, for the traced run.

The library is not instrumented.  Instead, ``LayerTracer.install`` replaces
each layer function where callers look it up (module globals, class
attributes, ``numpy.linalg`` and ``scipy.optimize``) with a wrapper that
records a span, and ``uninstall`` puts the originals back.  A name the
library no longer has is skipped and listed in ``missing``; its metrics are
then left out of the report rather than read as zero.

Spans are kept in memory as tuples and written out once, at the end of the
run.  Each holds an id, the id of the span that caused it, the layer name,
start and end (``time.perf_counter``), the request id and the thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# (span name, module, attribute path) for every wrapped layer function.
LAYER_FUNCTIONS = (
    ("capacity.solve", "qmc.capacity", "qcap_one_shot"),
    ("capacity.ic", "qmc.capacity", "coherent_information"),
    ("capacity.ic", "qmc.capacity", "coherent_information_purification"),
    ("capacity.minimize", "scipy.optimize", "minimize"),
    ("channel.apply", "qmc.channel", "BeamSplitterChannel.apply_matrix"),
    ("channel.choi", "qmc.channel", "BeamSplitterChannel.choi"),
    ("channel.identity", "qmc.channel", "complement_identity_check"),
    ("channel.identity", "qmc.channel", "degradation_witness"),
    ("linalg.eig", "numpy.linalg", "eigh"),
    ("linalg.eig", "numpy.linalg", "eigvalsh"),
    ("linalg.partial_trace", "qmc.linalg", "partial_trace"),
    ("weyl.transform", "qmc.weyl", "characteristic_function"),
    ("weyl.transform", "qmc.weyl", "inverse_weyl_transform"),
    ("weyl.transform", "qmc.weyl", "wigner_function"),
    ("weyl.action", "qmc.weyl", "weyl_action"),
    ("states.mean_state", "qmc.states", "mean_state"),
    ("states.family", "qmc.states", "stabilizer_family"),
    ("states.family", "qmc.states", "enumerate_stabilizers"),
    ("states.family", "qmc.states", "pure_stabilizer_projectors"),
    ("magic.mrm", "qmc.magic", "mrm"),
    ("magic.cone", "qmc.magic", "mrm_inf_certificate"),
    ("magic.simplex", "qmc.magic", "simplex_max"),
    ("coding.search", "qmc.coding", "stabilizer_ceiling_search"),
    ("coding.search", "qmc.coding", "fidelity_ratio_bound_check"),
    ("coding.fidelity", "qmc.coding", "entanglement_fidelity"),
    ("coding.decoder", "qmc.coding", "pgm_decoder"),
    ("coding.decoder", "qmc.coding", "random_relabel_decoder"),
    ("parallel.map", "qmc.parallel", "parallel_map"),
    # private: the per-channel evaluator the optimizer calls thousands of times
    ("capacity.ic", "qmc.capacity", "_ic_matrix_fn"),
)


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


class LayerTracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.request = None
        self.active = False
        self.missing: list[str] = []
        self.installed: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, fn, args, kwargs, on_result=None, on_error=None):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack and stack[-1][1] == name:
            # a layer calling into itself stays inside the outer span
            return fn(*args, **kwargs)
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, self.request, threading.get_ident()))
        if on_result is not None:
            on_result(out)
        return out

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for whole requests)."""
        return self._run(name, fn, args, kwargs)

    # -- wrappers --------------------------------------------------------

    def _wrapper(self, name: str, original):
        tracer = self
        on_result = on_error = None
        if name == "capacity.minimize":

            def on_result(res):
                tracer.counters["capacity.minimize.runs"] += 1
                tracer.counters["capacity.minimize.nfev"] += int(res.nfev)
                tracer.counters["capacity.minimize.converged"] += int(bool(res.success))

        elif name == "magic.cone":

            def on_result(res):
                tracer.counters["magic.cone.cuts"] += int(res.cuts)

            def on_error(exc):
                if type(exc).__name__ == "MrmInfError":
                    tracer.counters["magic.cone.failed"] += 1

        elif name == "magic.simplex":

            def on_result(res):
                tracer.counters["magic.simplex.pivots"] += int(res.pivots)

        if original.__name__ == "_ic_matrix_fn":

            @functools.wraps(original)
            def factory(*args, **kwargs):
                evaluate = original(*args, **kwargs)
                return lambda *a, **k: tracer._run(name, evaluate, a, k)

            return factory
        if name == "parallel.map":

            @functools.wraps(original)
            def pmap(fn, items, *args, **kwargs):
                def run(items, *a, **k):
                    parent = tracer._stack()[-1]

                    def item(x):
                        # worker threads start with an empty stack: hang their
                        # spans under the map span that dispatched them
                        stack = tracer._stack()
                        stack.append(parent)
                        try:
                            return tracer._run("parallel.item", fn, (x,), {})
                        finally:
                            stack.pop()

                    return original(item, items, *a, **k)

                if not tracer.active:
                    return original(fn, items, *args, **kwargs)
                return tracer._run(name, run, (items, *args), kwargs)

            return pmap

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer._run(name, original, args, kwargs, on_result, on_error)

        return wrapper

    def install(self):
        """Wrap every layer function that exists; ``uninstall`` undoes it."""
        self.missing = []
        self.installed = []
        for name, module_name, path in LAYER_FUNCTIONS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            self.installed.append((name, module_name, path))
            wrapper = self._wrapper(name, original)
            self._patch(owner, attr, original, wrapper)
            if not isinstance(owner, type):
                # rebind copies imported by name into other qmc modules
                for mod_name, module in list(sys.modules.items()):
                    if module is owner or not (mod_name == "qmc" or mod_name.startswith("qmc.")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reporting -------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that child spans cover."""
        children = defaultdict(list)
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, _, start, end, _, _ in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = max(end - start - covered, 0.0)
        return out

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        self_s = self.self_times()
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _, name, start, end, _, _ in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s[sid]
        return dict(totals)

    def write(self, path, header: dict):
        """Write the header and then one JSON array per span."""
        thread_ids = {}
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, start, end, request, thread in self.spans:
                tid = thread_ids.setdefault(thread, len(thread_ids))
                fh.write(json.dumps([sid, parent, name, round(start, 7), round(end, 7), request, tid]) + "\n")
