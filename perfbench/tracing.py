"""Span tracer that wraps the program's public functions from outside.

Nothing here edits ``src/``: :meth:`Tracer.install` replaces functions
and methods in the already-imported ``repro`` modules with timing
wrappers, and :meth:`Tracer.uninstall` puts every original back.  A
span records ``(name, start, end, parent, op)``; spans live in memory
and are written out once, at the end of the run.

A span's parent is the innermost open span of the same thread, or the
current op's root span when the thread has none open (the serving
daemon's handler and batcher threads work on the client's op).  Self
time is a span's duration minus the part of it that its children
cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id]
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_root = -1
        self._op_id = "setup"
        self._patches: List[tuple] = []
        #: Wrap targets the program lacks (their metrics read 0).
        self.missing: List[str] = []
        #: MicroBatcher tickets -> submit time (queue-wait spans).
        self._submitted: Dict[int, float] = {}
        #: stage span name -> [input bytes, output bytes, images]
        self.stage_bytes: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._op_root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self._op_id])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        stack.pop()
        self.spans[index][2] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere, parented on the current op."""
        with self._lock:
            self.spans.append([name, start, end, self._op_root, self._op_id])

    @contextlib.contextmanager
    def op(self, op_id: str):
        """One timed op; its root span is named ``op``."""
        self._op_id = op_id
        self._op_root = self.begin("op")
        try:
            yield
        finally:
            self.end(self._op_root)
            self._op_root = -1
            self._op_id = "idle"

    def set_phase(self, op_id: str) -> None:
        """Label spans recorded outside :meth:`op` (set-up, checks)."""
        self._op_id = op_id

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn: Callable, name: str) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        traced = self.wrap(name, fn)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def wrap_stages(self, model) -> None:
        """Wrap each ``ForwardStage`` of a staged capsule model.

        Spans are named ``capsnet.<shallow|deep>.<layer>``; a layer's
        compute and activation steps share its name.  The wrapper also
        counts the bytes of each step's input and output tensors.
        """
        family = {"ShallowCaps": "shallow", "DeepCaps": "deep"}[type(model).__name__]
        stages = model.__dict__["_stage_list"]
        originals = list(stages)
        for i, stage in enumerate(originals):
            name = f"capsnet.{family}.{stage.layer}"
            stages[i] = dataclasses.replace(
                stage, fn=self._stage_fn(name, stage.fn, count_images=not stage.tag)
            )
        self._patches.append((stages, slice(None), originals))

    def _stage_fn(self, name: str, fn: Callable, count_images: bool) -> Callable:
        counts = self.stage_bytes[name]

        def traced(x, q):
            index = self.begin(name)
            try:
                out = fn(x, q)
            finally:
                self.end(index)
            counts[0] += x.data.nbytes
            counts[1] += out.data.nbytes
            if count_images:
                counts[2] += len(x.data)
            return out

        return traced

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(attr, slice):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def install(self, models=()) -> None:
        """Wrap every layer the benchmark reports on (see README).

        A target the program no longer has is listed in ``missing``
        and its metrics read 0, so a refactor inside ``src/`` degrades
        the traced run instead of failing it.
        """
        steps = self._steps() + [
            (f"{type(model).__name__} stages", functools.partial(self.wrap_stages, model))
            for model in models
        ]
        for label, step in steps:
            try:
                step()
            except (AttributeError, ImportError, KeyError):
                self.missing.append(label)

    def _steps(self) -> List[tuple]:
        mod = importlib.import_module

        def function(module: str, attr: str, name: str):
            return name, lambda: self.patch_function(getattr(mod(module), attr), name)

        def method(module: str, cls: str, attr: str, name: str):
            return name, lambda: self.patch_method(getattr(mod(module), cls), attr, name)

        def artifact_load():
            cls = mod("repro.api.artifact").ModelArtifact
            self._set(cls, "load", classmethod(
                self.wrap("api.artifact_load", cls.__dict__["load"].__func__)))

        def client_json():
            client = mod("repro.serve.client")
            self._set(client, "json", types.SimpleNamespace(
                dumps=self.wrap("serve.client_encode", client.json.dumps),
                loads=client.json.loads,
                JSONDecodeError=client.json.JSONDecodeError,
            ))

        return [
            function("repro.autograd.ops_nn", "im2col", "autograd.im2col"),
            function("repro.autograd.ops_nn", "conv2d", "autograd.conv2d"),
            function("repro.capsnet.routing", "dynamic_routing", "capsnet.routing"),
            function("repro.capsnet.squash", "squash", "capsnet.squash"),
            method("repro.quant.rounding", "RoundingScheme", "apply", "quant.rounding"),
            function("repro.quant.calibrate", "calibrate_scales", "quant.calibrate"),
            method("repro.nn.trainer", "Trainer", "fit", "nn.train"),
            method("repro.api.artifact", "ModelArtifact", "certify", "analysis.certify"),
            method("repro.api.artifact", "ModelArtifact", "lower", "analysis.lower"),
            method("repro.api.artifact", "ModelArtifact", "bind", "backend.bind"),
            ("api.artifact_load", artifact_load),
            function("repro.backend.int_kernels", "int_conv2d", "backend.int_conv2d"),
            function("repro.backend.int_kernels", "int_votes", "backend.int_votes"),
            function("repro.backend.int_kernels", "int_squash", "backend.int_squash"),
            function("repro.backend.int_kernels", "int_softmax", "backend.int_softmax"),
            function("repro.backend.int_kernels", "hook_rescale", "backend.rescale"),
            method("repro.backend.int_backend", "_PlanWalk", "routing",
                   "backend.int_routing"),
            ("backend.int.<layer>",
             lambda: self._wrap_plan_walk(mod("repro.backend.int_backend")._PlanWalk)),
            ("framework.scheme.<scheme>",
             lambda: self._wrap_scheme_runs(mod("repro.framework.qcapsnets").QCapsNets)),
            method("repro.serve.registry", "ModelRegistry", "register", "serve.register"),
            method("repro.api.session", "ServingModel", "predict", "serve.forward"),
            function("repro.serve.server", "validate_images", "serve.validate"),
            method("repro.serve.server", "_Handler", "_read_json", "serve.validate"),
            method("repro.serve.client", "Client", "predict", "serve.client_encode"),
            method("repro.serve.client", "Client", "_request", "serve.http"),
            ("serve.client_encode (json.dumps)", client_json),
            ("serve.queue_wait",
             lambda: self._wrap_batcher(mod("repro.serve.batcher").MicroBatcher)),
        ]

    def _wrap_plan_walk(self, walk: type) -> None:
        """Per-layer spans of the int backend's plan walk.

        A layer span opens when the walk takes the first plan op of a
        new layer and closes when it moves on (or the batch ends).
        """
        take = walk.__dict__["take"]
        run = walk.__dict__["run"]
        tracer = self

        def traced_take(self, layer, name):
            current = self.__dict__.get("_span")
            if current is None or current[0] != layer:
                if current is not None:
                    tracer.end(current[1])
                self._span = (layer, tracer.begin(f"backend.int.{layer}"))
            return take(self, layer, name)

        def traced_run(self, images):
            index = tracer.begin("backend.int.run")
            try:
                return run(self, images)
            finally:
                current = self.__dict__.pop("_span", None)
                if current is not None:
                    tracer.end(current[1])
                tracer.end(index)

        self._set(walk, "take", traced_take)
        self._set(walk, "run", traced_run)

    def _wrap_scheme_runs(self, cls: type) -> None:
        run = cls.__dict__["run"]
        tracer = self

        def traced_run(self):
            index = tracer.begin("framework.scheme")
            try:
                result = run(self)
            finally:
                tracer.end(index)
            tracer.spans[index][0] = f"framework.scheme.{result.scheme_name}"
            return result

        self._set(cls, "run", traced_run)

    def _wrap_batcher(self, cls: type) -> None:
        submit = cls.__dict__["submit"]
        process = cls.__dict__["_process"]
        tracer = self

        def traced_submit(self, name, images):
            start = time.perf_counter()
            ticket = submit(self, name, images)
            tracer._submitted[id(ticket)] = start
            return ticket

        def traced_process(self, group, worker_index):
            now = time.perf_counter()
            for ticket in group:
                start = tracer._submitted.pop(id(ticket), None)
                if start is not None:
                    tracer.record("serve.queue_wait", start, now)
            return process(self, group, worker_index)

        self._set(cls, "submit", traced_submit)
        self._set(cls, "_process", traced_process)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def totals(self, phase: Callable[[str], bool]) -> Dict[str, Dict[str, float]]:
        """Per span name: summed ``total`` and ``self`` seconds over the
        spans whose op id satisfies ``phase``."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"total": 0.0, "self": 0.0})
        for index, (name, start, end, _, op_id) in enumerate(self.spans):
            if end is None or not phase(op_id):
                continue
            covered = 0.0
            for child in children.get(index, ()):
                _, c_start, c_end, _, _ = self.spans[child]
                if c_end is not None:
                    covered += max(0.0, min(end, c_end) - max(start, c_start))
            row = out[name]
            row["total"] += end - start
            row["self"] += max(0.0, end - start - covered)
        return out

    def dump(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


def blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports (None if not found)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None
