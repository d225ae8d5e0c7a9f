"""The four benchmark workloads, driven through the public API.

Each workload builds its state in :meth:`setup` (which ends with a
warm-up, so the first timed op can start right after it), runs one
timed op per :meth:`op` call, checks the outputs in :meth:`check`
outside the timed loop, and releases everything in :meth:`teardown`.
Every input is generated from the run's seed; see README.md for what
each seed drives.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis import deepcaps_stats, shallowcaps_stats
from repro.api import ModelArtifact, QuantSpec, Session
from repro.capsnet import DeepCaps, ShallowCaps, presets
from repro.data import synth_cifar, synth_digits
from repro.hw import CapsAccModel
from repro import quant
from repro.quant import QuantizationConfig, QuantizedCapsNet, get_rounding_scheme
from repro.serve import Client, ModelRegistry, ServingDaemon

#: Uniform wordlengths of the inference and serving artifacts.
BITS = {"qw": 6, "qa": 6, "qdr": 8}


def uniform_artifact(model, images, scheme="RTN", seed=0, spec=None):
    """A qw6/qa6/qdr8 artifact with scales calibrated on ``images``."""
    # Called through the package so the traced run's wrapper sees it.
    scales = quant.calibrate_scales(model, images, batch_size=len(images),
                              max_samples=len(images))
    config = QuantizationConfig.uniform(list(model.quant_layers), **BITS)
    quantized = QuantizedCapsNet(
        model, config, get_rounding_scheme(scheme, seed=seed),
        act_scales=scales, seed=seed,
    )
    return ModelArtifact.from_quantized(quantized, spec=spec)


def weight_bits(model, config: QuantizationConfig) -> Tuple[int, int]:
    """(FP32 weight bits, quantized weight bits) from per-layer counts."""
    counts = model.layer_param_counts()
    fp32 = 32 * sum(counts.values())
    quantized = sum(
        count * (config.integer_bits + config[layer].qw)
        for layer, count in counts.items()
    )
    return fp32, quantized


def snap(images: np.ndarray) -> np.ndarray:
    """Inputs on the 2^-8 grid, which both backends quantize alike."""
    scaled = np.rint(np.asarray(images, np.float64) * 256.0) / 256.0
    return scaled.astype(np.float32)


def paper_shallow(seed: int) -> ShallowCaps:
    return ShallowCaps(dataclasses.replace(presets.shallowcaps_paper(), seed=seed))


def paper_deep(seed: int) -> DeepCaps:
    return DeepCaps(dataclasses.replace(presets.deepcaps_paper(), seed=seed))


class Workload:
    name = ""
    #: Times set-up runs in one run; ``setup_s`` is their median.
    setups = 3
    #: Ops per round; every run attempts whole rounds.
    round_ops = 1
    #: Timed ops every run attempts at least.
    min_ops = 1
    #: Whether a run holds enough ops for a p95 with at least ten
    #: samples beyond it (reported per layer as ``serve.op_p95_ms``).
    reports_tail = False

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.failures: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def observe(self, index: int, result) -> None:
        """Record one op's output (outside the timed region)."""

    def check(self) -> None:
        """Append a message to ``self.failures`` for each failed check."""

    def teardown(self) -> None:
        """Release everything ``setup`` started (idempotent)."""

    def weight_reduction(self) -> float:
        """FP32 weight bits over the stored weight bits of the model run."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Per-op counts the program reports itself, over every timed op."""
        return {}

    def models(self) -> list:
        """Staged models whose layers the traced run wraps."""
        return []

    def layer_rows(self, tracer, ops: int) -> List[dict]:
        """Traced-run report rows (see :func:`float_layer_rows`)."""
        return []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


# ----------------------------------------------------------------------
# Layer report helpers
# ----------------------------------------------------------------------
def _stats_for(model):
    if isinstance(model, DeepCaps):
        return deepcaps_stats(model.config)
    return shallowcaps_stats(model.config)


def float_layer_rows(tracer, model, config) -> List[dict]:
    """Measured ms beside MACs, bytes moved and CapsAcc cycles, per image."""
    family = "deep" if isinstance(model, DeepCaps) else "shallow"
    stats = _stats_for(model)
    cycles = CapsAccModel(stats).estimate(config).layers
    params = model.layer_param_counts()
    totals = tracer.totals(lambda op: op.startswith("op"))
    rows = []
    for layer in stats.layers:
        name = f"capsnet.{family}.{layer.name}"
        in_bytes, out_bytes, images = tracer.stage_bytes.get(name, (0, 0, 0))
        if not images:
            continue
        rows.append({
            "layer": name,
            "ms_per_image": 1e3 * totals[name]["total"] / images,
            "macs": layer.macs,
            # Every step's input and output tensors, plus the layer's
            # float32 weights.
            "bytes": int((in_bytes + out_bytes) / images + 4 * params[layer.name]),
            "capsacc_cycles": cycles[layer.name].total_cycles,
        })
    return rows


# ----------------------------------------------------------------------
# infer_float_paper
# ----------------------------------------------------------------------
class InferFloatPaper(Workload):
    name = "infer_float_paper"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        # About half of each op per model (19 and 65 ms/image).
        self.shallow_batch = 1 if smoke else 8
        self.deep_batch = 1 if smoke else 2
        self.reference = None

    def setup(self):
        self.shallow = paper_shallow(self.seed)
        self.deep = paper_deep(self.seed)
        _, digits = synth_digits(train_size=1, test_size=self.shallow_batch, seed=self.seed)
        _, images = synth_cifar(train_size=1, test_size=self.deep_batch, image_size=64,
                                seed=self.seed)
        self.x_shallow = digits.images
        self.x_deep = images.images
        self.artifacts = {
            "shallow": uniform_artifact(self.shallow, self.x_shallow, seed=self.seed),
            "deep": uniform_artifact(self.deep, self.x_deep, seed=self.seed),
        }
        self.backends = {
            "shallow": self.artifacts["shallow"].bind(self.shallow),
            "deep": self.artifacts["deep"].bind(self.deep),
        }
        self.op(-1)

    def op(self, index):
        return (
            self.backends["shallow"].predict(self.x_shallow, batch_size=self.shallow_batch),
            self.backends["deep"].predict(self.x_deep, batch_size=self.deep_batch),
        )

    def observe(self, index, result):
        if self.reference is None:
            self.reference = result
        elif not all(np.array_equal(a, b) for a, b in zip(result, self.reference)):
            self.failures.append(f"op {index}: labels differ from the first op")

    def check(self):
        batches = dict(zip(("shallow", "deep"), self.reference))
        inputs = {"shallow": self.x_shallow, "deep": self.x_deep}
        models = {"shallow": self.shallow, "deep": self.deep}
        for key, backend in self.backends.items():
            single = np.concatenate([
                backend.predict(image[None], batch_size=1) for image in inputs[key]
            ])
            self.expect(np.array_equal(single, batches[key]),
                        f"{key}: batch labels {batches[key].tolist()} != one-at-a-time "
                        f"labels {single.tolist()}")
            path = os.path.join(self.workdir, f"{key}.qcn.npz")
            self.artifacts[key].save(path)
            loaded = ModelArtifact.load(path).bind(models[key])
            reloaded = loaded.predict(inputs[key], batch_size=len(inputs[key]))
            self.expect(np.array_equal(reloaded, batches[key]),
                        f"{key}: save -> load -> predict changed the labels")
            fp32, quantized = weight_bits(models[key], self.artifacts[key].config)
            self.expect(quantized == self.artifacts[key].weight_storage_bits(),
                        f"{key}: artifact stores {self.artifacts[key].weight_storage_bits()} "
                        f"weight bits, per-layer counts give {quantized}")

    def weight_reduction(self):
        fp32 = sum(weight_bits(m, self.artifacts[k].config)[0]
                   for k, m in (("shallow", self.shallow), ("deep", self.deep)))
        return fp32 / sum(a.weight_storage_bits() for a in self.artifacts.values())

    def models(self):
        return [self.shallow, self.deep]

    def layer_rows(self, tracer, ops):
        return (float_layer_rows(tracer, self.shallow, self.artifacts["shallow"].config)
                + float_layer_rows(tracer, self.deep, self.artifacts["deep"].config))


# ----------------------------------------------------------------------
# infer_int_paper
# ----------------------------------------------------------------------
class InferIntPaper(Workload):
    name = "infer_int_paper"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.batch = 1
        self.reference = None

    def setup(self):
        self.model = paper_shallow(self.seed)
        _, digits = synth_digits(train_size=1, test_size=self.batch, seed=self.seed)
        self.images = snap(digits.images)
        self.artifact = uniform_artifact(self.model, self.images, seed=self.seed)
        self.artifact.certify(model=self.model)
        self.artifact.lower(model=self.model)
        self.backend = self.artifact.bind(self.model, backend="int")
        self.op(-1)

    def op(self, index):
        return self.backend.predict(self.images, batch_size=self.batch)

    def observe(self, index, result):
        if self.reference is None:
            self.reference = result
        elif not np.array_equal(result, self.reference):
            self.failures.append(f"op {index}: int labels differ from the first op")

    def check(self):
        self.failures.extend(compare_exact_ops(self.artifact, self.model, self.images))

    def weight_reduction(self):
        fp32, _ = weight_bits(self.model, self.artifact.config)
        return fp32 / self.artifact.weight_storage_bits()

    def layer_rows(self, tracer, ops):
        stats = shallowcaps_stats(self.model.config)
        cycles = CapsAccModel(stats).estimate(self.artifact.config).layers
        params = self.model.layer_param_counts()
        totals = tracer.totals(lambda op: op.startswith("op"))
        rows = []
        for layer in stats.layers:
            name = f"backend.int.{layer.name}"
            rows.append({
                "layer": name,
                "ms_per_image": 1e3 * totals.get(name, {"total": 0.0})["total"]
                / (ops * self.batch),
                "macs": layer.macs,
                # Hooked activation elements + weights, as int64 codes.
                "bytes": 8 * (layer.activations + params[layer.name]),
                "capsacc_cycles": cycles[layer.name].total_cycles,
            })
        return rows


def compare_exact_ops(artifact, model, images) -> List[str]:
    """Int codes vs the float simulation at every exact plan op.

    Runs the float path once, recording each quantization hook's
    output, then walks the int plan with teacher forcing: at every
    hook, the int codes must equal the float values on the hook's grid
    when every op since the previous hook was exact.  After an
    approximate op (squash, softmax) the codes may differ within the
    certified bound, so the walk continues from the float values; the
    exact ops after it are then checked on identical inputs.
    """
    from repro.backend import int_backend
    from repro.quant import qmodel

    recorded: Dict[Tuple[str, str], list] = {}
    context_cls = qmodel._FrozenWeightContext
    act, routing = context_cls.act, context_cls.routing

    def record_act(self, layer, tensor):
        out = act(self, layer, tensor)
        recorded.setdefault((layer, "act"), []).append(np.array(out.data))
        return out

    def record_routing(self, layer, array, tensor):
        out = routing(self, layer, array, tensor)
        recorded.setdefault((layer, f"routing:{array}"), []).append(np.array(out.data))
        return out

    context_cls.act, context_cls.routing = record_act, record_routing
    try:
        artifact.bind(model).predict(images, batch_size=len(images))
    finally:
        context_cls.act, context_cls.routing = act, routing

    failures: List[str] = []
    checked = {"exact": 0, "forced": 0}
    walk = int_backend._PlanWalk
    take, hook = walk.take, walk.hook
    seen: Dict[Tuple[str, str], int] = {}

    def watch_take(self, layer, name):
        op = take(self, layer, name)
        if op.approx is not None:
            self._approx_since_hook = True
        return op

    def forced_hook(self, layer, site, codes):
        out, exp = hook(self, layer, site, codes)
        key = (layer, site)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        values = recorded.get(key, [])
        if occurrence >= len(values):
            failures.append(f"{layer}:{site} #{occurrence}: no float hook at this point")
            return out, exp
        grid = np.ldexp(values[occurrence].astype(np.float64), -exp)
        expected = np.rint(grid)
        if not np.array_equal(grid, expected):
            failures.append(f"{layer}:{site}: float values are off the int grid 2^{exp}")
        elif self.__dict__.pop("_approx_since_hook", False):
            checked["forced"] += 1
        else:
            checked["exact"] += 1
            mismatched = int(np.count_nonzero(expected != out))
            if mismatched:
                failures.append(f"{layer}:{site} #{occurrence}: {mismatched} of "
                                f"{out.size} int codes differ from the float path")
        return expected.astype(out.dtype), exp

    walk.take, walk.hook = watch_take, forced_hook
    try:
        artifact.bind(model, backend="int").predict(images, batch_size=len(images))
    finally:
        walk.take, walk.hook = take, hook
    if checked["exact"] == 0:
        failures.append("no exact plan op was compared")
    return failures


# ----------------------------------------------------------------------
# search_select
# ----------------------------------------------------------------------
#: Algorithm-1 steps whose stage executions the traced run reports.
STEPS = ("step1_uniform", "step2_memory", "step3A_layerwise", "step4A_routing",
         "final_accuracy")


class SearchSelect(Workload):
    name = "search_select"
    #: Training dominates set-up and gives the same weights every time.
    setups = 1
    #: One select takes about 11 s; the median of two halves its jitter.
    min_ops = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        if smoke:
            self.spec = QuantSpec(model="shallow-tiny", train_size=128, test_size=64,
                                  batch_size=32, tolerance=0.05, workers=1)
            self.epochs = 1
        else:
            self.spec = QuantSpec(model="shallow-small", train_size=1000, test_size=256,
                                  tolerance=0.015, schemes=("RTN", "TRN", "SR"), workers=1)
            self.epochs = 4
        self.outcome = None
        self.totals: Dict[str, int] = {}
        self.observed = 0

    def setup(self):
        session = Session(self.spec)
        session.train(epochs=self.epochs)
        self.model = session.model
        self.accuracy_fp32 = session.accuracy_fp32()
        images, labels = session.test_data
        # The run's seed orders the test images within each evaluation
        # batch: same images per batch, so the search result is the same
        # for every seed while the stream of inputs is not.
        rng = np.random.default_rng(self.seed)
        size = self.spec.batch_size
        order = np.concatenate([
            start + rng.permutation(min(size, len(images) - start))
            for start in range(0, len(images), size)
        ])
        self.test_data = (images[order], labels[order])

    def op(self, index):
        session = Session(self.spec, model=self.model, test_data=self.test_data)
        return session.select(), session.executor_stats()

    def observe(self, index, result):
        outcome, stats = result
        summary = self._summary(outcome)
        if self.outcome is None:
            self.outcome = outcome
        elif summary != self._summary(self.outcome):
            self.failures.append(f"op {index}: selection {summary} differs from the first op")
        counts = {
            "engine.stage_executions": stats["stage_executions"],
            "engine.stages_skipped": stats["stages_skipped"],
            "engine.cache_hits": stats["cache_hits"],
            "engine.cache_misses": stats["cache_misses"],
            "engine.cache_evictions": stats["cache_evictions"],
            "engine.cache_bytes": stats["cache_bytes"],
            "engine.batches_evaluated": sum(
                r.batches_evaluated for r in outcome.per_scheme.values()),
            "framework.configs_probed": sum(
                r.eval_count for r in outcome.per_scheme.values()),
        }
        for step in STEPS:
            counts[f"framework.{step}.stage_executions"] = sum(
                r.phase_stats.get(step, {}).get("stage_executions", 0)
                for r in outcome.per_scheme.values())
        for key, value in counts.items():
            self.totals[key] = self.totals.get(key, 0) + value
        self.observed += 1

    @staticmethod
    def _summary(outcome):
        best = outcome.best or outcome.best_accuracy_model
        return (outcome.path, best.scheme_name, best.accuracy, best.memory.weight_bits)

    def winner(self):
        return self.outcome.best or self.outcome.best_accuracy_model

    def check(self):
        best = self.winner()
        session = Session(self.spec, model=self.model, test_data=self.test_data)
        artifact = session.export(best)
        measured = Session(self.spec, model=self.model, test_data=self.test_data).evaluate(
            artifact)
        self.expect(measured == best.accuracy,
                    f"exported winner measures {measured}%, search reported {best.accuracy}%")
        floor = (1.0 - self.spec.tolerance) * self.accuracy_fp32
        self.expect(measured >= floor,
                    f"winner accuracy {measured}% is below (1 - tol) x FP32 = {floor}%")
        if self.outcome.path == "A":
            _, bits = weight_bits(self.model, best.config)
            budget = session.budget_mbit() * 1e6
            self.expect(bits == best.memory.weight_bits,
                        f"winner stores {bits} weight bits, search reported "
                        f"{best.memory.weight_bits}")
            self.expect(bits <= budget, f"winner's {bits} weight bits exceed the "
                                        f"{budget:.0f}-bit budget")

    def weight_reduction(self):
        return self.winner().weight_reduction

    def counters(self):
        counts = {key: value / self.observed for key, value in self.totals.items()}
        counts["framework.winner_accuracy_pct"] = self.winner().accuracy
        return counts

    def models(self):
        return [self.model]

    def layer_rows(self, tracer, ops):
        return float_layer_rows(tracer, self.model, self.winner().config)


# ----------------------------------------------------------------------
# serve_closed_loop
# ----------------------------------------------------------------------
class ServeClosedLoop(Workload):
    name = "serve_closed_loop"
    round_ops = 2
    #: A traced run's untraced half then holds at least 200 ops, so
    #: p95 has at least ten samples beyond it.
    min_ops = 400
    reports_tail = True
    request_images = 4
    slices = 16

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.daemon = None
        self.responses: List[Tuple[str, int, np.ndarray]] = []
        self.sent = 0

    def setup(self):
        spec = QuantSpec(model="shallow-small", seed=self.seed)
        self.model = Session(spec).model
        _, digits = synth_digits(train_size=1,
                                 test_size=self.slices * self.request_images,
                                 seed=self.seed + 1)
        self.pool = digits.images.reshape(self.slices, self.request_images,
                                          *digits.images.shape[1:])
        self.tenants = ("rtn", "sr")
        self.artifacts = {}
        registry = ModelRegistry(max_warm=len(self.tenants))
        for name in self.tenants:
            artifact = uniform_artifact(self.model, digits.images, scheme=name.upper(),
                                        seed=self.seed, spec=spec.to_dict())
            path = os.path.join(self.workdir, f"{name}.qcn.npz")
            artifact.save(path)
            registry.register(name, path=path, model=self.model)
            self.artifacts[name] = artifact
        daemon = ServingDaemon(registry, port=0, workers=1)
        daemon.start()
        # Kept only once started: shutdown() of a never-started daemon
        # blocks forever, and a hang is worse than a reported leak.
        self.daemon = daemon
        self.client = Client(self.daemon.url, timeout=60.0)
        self.sent = 0
        self.responses = []
        for name in self.tenants:
            self.client.predict(name, self.pool[0])
            self.sent += 1

    def op(self, index):
        tenant = self.tenants[index % 2]
        slot = (index // 2) % self.slices
        return tenant, slot, self.client.predict(tenant, self.pool[slot])

    def observe(self, index, result):
        self.sent += 1
        self.responses.append(result)

    def check(self):
        served = {
            name: Session(QuantSpec(model="shallow-small", seed=self.seed),
                          model=self.model).serve(artifact)
            for name, artifact in self.artifacts.items()
        }
        references = {}
        wrong = 0
        for tenant, slot, labels in self.responses:
            key = (tenant, slot)
            if key not in references:
                references[key] = served[tenant].predict(self.pool[slot])
            wrong += not np.array_equal(labels, references[key])
        self.expect(wrong == 0, f"{wrong} of {len(self.responses)} responses differ "
                                "from offline ServingModel.predict")
        requests = self.client.health()["batcher"]["requests"]
        self.expect(requests == self.sent,
                    f"/healthz counts {requests} requests, {self.sent} were sent")

    def teardown(self):
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            daemon.shutdown()

    def weight_reduction(self):
        fp32, _ = weight_bits(self.model, self.artifacts["rtn"].config)
        return fp32 / self.artifacts["rtn"].weight_storage_bits()

    def models(self):
        return [self.model]

    def layer_rows(self, tracer, ops):
        return float_layer_rows(tracer, self.model, self.artifacts["rtn"].config)


WORKLOADS = {
    cls.name: cls
    for cls in (InferFloatPaper, InferIntPaper, SearchSelect, ServeClosedLoop)
}
