"""Per-layer metrics and the traced-run layer report."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Tuple

#: Kernel and layer spans, reported as self time per timed op (ms).
SELF_PER_OP = [
    "capsnet.shallow.L1", "capsnet.shallow.L2", "capsnet.shallow.L3",
    "capsnet.deep.L1", "capsnet.deep.B2", "capsnet.deep.B3", "capsnet.deep.B4",
    "capsnet.deep.B5", "capsnet.deep.L6",
    "autograd.im2col", "autograd.conv2d", "capsnet.routing", "capsnet.squash",
    "quant.rounding",
    "backend.int.L1", "backend.int.L2", "backend.int.L3",
    "backend.int_conv2d", "backend.int_votes", "backend.int_routing",
    "backend.int_squash", "backend.int_softmax", "backend.rescale",
]
#: Phases of a timed op, reported as inclusive time per op (ms).
TOTAL_PER_OP = [
    "framework.scheme.RTN", "framework.scheme.TRN", "framework.scheme.SR",
    "serve.validate", "serve.queue_wait", "serve.forward",
]
#: Set-up calls, reported as inclusive time per set-up (ms, or s).
TOTAL_PER_SETUP = [
    "analysis.certify", "analysis.lower", "backend.bind", "quant.calibrate",
    "api.artifact_load", "serve.register",
]
#: Counts the program reports itself, per timed op.
COUNTS = [
    "framework.configs_probed",
    "framework.step1_uniform.stage_executions",
    "framework.step2_memory.stage_executions",
    "framework.step3A_layerwise.stage_executions",
    "framework.step4A_routing.stage_executions",
    "framework.final_accuracy.stage_executions",
    "engine.stage_executions", "engine.stages_skipped", "engine.cache_hits",
    "engine.cache_misses", "engine.cache_evictions", "engine.batches_evaluated",
]


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def per_layer_metrics(tracer, workload, plain: List[float], traced: List[float],
                      setups: int) -> Dict[str, Tuple[float, str]]:
    ops = len(traced)
    per_op = tracer.totals(lambda op: op.startswith("op"))
    per_setup = tracer.totals(lambda op: op.startswith("setup"))

    def op_ms(name, kind):
        return 1e3 * per_op.get(name, {kind: 0.0})[kind] / ops

    metrics: Dict[str, Tuple[float, str]] = {}
    for name in SELF_PER_OP:
        metrics[name + "_ms"] = (op_ms(name, "self"), "ms")
    for name in TOTAL_PER_OP:
        metrics[name + "_ms"] = (op_ms(name, "total"), "ms")
    encode = op_ms("serve.client_encode", "self")
    metrics["serve.client_encode_ms"] = (encode, "ms")
    phases = encode + sum(op_ms(f"serve.{p}", "total")
                          for p in ("validate", "queue_wait", "forward"))
    serving = "serve.http" in per_op
    metrics["serve.other_ms"] = (op_ms("op", "total") - phases if serving else 0.0, "ms")
    for name in TOTAL_PER_SETUP:
        metrics[name + "_ms"] = (1e3 * per_setup.get(name, {"total": 0.0})["total"] / setups,
                                 "ms")
    metrics["nn.train_s"] = (per_setup.get("nn.train", {"total": 0.0})["total"] / setups, "s")
    counts = workload.counters()
    for name in COUNTS:
        metrics[name] = (float(counts.get(name, 0)), "count")
    metrics["engine.cache_bytes"] = (float(counts.get("engine.cache_bytes", 0)), "bytes")
    metrics["framework.winner_accuracy_pct"] = (
        float(counts.get("framework.winner_accuracy_pct", 0)), "%")
    metrics["serve.op_p95_ms"] = (
        1e3 * percentile(plain, 95) if workload.reports_tail else 0.0, "ms")
    untraced, traced_median = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_pct"] = (100.0 * (traced_median - untraced) / untraced, "%")
    return metrics


def format_report(workload, tracer, ops: int, metrics) -> str:
    """Each layer's measured ms beside its MACs, bytes and CapsAcc cycles."""
    lines = [
        f"perfbench layer report: {workload.name}, {ops} traced ops",
        "ms = inclusive wall time per image; MACs from analysis/arch_stats.py;",
        "bytes = tensor sizes (layer input + output activations + weights) per image,",
        "computed, not counted by hardware; cycles = hw/capsacc.py prediction for",
        "the same layer at the workload's quantization config.",
        f"{'layer':<22} {'ms/image':>10} {'MMACs':>10} {'GMAC/s':>8} {'MB':>8} "
        f"{'kcycles':>10}",
    ]
    for row in workload.layer_rows(tracer, ops):
        seconds = row["ms_per_image"] / 1e3
        rate = row["macs"] / seconds / 1e9 if seconds else 0.0
        lines.append(
            f"{row['layer']:<22} {row['ms_per_image']:>10.3f} {row['macs'] / 1e6:>10.2f} "
            f"{rate:>8.2f} {row['bytes'] / 1e6:>8.2f} {row['capsacc_cycles'] / 1e3:>10.1f}"
        )
    lines.append("per-layer metrics:")
    lines.extend(f"  {name:<46} {value:>12.4f} {unit}"
                 for name, (value, unit) in metrics.items() if value)
    return "\n".join(lines)
