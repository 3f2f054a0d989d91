"""Where the traced run wraps koopstab, and how spans become per-layer metrics.

Every target is patched at the name its caller looks up: ``koopstab.model``
calls the tape operations through the ``koopstab.autodiff`` module, so
those are wrapped there; ``koopstab.trainer`` imported ``pgd_project``,
``barrier_values`` and ``sliding_window_loss`` by name, so those are
wrapped in the trainer's namespace as well as in their home modules.

Times are milliseconds per training step of the traced loop, except
``data.load_ms`` and ``data.preprocess_ms``, which are milliseconds per
program set-up.
"""

from __future__ import annotations

import numpy as np

from koopstab import autodiff, data, model, projection, stability, trainer
from spans import GC_SPAN, Tracer


def _count_tape(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["autodiff.tape_nodes"] += len(args[0])
    tracer.counts["autodiff.backward_calls"] += 1


def _count_windows(tracer: Tracer, args, kwargs, result) -> None:
    batch, weights = args[1], args[2]
    tracer.counts["model.windows"] += sum(len(states) - weights.horizon for states in batch)
    tracer.counts["model.loss_calls"] += 1


def _count_rows(tracer: Tracer, args, kwargs, result) -> None:
    K_tilde = np.asarray(args[0])
    tracer.counts["projection.rows_examined"] += result.shape[0]
    tracer.counts["projection.rows_moved"] += int(np.any(result != K_tilde, axis=1).sum())


def targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, count hook) for every wrapped callable."""
    out = [(autodiff, op, f"autodiff.{op}", None)
           for op in ("matmul", "matinv", "elementwise", "add_bias", "gather_cols")]
    out += [(autodiff, op, "autodiff.other", None)
            for op in ("add", "sub", "scale", "sum_sq_norm")]
    out += [
        (autodiff.Tape, "leaf", "autodiff.other", None),
        (autodiff.Tape, "backward", "autodiff.backward", _count_tape),
        (trainer, "sliding_window_loss", "model.loss_forward", _count_windows),
        (model.BoundModel, "encode", "model.encode", None),
        (model.BoundModel, "decode", "model.decode", None),
        (model.KoopmanModel, "encode", "model.encode", None),
        (model.KoopmanModel, "decode", "model.decode", None),
        (model.KoopmanModel, "predict_states", "model.predict", None),
        (trainer, "train", "trainer.train", None),
        (trainer, "adam_step", "trainer.adam", None),
        (trainer, "pgd_project", "projection.pgd_project", _count_rows),
        (projection, "pgd_project", "projection.pgd_project", _count_rows),
        (trainer, "barrier_values", "stability.barrier_values", None),
        (projection, "barrier_values", "stability.barrier_values", None),
        (stability, "barrier_values", "stability.barrier_values", None),
        (data, "load_manifest", "data.load", None),
        (data, "center_to_equilibrium", "data.preprocess", None),
        (data, "normalize", "data.preprocess", None),
    ]
    return out


def still_wrapped() -> list[str]:
    """Targets whose attribute is still a tracing wrapper (empty when clean)."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in targets()
            if hasattr(vars(owner)[attr], "__wrapped__")]


# unit of every per-layer metric the traced run reports
UNITS = {
    "autodiff.backward_ms": "ms", "autodiff.tape_nodes": "count",
    "autodiff.matmul_ms": "ms", "autodiff.elementwise_ms": "ms",
    "autodiff.add_bias_ms": "ms", "autodiff.gather_cols_ms": "ms",
    "autodiff.matinv_ms": "ms", "autodiff.other_ms": "ms",
    "model.loss_forward_ms": "ms", "model.encode_ms": "ms", "model.decode_ms": "ms",
    "model.windows_per_step": "count", "model.predict_ms": "ms",
    "runtime.gc_ms": "ms", "runtime.gc_collections": "1/op",
    "projection.pgd_ms": "ms", "projection.rows_moved_ratio": "ratio",
    "trainer.val_score_ms": "ms", "trainer.adam_ms": "ms", "trainer.step_self_ms": "ms",
    "trainer.step_window_share": "ratio",
    "stability.barrier_ms": "ms",
    "data.load_ms": "ms", "data.preprocess_ms": "ms",
    "metrics.val_nmse": "1",
    "trace.op_ms_mean": "ms", "trace.overhead_share": "ratio",
}

# per-op inclusive time of every span with one of these names
_OP_TIMES = {
    "autodiff.backward_ms": ("autodiff.backward",),
    "autodiff.matmul_ms": ("autodiff.matmul",),
    "autodiff.elementwise_ms": ("autodiff.elementwise",),
    "autodiff.add_bias_ms": ("autodiff.add_bias",),
    "autodiff.gather_cols_ms": ("autodiff.gather_cols",),
    "autodiff.matinv_ms": ("autodiff.matinv",),
    "autodiff.other_ms": ("autodiff.other",),
    "model.loss_forward_ms": ("model.loss_forward",),
    "model.encode_ms": ("model.encode",),
    "model.decode_ms": ("model.decode",),
    "model.predict_ms": ("model.predict",),
    "runtime.gc_ms": (GC_SPAN,),
    "projection.pgd_ms": ("projection.pgd_project",),
    "trainer.adam_ms": ("trainer.adam",),
    "stability.barrier_ms": ("stability.barrier_values",),
}

# per-set-up inclusive time
_SETUP_TIMES = {
    "data.load_ms": ("data.load",),
    "data.preprocess_ms": ("data.preprocess",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer values from the spans of runs labelled ``op:*`` and ``setup:*``.

    A span nested inside another span of the same name is not counted
    again, so re-entrant calls are not double-counted.
    """
    op_runs = {i for i, label in enumerate(tracer.run_labels) if label.startswith("op:")}
    setup_runs = {i for i, label in enumerate(tracer.run_labels)
                  if label.startswith("setup:")}
    op_ns: dict[str, int] = {}
    setup_ns: dict[str, int] = {}
    gc_collections = 0
    val_score_ns = 0
    train_self_ns = 0
    self_ns = tracer.self_times()
    for i in range(len(tracer)):
        name = tracer.span_name(i)
        if tracer.has_ancestor(i, name):
            continue
        duration = tracer.end[i] - tracer.start[i]
        if tracer.run[i] in setup_runs:
            setup_ns[name] = setup_ns.get(name, 0) + duration
        if tracer.run[i] not in op_runs:
            continue
        op_ns[name] = op_ns.get(name, 0) + duration
        if name == GC_SPAN:
            gc_collections += 1
        elif name == "model.predict" and tracer.has_ancestor(i, "trainer.train"):
            val_score_ns += duration
        elif name == "trainer.train":
            train_self_ns += self_ns[i]

    per_op = 1e-6 / n_ops
    per_setup = 1e-6 / max(len(setup_runs), 1)
    out = {metric: sum(op_ns.get(n, 0) for n in names) * per_op
           for metric, names in _OP_TIMES.items()}
    out.update({metric: sum(setup_ns.get(n, 0) for n in names) * per_setup
                for metric, names in _SETUP_TIMES.items()})
    counts = tracer.counts
    out["autodiff.tape_nodes"] = _ratio(counts["autodiff.tape_nodes"],
                                        counts["autodiff.backward_calls"])
    out["model.windows_per_step"] = _ratio(counts["model.windows"], counts["model.loss_calls"])
    out["runtime.gc_collections"] = gc_collections / n_ops
    out["projection.rows_moved_ratio"] = _ratio(counts["projection.rows_moved"],
                                                counts["projection.rows_examined"])
    out["trainer.val_score_ms"] = val_score_ns * per_op
    out["trainer.step_self_ms"] = train_self_ns * per_op
    return out
