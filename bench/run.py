"""Run one koopstab benchmark workload and print its metrics.

Usage, from the repository root::

    python3 bench/run.py --workload train_fullbatch --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` alternates
untraced units with units whose layers are wrapped, and prints the
per-layer metrics and the tracing overhead. Every metric is printed as
``metric <name> = <value> <unit>``; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every output passed its check, 1 on
any correctness failure and 2 when the benchmark cannot run.

BLAS runs on one thread, pinned before numpy is imported. Inputs, span
dumps, result records and the digest ledger go under ``.bench_work/`` in
the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("train_fullbatch", "train_minibatch_wide")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_REPEATS = 5         # in-process set-ups per run (traced: data.* spans)
SETUP_PROBES = 20         # fresh processes timed for setup_s
TAIL_PERCENTILE = 95
MIN_TRACED_OPS = 20       # enough for a median
TIME_CAP_SECONDS = 120    # stop adding units here even if samples are short

# the bounded metrics of BENCHMARK.json; the host's speed switches between
# two modes every few seconds, which moves a run's median and mean by up to
# a third but leaves its p95 in the slow mode, so of the step times only
# the tail is bounded
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", f"op_ms_p{TAIL_PERCENTILE}": "ms",
                    "val_nmse": "1"}
UNBOUNDED_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "failed_share": "ratio",
                   "seed_val_nmse": "1", "step_window_share": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up on already prepared inputs in DIR, warm up, and exit
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload, seconds: float, min_ops: int, tracer=None, targets=(),
            setup_timer=None):
    """Run units until ``seconds`` have passed and each side timed ``min_ops`` ops.

    With a tracer, odd units run traced and even units untraced, so both
    sides see the same drift in machine speed; the wrappers are removed
    after every traced unit. A ``setup_timer`` runs its probes between
    units, spread over the loop; their time does not count toward
    ``seconds``. Returns (untraced units, traced units).
    """
    sides = ([], []) if tracer is not None else ([],)
    started = time.perf_counter()
    paused = 0.0
    k = 0
    while True:
        tracing = tracer is not None and k % 2 == 1
        if tracing:
            tracer.install(targets)
            tracer.begin_run(f"op:{k}")
        try:
            raw = workload.run_unit(k)
            if tracing:
                tracer.begin_run(f"check:{k}")
            unit = workload.check(k, raw)
        finally:
            if tracing:
                tracer.remove()
        sides[k % len(sides)].append(unit)
        k += 1
        elapsed = time.perf_counter() - started - paused
        timed = min(sum(len(u.op_seconds) for u in side) for side in sides)
        if elapsed >= TIME_CAP_SECONDS or (elapsed >= seconds and timed >= min_ops):
            return sides[0], sides[1] if tracer is not None else []
        if setup_timer is not None:
            probing = time.perf_counter()
            setup_timer.run_due(elapsed / seconds)
            paused += time.perf_counter() - probing


def digests_by_key(units, failures: list[str]) -> dict[str, str]:
    """One digest per input key; a unit that disagrees with an earlier one is a failure."""
    seen: dict[str, str] = {}
    for unit in units:
        if not unit.digest:
            continue
        first = seen.setdefault(unit.key, unit.digest)
        if first != unit.digest:
            failures.append(f"input {unit.key}: output digest {unit.digest[:12]} differs "
                            f"from {first[:12]} earlier in this run")
    return seen


def run_digest(by_key: dict[str, str]) -> str:
    return hashlib.sha256("".join(by_key[k] for k in sorted(by_key)).encode()).hexdigest()


def check_ledger(path: Path, key: str, digest: str) -> str | None:
    """Compare with the digest an earlier process recorded for ``key``; record it if new."""
    ledger = json.loads(path.read_text()) if path.exists() else {}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = digest
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    if earlier != digest:
        return f"output digest {digest[:12]} differs from {earlier[:12]} of an earlier run"
    return None


class SetupTimer:
    """Wall times of fresh processes that import, set up and warm up.

    Each probe process starts the interpreter, imports the benchmark and
    koopstab, runs the workload's set-up on the inputs already prepared in
    ``inputs`` and one warm-up unit, then exits: the time a user waits
    before the first timed operation. The probes are spread over the
    measuring loop so that they sample the machine's speed across the run.
    """

    def __init__(self, args, inputs: Path, root: Path, count: int):
        self.command = [sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--setup-probe", str(inputs)]
        self.root = root
        self.count = count
        self.times: list[float] = []

    def probe(self) -> None:
        started = time.perf_counter()
        # no timeout: waiting with one polls at up to 50 ms intervals
        subprocess.run(self.command, cwd=self.root, check=True, stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - started)

    def run_due(self, progress: float) -> None:
        """Run the probes that are due once ``progress`` of the loop has passed."""
        while len(self.times) < self.count and len(self.times) < progress * self.count:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < self.count:
            self.probe()
        return self.times


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "koopstab" / "__init__.py").is_file():
        print(f"bench: no koopstab sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    import workloads

    if args.setup_probe:
        workload = workloads.make(args.workload, args.seed, Path(args.setup_probe))
        workload.setup()
        workload.warm_up()
        return 0

    import facts
    import layers
    import stats
    from spans import Tracer

    work_root = root / ".bench_work"
    inputs = work_root / f"inputs-{os.getpid()}"
    for sub in ("results", "traces"):
        (work_root / sub).mkdir(parents=True, exist_ok=True)
    machine = facts.collect(root, BLAS_THREADS)
    workload = workloads.make(args.workload, args.seed, inputs)
    reference = workloads.make(args.workload, workloads.REFERENCE_SEED, inputs / "reference")
    tracer = Tracer() if args.trace else None
    setup_timer = SetupTimer(args, inputs, root, SETUP_PROBES) if tracer is None else None
    try:
        workload.prepare()
        reference.prepare()
        if tracer is not None:
            tracer.install(layers.targets())
        try:
            for r in range(SETUP_REPEATS):
                if tracer is not None:
                    tracer.begin_run(f"setup:{r}")
                workload.setup()
        finally:
            if tracer is not None:
                tracer.remove()
        reference.setup()
        workload.warm_up()
        reference_unit = reference.check(-1, reference.run_unit(-1))
        burn_in = [workload.check(-2 - k, workload.run_unit(-2 - k))
                   for k in range(workload.BURN_IN)]

        plain_units, traced_units = measure(
            workload, args.seconds,
            MIN_TRACED_OPS if tracer else stats.samples_needed(TAIL_PERCENTILE),
            tracer, layers.targets(), setup_timer)
        setup_probes = setup_timer.finish() if setup_timer is not None else []
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    units = [reference_unit] + burn_in + plain_units + traced_units
    failures = [f for unit in units for f in unit.failures]
    digest = run_digest(digests_by_key(units, failures))
    ledger_key = (f"{args.workload}|seed={args.seed}|blas_threads={machine['blas_threads']}|"
                  f"src={machine['source_sha256'][:16]}|"
                  f"bench={facts.source_digest(BENCH_DIR)[:16]}")
    mismatch = check_ledger(work_root / "digests.json", ledger_key, digest)
    if mismatch:
        failures.append(mismatch)
    leftover = layers.still_wrapped()
    if leftover:
        failures.append(f"tracing wrappers left installed: {', '.join(leftover)}")

    samples = [s for u in plain_units for s in u.op_seconds]
    window = sum(u.window_seconds for u in plain_units)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units) + (1 if mismatch or leftover else 0)
    unbounded = {
        "ops_per_s": len(samples) / window,
        "op_ms_p50": statistics.median(samples) * 1e3,
        "failed_share": failed / attempted,
        "seed_val_nmse": statistics.median(u.val_nmse for u in units[1:]),
        "step_window_share": sum(samples) / window,
    }
    if tracer is None:
        metrics = {
            # the fastest probe: slow-mode stretches only add to a probe's time
            "setup_s": min(setup_probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            f"op_ms_p{TAIL_PERCENTILE}": stats.percentile(samples, TAIL_PERCENTILE) * 1e3,
            "val_nmse": reference_unit.val_nmse,
        }
        units_of = END_TO_END_UNITS
    else:
        traced = [s for u in traced_units for s in u.op_seconds]
        metrics = layers.layer_metrics(tracer, len(traced))
        metrics["trainer.step_window_share"] = unbounded["step_window_share"]
        metrics["metrics.val_nmse"] = reference_unit.val_nmse
        metrics["trace.op_ms_mean"] = statistics.fmean(traced) * 1e3
        metrics["trace.overhead_share"] = (statistics.median(traced) * 1e3
                                           / unbounded["op_ms_p50"] - 1.0)
        units_of = layers.UNITS
        tracer.write(work_root / "traces" / f"{args.workload}.jsonl.gz")

    correct = not failures
    reported = {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "ops_timed": len(samples), "digest": digest, "facts": machine,
        "setup_probes_s": setup_probes,
        "metrics": reported,
        "unbounded": {name: {"value": value, "unit": UNBOUNDED_UNITS[name]}
                      for name, value in unbounded.items()},
        "failures": failures[:20],
    }
    (work_root / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                             f"{os.getpid()}.json").write_text(json.dumps(record, indent=1))

    for failure in failures[:20]:
        print(f"FAIL {failure}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(samples)} ops timed, {attempted} attempted, {failed} failed")
    print(f"digest {digest}")
    print("facts " + json.dumps({k: machine[k] for k in facts.COMPARABLE + ("commit",)}))
    for name, entry in record["unbounded"].items():
        print(f"unbounded {name} = {entry['value']!r} {entry['unit']}")
    for name, entry in reported.items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
