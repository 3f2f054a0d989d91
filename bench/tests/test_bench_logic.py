"""Tests of the benchmark's own logic (not of koopstab).

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import compare
import layers
import run
import stats
import workloads
from koopstab import autodiff, trainer
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ---------------------------------------------------------

def test_tail_needs_ten_samples_beyond_it():
    n = stats.samples_needed(95)
    assert stats.samples_beyond(n, 95) >= 10
    assert stats.samples_beyond(n - 1, 95) < 10
    with pytest.raises(ValueError):
        stats.percentile(list(range(n - 1)), 95)
    assert stats.samples_needed(99) > 900


def test_percentile_matches_linear_interpolation():
    rng = np.random.default_rng(0)
    samples = list(rng.exponential(size=400))
    for q in (50, 90, 95):
        assert stats.percentile(samples, q) == pytest.approx(np.percentile(samples, q),
                                                             rel=1e-12)


# -- self time on nested spans -----------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    # root [0, 100]; children [10, 30] and [25, 50] overlap by 5; a
    # grandchild [12, 20] sits inside the first child; a child that runs
    # past its parent is clipped
    start = [0, 10, 25, 12, 90]
    end = [100, 30, 50, 20, 120]
    parent = [-1, 0, 0, 1, 0]
    assert self_times(start, end, parent) == [100 - 40 - 10, 20 - 8, 25, 8, 30]


def test_tracer_records_nesting_and_self_time():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    tracer.begin_run("op:0")
    outer()
    names = [tracer.span_name(i) for i in range(len(tracer))]
    assert names == ["outer", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.run_labels[tracer.run[2]] == "op:0"
    # outer 0..50, inners 10..20 and 30..40
    assert tracer.self_times() == [30, 10, 10]


# -- inputs are a function of the seed ---------------------------------------

@pytest.mark.parametrize("name", ["train_fullbatch", "train_minibatch_wide"])
def test_seed_regenerates_byte_identical_training_inputs(tmp_path, name):
    def files(seed, sub):
        w = workloads.make(name, seed, tmp_path / sub)
        w.prepare()
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    first, again, other = files(5, "a"), files(5, "b"), files(6, "c")
    assert first == again
    assert first.keys() == other.keys() and first != other


# -- wrappers never outlive the traced run -----------------------------------

def _originals():
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _, _ in layers.targets()}


def test_tracer_removes_every_wrapper():
    before = _originals()
    tracer = Tracer()
    tracer.install(layers.targets())
    assert layers.still_wrapped()
    tape = autodiff.Tape()
    x = tape.leaf(np.ones((2, 2)))
    tape.backward(autodiff.sum_sq_norm(autodiff.matmul(x, x)))
    tracer.remove()
    assert layers.still_wrapped() == []
    assert _originals() == before
    assert tracer.counts["autodiff.tape_nodes"] == 2
    assert {tracer.span_name(i) for i in range(len(tracer))} >= {
        "autodiff.matmul", "autodiff.backward"}


def test_wrappers_are_removed_when_a_unit_raises():
    class Failing:
        def run_unit(self, k):
            if k == 1:  # the first traced unit
                trainer.adam_step({}, {"x": 1}, None, None)  # raises ContractError
            return None

        def check(self, k, raw):
            assert layers.still_wrapped() == []
            return workloads.UnitResult([0.1], 0.1, 1, 0)

    before = _originals()
    with pytest.raises(Exception, match="parameter and gradient names differ"):
        run.measure(Failing(), 10.0, 1, Tracer(), layers.targets())
    assert layers.still_wrapped() == []
    assert _originals() == before


# -- set-up probes are spread over the measuring loop -----------------------

def test_setup_probes_are_spread_over_the_loop(tmp_path):
    args = run.parse_args(["--workload", "train_fullbatch", "--seed", "1", "--seconds", "8"])
    timer = run.SetupTimer(args, tmp_path, tmp_path, count=4)
    timer.probe = lambda: timer.times.append(1.0)
    done = []
    for progress in (0.1, 0.3, 0.3, 0.6, 2.0):
        timer.run_due(progress)
        done.append(len(timer.times))
    # probe i is due once i/4 of the loop has passed
    assert done == [1, 2, 2, 3, 4]
    timer.times.clear()
    timer.run_due(0.1)
    assert timer.finish() == [1.0] * 4


# -- determinism bookkeeping -------------------------------------------------

def test_digest_mismatch_within_a_run_is_a_failure():
    units = [workloads.UnitResult([0.1], 0.1, 1, 0, key=f"seed {k % 2}", digest=d)
             for k, d in enumerate(["a", "b", "a", "c"])]
    failures = []
    assert run.digests_by_key(units, failures) == {"seed 0": "a", "seed 1": "b"}
    assert len(failures) == 1 and "input seed 1" in failures[0]


def test_ledger_records_then_checks(tmp_path):
    ledger = tmp_path / "digests.json"
    assert run.check_ledger(ledger, "k", "abc") is None
    assert run.check_ledger(ledger, "k", "abc") is None
    assert "differs" in run.check_ledger(ledger, "k", "abd")
    assert json.loads(ledger.read_text()) == {"k": "abc"}


# -- comparing results -------------------------------------------------------

def _record(value, **facts):
    base_facts = {key: "x" for key in ("nproc", "cpu_model", "blas_name", "blas_version",
                                       "blas_threads", "python", "numpy", "scipy")}
    base_facts.update(facts)
    return {"workload": "train_fullbatch", "trace": 0, "facts": base_facts,
            "metrics": {"op_ms_p95": {"value": value, "unit": "ms"}},
            "unbounded": {"ops_per_s": {"value": 1e3 / value, "unit": "1/s"}}}


def test_compare_refuses_different_machine_facts(tmp_path, capsys):
    paths = []
    for k, rec in enumerate([_record(10.0), _record(10.0, blas_threads=2)]):
        paths.append(tmp_path / f"{k}.json")
        paths[-1].write_text(json.dumps(rec))
    assert compare.main([str(paths[0]), "--vs", str(paths[1])]) == 2
    assert "blas_threads" in capsys.readouterr().err


def test_compare_flags_a_regression_beyond_the_bound():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "op_ms_p95")
    base = [_record(10.0)] * 3
    lines, regressed = compare.compare(base, [_record(10.0 * (1 + bound / 2))] * 3, bench)
    assert not regressed
    assert any(line.startswith("ops_per_s") for line in lines)
    _, regressed = compare.compare(base, [_record(10.0 * (1 + 2 * bound))] * 3, bench)
    assert regressed


# -- BENCHMARK.json and the code agree ---------------------------------------

def test_benchmark_json_names_what_the_runner_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
