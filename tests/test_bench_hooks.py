"""The benchmark's trace hooks and checker still fit the package.

`bench/spans.py` patches the arithmetic methods it times on the class that
defines them, so a refactor that moves one to a base class or renames it
breaks a traced benchmark run; and `bench/workloads.py` checks each command
against frozen check names, digests, counts and controls.  These tests catch
a break of either in the unit suite.  A traced run must also see every operand
draw, so the per-layer draw metrics cannot silently read 0.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import tidlab.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(capsys, argv: list[str]):
    """Run the CLI under the span recorder; it must pass, record spans and restore every patch."""
    recorder = _load_spans().SpanRecorder()
    try:
        recorder.install()
        patched = list(recorder._patches)
        code = tidlab.cli.main(argv)
    finally:
        recorder.uninstall()
    capsys.readouterr()
    assert code == 0
    assert len(recorder) > 0
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    return recorder


def test_span_recorder_installs_runs_and_restores(capsys):
    _traced_run(capsys, ["verify", "jacobi", "--dim", "2", "--seeds", "1", "--json"])


def test_span_recorder_traces_the_exact_route(capsys):
    # a words refactor that breaks a traced exact run fails here, not only in the benchmark
    _traced_run(capsys, ["verify", "all", "--mode", "symbolic", "--json"])


def test_span_recorder_counts_each_draw_once(capsys):
    # the run draws each seed's 4 matrices and 5 pairs once, through the two spanned public functions
    recorder = _traced_run(capsys, ["verify", "all", "--dim", "3", "--seeds", "1..3", "--json"])
    spans = Counter(recorder.names[i] for i in recorder.name_id)
    assert (spans["tensors.random_tensor"], spans["graded.random_graded_pair"]) == (12, 15)


def test_every_workload_passes_the_benchmark_checker(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    Outcomes = importlib.import_module("checker").Outcomes
    for name, build in workloads.BUILDERS.items():
        workload, out, first = build(0, tmp_path), Outcomes(), {}
        workloads.run_pass(workload.warmup, out, first)
        workloads.run_pass(workload.commands, out, first)
        assert out.fail_frac() == 0.0, (name, out.failures)
