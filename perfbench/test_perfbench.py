"""Self-tests of the benchmark: span arithmetic, tracer robustness, and checks that can fail.

    python3 -m pytest perfbench -q

Nothing here runs the library's numerics: the check tests replay the
recorded reference outputs through a stand-in for `openchaos.cli.run`.
"""

import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import checks
import run
import tracer as tracing
from tracer import Span, layer_metrics, self_times, union_length


# ---------------------------------------------------------------------------
# span arithmetic


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert union_length([(5, 6), (0, 1), (0.5, 2)]) == 3.0


def _span(sid, parent, layer, start, end, tid=1, note=None):
    return Span(sid, parent, layer, layer, start, end, 1, tid, note)


def test_self_time_of_nested_spans_on_one_thread():
    spans = [
        _span(0, None, "cli.run", 0.0, 10.0),
        _span(1, 0, "diagnostics.channel_diagnostics", 1.0, 7.0),
        _span(2, 1, "pqc.apply_channel", 2.0, 3.0),
        _span(3, 1, "pqc.apply_channel", 4.0, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 4.0, 1: 3.0, 2: 1.0, 3: 2.0}


def test_self_time_with_children_overlapping_across_threads():
    # The run (thread 1) has a child on its own thread and two adopted spans
    # on worker threads 2 and 3 that overlap each other and the first child.
    spans = [
        _span(0, None, "cli.run", 0.0, 10.0, tid=1),
        _span(1, 0, "diagnostics.reduce", 1.0, 3.0, tid=1),
        _span(2, 0, "diagnostics.channel_diagnostics", 2.0, 6.0, tid=2),
        _span(3, 0, "diagnostics.channel_diagnostics", 5.0, 8.0, tid=3),
        _span(4, 2, "pqc.apply_channel", 3.0, 4.0, tid=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(3.0)  # 10 - |[1, 8]|
    assert selfs[2] == pytest.approx(3.0)
    m = layer_metrics(spans)
    assert m["cli.run.self_s"] == pytest.approx(3.0)
    # busy adds thread time: 4 + 3 on two threads overlapping for 1 s
    assert m["diagnostics.channel_diagnostics.busy_s"] == pytest.approx(7.0)
    assert m["cli.concurrency"] == pytest.approx((2 + 4 + 3) / 10)


def test_nested_calls_of_one_layer_count_busy_time_once():
    spans = [
        _span(0, None, "spectral.classify", 0.0, 5.0),
        _span(1, 0, "spectral.classify", 1.0, 2.0),
    ]
    m = layer_metrics(spans)
    assert m["spectral.classify.calls"] == 2
    assert m["spectral.classify.busy_s"] == pytest.approx(5.0)
    assert m["spectral.classify.self_s"] == pytest.approx(5.0)


def test_derived_counters():
    spans = [
        _span(0, None, "pqc.channel_init", 0.0, 1.0, note=(1, 2, 32)),
        _span(1, None, "pqc.channel_init", 1.0, 2.0, note=(1, 2, 32)),
        _span(2, None, "spectral.eigenvalues", 2.0, 4.0, note="a"),
        _span(3, None, "spectral.eigenvalues", 4.0, 6.0, note="b"),
        _span(4, None, "spectral.eigenvalues", 6.0, 8.0, note="a"),
        _span(5, None, "dephasing.ed_sff", 8.0, 9.0, note=(400, 100)),
    ]
    m = layer_metrics(spans)
    assert m["pqc.rotation_reuse"] == pytest.approx(0.5)
    assert m["spectral.eigensolve_reuse"] == pytest.approx(2 / 3)
    assert m["spectral.eigenvalues.s_per_call"] == pytest.approx(2.0)
    assert m["dephasing.pair_evals"] == 40000
    assert m["dephasing.max_temp_mb"] == pytest.approx(0.32)
    assert m["pqc.apply_channel.calls"] == 0 and m["pqc.apply_channel.p99_us"] == 0.0


# ---------------------------------------------------------------------------
# the tracer on a stand-in module


@pytest.fixture
def fakelib(monkeypatch):
    mod = types.ModuleType("perfbench_fakelib")

    def leaf(x):
        return x + 1

    def work(x):
        return mod.leaf(x) * 2

    def run(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.work, xs))

    mod.leaf, mod.work, mod.run = leaf, work, run
    monkeypatch.setitem(sys.modules, "perfbench_fakelib", mod)
    return mod


def test_tracer_adopts_worker_spans_and_reports_missing_sites(fakelib):
    sites = (
        ("cli.run", "perfbench_fakelib", "run", None),
        ("diagnostics.channel_diagnostics", "perfbench_fakelib", "work", None),
        ("pqc.apply_channel", "perfbench_fakelib", "leaf", None),
        ("spectral.eigenvalues", "perfbench_fakelib", "gone", None),
        ("spectral.ratios", "perfbench_fakelib_absent_module", "anything", None),
    )
    original = fakelib.leaf
    t = tracing.Tracer(sites)
    t.install()
    try:
        assert fakelib.run([1, 2, 3, 4]) == [4, 6, 8, 10]
    finally:
        t.uninstall()
    assert fakelib.leaf is original
    assert t.missing == ["perfbench_fakelib.gone", "perfbench_fakelib_absent_module.anything"]
    by_layer = {}
    for s in t.spans:
        by_layer.setdefault(s.layer, []).append(s)
    (root,) = by_layer["cli.run"]
    assert all(s.parent == root.sid for s in by_layer["diagnostics.channel_diagnostics"])
    assert {s.tid for s in by_layer["diagnostics.channel_diagnostics"]} - {threading.get_ident()}
    work_ids = {s.sid for s in by_layer["diagnostics.channel_diagnostics"]}
    assert all(s.parent in work_ids for s in by_layer["pqc.apply_channel"])
    m = layer_metrics(t.spans)
    assert m["pqc.apply_channel.calls"] == 4
    assert m["spectral.eigenvalues.calls"] == 0 and m["spectral.eigenvalues.busy_s"] == 0.0


def test_tracer_sites_resolve_against_the_library():
    assert run.import_library() is not None
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == []


# ---------------------------------------------------------------------------
# output checks that can fail


class ReplayCli:
    """Stand-in for openchaos.cli: `run` writes the recorded reference outputs."""

    def __init__(self, reference, edit=None):
        self.cli = run.import_library()
        self.reference = reference
        self.edit = edit
        self.calls = 0

    def load_config(self, path):
        return self.cli.load_config(path)

    def run(self, cfg, workers=1):
        k = self.calls
        self.calls += 1
        out = Path(cfg.output_dir)
        out.mkdir(parents=True)
        texts = dict(self.reference["artifacts"][k])
        if self.edit is not None:
            self.edit(k, texts)
        manifest = dict(self.reference["manifests"][k])
        for name, text in texts.items():
            (out / name).write_text(text)
        (out / "manifest.json").write_text(json.dumps(manifest))
        return manifest


def _replay(tmp_path, workload_name, seed, edit=None):
    workload = run.WORKLOADS[workload_name]
    paths = run.write_configs(workload, seed, 0, tmp_path)
    reference = checks.load_reference(run.REFERENCE_DIR / f"{workload_name}.json.gz")
    cli = ReplayCli(reference, edit)
    used = reference if seed == run.DEFAULT_SEED else None
    return run.run_pass(cli, workload, paths, tmp_path / "pass", used)


def _scale_value(text, row, col, factor):
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reference_outputs_pass(tmp_path, workload):
    record = _replay(tmp_path, workload, run.DEFAULT_SEED)
    assert record["failed"] == 0, record["problems"]
    assert record["ops"] > 0
    assert record["sha256_equal"] == record["sha256_total"] > 0


def test_value_beyond_tolerance_fails_its_op(tmp_path):
    def edit(k, texts):
        if k == 0:
            name = "pqc-sff_tau0.2_eps0.5.csv"
            texts[name] = _scale_value(texts[name], 40, 1, 1 + 1e-6)

    record = _replay(tmp_path, "channel-ensemble", run.DEFAULT_SEED, edit)
    assert record["failed"] == 1
    assert record["problems"][0]["op"] == "tau0.2_eps0.5"


def test_value_within_tolerance_passes(tmp_path):
    def edit(k, texts):
        if k == 0:
            name = "pqc-sff_tau0.2_eps0.5.csv"
            texts[name] = _scale_value(texts[name], 40, 1, 1 + 1e-11)

    assert _replay(tmp_path, "channel-ensemble", run.DEFAULT_SEED, edit)["failed"] == 0


def test_moved_eigenvalue_fails(tmp_path):
    def edit(k, texts):
        if k == 0:
            name = "spectrum_tau1_eps0.2.csv"
            texts[name] = _scale_value(texts[name], 10, 0, 1 + 1e-5)

    record = _replay(tmp_path, "spectra", run.DEFAULT_SEED, edit)
    assert record["failed"] == 1
    assert record["problems"][0]["op"] == "tau1_eps0.2"


def test_invariant_fails_without_a_reference(tmp_path):
    # Another seed: no reference applies, so only the invariants can catch it.
    def edit(k, texts):
        if k == 0:
            name = "pqc-sff_tau0.02_eps0.05.csv"
            texts[name] = _scale_value(texts[name], 1, 1, 1.1)  # SFF(0) = 1.1

    record = _replay(tmp_path, "channel-ensemble", run.DEFAULT_SEED + 1, edit)
    assert record["failed"] >= 1
    assert any("SFF(0)" in p for prob in record["problems"] for p in prob["problems"])


def test_missing_artifact_fails(tmp_path):
    def edit(k, texts):
        if k == 1:
            texts.pop("ed-sff_gamma0.1.csv")

    record = _replay(tmp_path, "dephasing-sweep", run.DEFAULT_SEED, edit)
    assert record["failed"] >= 1
