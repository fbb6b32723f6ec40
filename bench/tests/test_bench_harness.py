"""Tests of the benchmark harness itself (not of cuelex).

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import hashlib
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "retrieval": {"vocab": 3_000, "k": 10},
    "scoring": {"vocab": 3_000, "k": 10, "sentences": 300},
    "corpus-analytics": {"sentences": 400, "groups": 4},
    "judgment": {"vocab": 3_000, "unrelated": 20, "pairs_per_seed": (10, 3), "matrix": (50, 12)},
}


@pytest.fixture
def tiny(monkeypatch):
    for name, size in TINY.items():
        monkeypatch.setitem(workloads.SIZES, name, size)


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(tiny, tmp_path, name):
    made = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        inp = tmp_path / label
        inp.mkdir()
        workloads.WORKLOADS[name](seed, inp)
        made[label] = _digests(inp)
    assert made["a"] == made["b"]
    assert made["a"].keys() == made["c"].keys()
    assert all(made["a"][f] != made["c"][f] for f in made["a"] if f not in ("seeds.txt", "groups.json"))


def _one_similarity_changed(out: Path) -> None:
    path = out / "pairs_a.tsv"
    lines = path.read_text(encoding="utf-8").split("\n")
    row = next(i for i, line in enumerate(lines) if line and not line.startswith(("#", "seed\t")))
    fields = lines[row].split("\t")
    fields[2] = f"{float(fields[2]) - 0.001:.6f}"
    lines[row] = "\t".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("corrupt", [False, True])
def test_a_corrupted_pairs_file_is_counted_as_an_error(tiny, tmp_path, monkeypatch, corrupt):
    def plan_with_corruption(seed, inp):
        plan = workloads.retrieval(seed, inp)
        real = plan.checks["pipeline"]

        def check(out):
            if corrupt:
                _one_similarity_changed(out)
            return real(out)

        plan.checks["pipeline"] = check
        return plan

    monkeypatch.setitem(workloads.WORKLOADS, "retrieval", plan_with_corruption)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    launcher = run.Launcher()
    try:
        detail, result = run.run(launcher, "retrieval", 3, 0.0, False, ROOT, tmp_path / "work")
    finally:
        launcher.close()
    assert result["correct"] is not corrupt
    assert (detail["error_rate"] > 0) is corrupt
    assert result["attempted"] == 1 + 2  # one set-up probe, two passes of one command
    if corrupt:
        assert "brute force" in detail["problems"]["pipeline"][0]


def test_self_time_subtracts_the_union_of_overlapping_children():
    # root [0, 10] > expand [1, 9] > two top_k calls on worker threads, [2, 6] and [3, 8]
    tree = [
        spans.Span("cli.main", 0.0, 10.0),
        spans.Span("expansion.expand", 1.0, 9.0, parent=0),
        spans.Span("embeddings.top_k", 2.0, 6.0, parent=1),
        spans.Span("embeddings.top_k", 3.0, 8.0, parent=1),
    ]
    selfs = spans.self_times(tree)
    assert selfs == [2.0, 2.0, 4.0, 5.0]  # expand: 8 - |[2, 8]|, not 8 - (4 + 5)
    # self times add up to the root's 10 s plus the 3 s the two workers overlapped
    assert spans.check_tree(tree, selfs) == []
    outside = tree[:3] + [spans.Span("embeddings.top_k", 3.0, 9.5, parent=1)]
    assert any("outside its parent" in p for p in spans.check_tree(outside, spans.self_times(outside)))
    assert spans.check_tree(tree, [2.0, -1.0, 4.0, 5.0]) != []  # the naive subtraction is caught


def test_worker_thread_spans_attach_to_the_span_open_on_the_recording_thread():
    recorder = spans.Recorder()
    outer = recorder.begin("expansion.expand")
    started = threading.Barrier(2)

    def work(_):
        started.wait(timeout=10)
        idx = recorder.begin("embeddings.top_k")
        recorder.end(idx)
        return idx

    with ThreadPoolExecutor(max_workers=2) as pool:
        inner = list(pool.map(work, range(2)))
    recorder.end(outer)
    assert [recorder.spans[i].parent for i in inner] == [outer, outer]
    assert spans.check_tree(recorder.spans, spans.self_times(recorder.spans)) == []


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb", "items_per_s"}
