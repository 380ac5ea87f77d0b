"""Self-test of the benchmark at acceptance-suite scale (5 identities, 100 frames).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _bench(trace, cwd=ROOT):
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", "smoke",
            "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit():
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(_bench(trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in spec[key]}


def test_wrong_pinned_hash_counts_as_failed():
    for field in ("results", "emb"):
        pins = _load(bench.PINS)
        assert "3" in pins["smoke"], "smoke seed 3 must be pinned"
        pins["smoke"]["3"][field] = "0" * 64
        result = bench.run("smoke", 3, 1, 0, pins)
        assert not result["correct"]
        assert result["failed"] >= 1 and result["attempted"] > result["failed"]


def test_results_check_rejects_a_box_the_input_never_had(tmp_path):
    det = tmp_path / "det.txt"
    det.write_text("1,-1,10.0,20.0,40.0,40.0,0.95,0,-1\n"
                   "1,-1,90.5,20.0,40.0,40.0,0.9,0,-1\n")
    res = tmp_path / "res.txt"
    res.write_text("1,1,10.000000,20.000000,40.000000,40.000000,0.950000,0,-1\n"
                   "1,2,90.500000,20.000000,40.000000,40.000000,0.900000,0,-1\n")
    assert bench.check_results(res, bench.detection_keys(det)) == ([], 2)
    res.write_text("1,1,10.000000,20.000000,40.000000,40.000000,0.950000,0,-1\n"
                   "1,2,10.000000,20.000000,40.000000,40.000000,0.950000,0,-1\n")
    problems, _ = bench.check_results(res, bench.detection_keys(det))
    assert problems


def test_eval_check_rejects_inconsistent_scores():
    scores = {"mota": "0.900000", "idf1": "0.894737", "idsw": 0, "fp": 0, "fn": 10}
    assert bench.check_eval(scores, num_gt=100, num_pred=90) == []
    assert bench.check_eval({**scores, "idsw": 1}, num_gt=100, num_pred=90)
    assert bench.check_eval({**scores, "fp": 5}, num_gt=100, num_pred=90)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
