"""The benchmark's own tests.

    python3 -m pytest perfbench -q

The smoke runs start a private Ray session each (about half a minute per
workload on a small host).
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
NAMES = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _parquet_bytes(tbl) -> bytes:
    buf = io.BytesIO()
    pq.write_table(tbl, buf)
    return buf.getvalue()


def _inputs(seed: int):
    return (_parquet_bytes(gen.corpus(seed, 0, 120)),
            _parquet_bytes(gen.corpus(seed, 120, 10)),
            gen.cold_queries(seed, 500), gen.warm_pool(seed, 64),
            gen.zipf_replay(seed, 64, 1000).tolist(),
            gen.schedule_rng(seed).integers(0, 1 << 30, 8).tolist())


def test_same_seed_gives_identical_inputs():
    assert _inputs(7) == _inputs(7)


def test_other_seed_changes_every_input():
    a, b = _inputs(7), _inputs(8)
    for x, y in zip(a, b):
        assert x != y


def test_corpus_has_the_input_schema_and_a_seed_free_size():
    a, b = gen.corpus(1, 0, 50), gen.corpus(2, 0, 50)
    assert a.schema == b.schema == gen.TRANSCRIPTS_SCHEMA
    assert a.num_rows == b.num_rows
    assert set(a["role"].to_pylist()) <= {"user", "assistant", "tool",
                                          "system"}
    tools = [t for r, t in zip(a["role"].to_pylist(), a["tool"].to_pylist())
             if r == "tool"]
    assert tools and all(tools)


def test_benchmark_json_follows_its_limits():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    all_names = [w["name"] for w in BENCH["workloads"]] + \
        [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(all_names) == len(set(all_names))
    assert all(name.match(n) for n in all_names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert unit.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_prints_only_known_metrics(workload):
    # a traced run prints the end-to-end numbers of its untraced half too,
    # so it shows every name the workload can print
    p = _run(workload, 1)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert res["correct"] is True and res["failed"] == 0, p.stdout
    assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    printed = {ln.split(" = ")[0] for ln in lines[:-1] if " = " in ln}
    assert printed and printed <= NAMES, printed - NAMES
    assert {m["name"] for m in BENCH["end_to_end"]} <= printed


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert p.stdout.strip() == ""
