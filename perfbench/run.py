#!/usr/bin/env python3
"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload query-cold --seed 1 --seconds 10 \
        --trace 0

Run from the root of a checkout.  The workload runs in a child process
(``workloads.py``) in its own session, under a watchdog: a run that hangs
is killed after ``WATCHDOG_S`` and reported as a failed run with a
message, so that the whole run still ends within three minutes.
Whatever happens, every process of that session (the driver, Ray's
daemons and workers) is killed and waited for, and the run's private
directories are removed.

The last line of standard output is the result JSON: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The lines before it list every measured number with its
unit and sample count, and the host probe.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "open_source_search_engine_ray"
WATCHDOG_S = 150          # a run normally takes under a minute
# AF_UNIX socket paths are capped at 107 bytes and Ray puts its sockets at
# <temp_dir>/session_<date>_<pid>/sockets/plasma_store (~64 bytes)
RAY_DIR_MAX = 40


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _session_pids(sid: int, marker: str) -> list[int]:
    """Processes in session ``sid`` or whose command line names
    ``marker`` (Ray daemons that left the session)."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read().decode(errors="replace")
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] == "Z":
            continue
        if int(fields[3]) == sid or marker in cmd:
            out.append(int(name))
    return out


def _kill_all(sid: int, marker: str, timeout: float = 10.0) -> list[int]:
    """SIGKILL what is left of the run and wait until it is gone."""
    deadline = time.monotonic() + timeout
    left = _session_pids(sid, marker)
    while left and time.monotonic() < deadline:
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
        left = _session_pids(sid, marker)
    return left


def _short_dir(base: str, tag: str) -> str:
    """An absolute directory for Ray's session files, short enough for
    its socket paths: under the checkout when possible, else in the
    system temporary directory (removed with the run)."""
    path = os.path.join(base, f"r{tag}")
    if len(path) <= RAY_DIR_MAX:
        os.makedirs(path)
        return path
    return tempfile.mkdtemp(prefix=f"pbr{tag}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus and batch size factor (tests use a tiny "
                         "scale)")
    a = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        print(f"perfbench: no {PACKAGE}/ package at {ROOT}; run from the "
              f"root of a checkout of the search engine", file=sys.stderr)
        return 2
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        print(f"perfbench: unknown workload {a.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    wanted = bench["per_layer" if a.trace else "end_to_end"]

    work = os.path.join(ROOT, ".perfbench")
    # the trailing "x" keeps one run's tag from being a prefix of another's
    tag = f"{os.getpid()}x"
    run_dir = os.path.join(work, "tmp", f"{a.workload}-{a.seed}-{tag}")
    os.makedirs(run_dir)
    ray_dir = _short_dir(os.path.join(work, "tmp"), tag)
    trace_out = None
    if a.trace:
        os.makedirs(os.path.join(work, "traces"), exist_ok=True)
        trace_out = os.path.join(work, "traces",
                                 f"{a.workload}-seed{a.seed}.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p)
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env["TMPDIR"] = run_dir
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--run-dir", run_dir, "--ray-dir", ray_dir,
           "--scale", str(a.scale)]
    if trace_out:
        cmd += ["--trace-out", trace_out]

    err_path = os.path.join(work, f"last-{a.workload}.stderr")
    hung = False
    with open(err_path, "w") as err:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                 stdout=subprocess.PIPE, stderr=err,
                                 start_new_session=True, text=True)
        try:
            out, _ = child.communicate(timeout=WATCHDOG_S)
        except subprocess.TimeoutExpired:
            hung = True
            os.killpg(child.pid, signal.SIGKILL)
            out, _ = child.communicate()
    left = _kill_all(child.pid, ray_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(ray_dir, ignore_errors=True)
    if left:
        print(f"perfbench: processes {left} survived SIGKILL",
              file=sys.stderr)

    lines = out.strip().splitlines()
    if hung or child.returncode != 0 or not lines:
        why = (f"watchdog: no result after {WATCHDOG_S} s, run killed"
               if hung else f"workload exited with {child.returncode}")
        print(f"perfbench: {a.workload} seed {a.seed} failed: {why}; "
              f"stderr in {os.path.relpath(err_path, ROOT)}",
              file=sys.stderr)
        with open(err_path) as f:
            sys.stderr.write("".join(f.readlines()[-20:]))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    res = json.loads(lines[-1])
    info, got = res["info"], res["metrics"]
    print(f"# {a.workload} seed={a.seed} seconds={a.seconds} "
          f"trace={a.trace} num_cpus={info['num_cpus']} "
          f"turns={info['turns']} wall_s={info['wall_s']}")
    for when in ("probe_before", "probe_mid", "probe_after"):
        print(f"# host {when}: {json.dumps(info.get(when))}")
    if "slice_p50_ms" in info:
        print(f"# query p50 of each slice: {info['slice_p50_ms']} ms")
    for name, (value, unit, n) in sorted(got.items()):
        print(f"{name} = {value:.6g} {unit} (n={n})" if n else
              f"{name} = 0 (layer not run by this workload)")
    for note in info.get("notes", []):
        print(f"# note: {note}")
    for msg in res["wrong"]:
        print(f"WRONG: {msg}")
    for msg in res["errors"]:
        print(f"ERROR: {msg}")
    if trace_out:
        print(f"# spans: {os.path.relpath(trace_out, ROOT)}")

    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        print(f"perfbench: workload did not measure {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": got[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not res["wrong"],
                      "attempted": max(1, int(res["attempted"])),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
