"""Benchmark of the ``cuelex`` command on seeded synthetic workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``./src``.
Inputs are generated under ``.bench_work/`` from the seed (untimed).  The
workload's command sequence then runs as a closed loop with one client: each
command is a fresh ``python -m cuelex.cli`` process, started only after the
previous one exited.  Set-up probes run first, which also compiles the
program's bytecode and reads the inputs into the page cache.  Passes then
repeat until ``S`` seconds of them have run (at least two).  The first
pass's outputs go through the independent oracles in ``oracles.py``, and
every later pass must reproduce its ``--reproducible`` artifacts byte for
byte.  A command that exits non-zero or fails a check counts as a failed
operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones (``child.py trace``) and reports the
per-layer metrics of ``layers.py``.  The last line of standard output is the
JSON result; the line before it holds the run's details (input sizes and
sha256, commands, artifact digests, problems found, environment).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layers

SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 120
BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("retrieval", "scoring", "corpus-analytics", "judgment")


def _spawn(cmd, cwd, env, log) -> dict:
    """Run one process to completion; wall time, max RSS and CPU come from wait4."""
    with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"code": code, "wall": wall, "maxrss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime}


class Launcher:
    """A small process, forked before the benchmark grows, that starts every measured command.

    Linux carries a process's peak RSS across fork and exec into the child's
    own peak, so a command started by the benchmark process itself, after it
    generated and checked large inputs, would report the benchmark's peak
    instead of its own.  Requests and replies are JSON lines over pipes.
    """

    def __init__(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the launcher: serve until the request pipe closes
            os.close(req_w)
            os.close(rep_r)
            with os.fdopen(req_r) as requests, os.fdopen(rep_w, "w") as replies:
                for line in requests:
                    replies.write(json.dumps(_spawn(*json.loads(line))) + "\n")
                    replies.flush()
            os._exit(0)
        os.close(req_r)
        os.close(rep_w)
        self._requests = os.fdopen(req_w, "w")
        self._replies = os.fdopen(rep_r)

    def run(self, cmd: list[str], cwd: Path, env: dict, log: Path) -> dict:
        self._requests.write(json.dumps([cmd, str(cwd), env, str(log)]) + "\n")
        self._requests.flush()
        return json.loads(self._replies.readline())

    def close(self) -> None:
        self._requests.close()
        self._replies.close()
        os.waitpid(self.pid, 0)


@dataclass
class Pass:
    traced: bool
    procs: dict[str, dict] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    warnings: int = 0
    bytes_written: int = 0
    layers: dict[str, float] = field(default_factory=dict)
    problems: dict[str, list[str]] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(p["wall"] for p in self.procs.values())


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    def __init__(self, launcher: Launcher, root: Path, work: Path, plan):
        self.launcher = launcher
        self.work = work
        self.logs = work / "logs"
        self.plan = plan
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def run_pass(self, index: int, traced: bool) -> Pass:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        result = Pass(traced)
        for step, argv in self.plan.steps:
            log = self.logs / f"{index}-{step}"
            if traced:
                cmd = [sys.executable, str(BENCH_DIR / "child.py"), "trace", f"{log}.spans", "--", *argv]
            else:
                cmd = [sys.executable, "-m", "cuelex.cli", *argv]
            result.procs[step] = self.launcher.run(cmd, self.work, self.env, log)
        for step, _ in self.plan.steps:
            result.digests[step] = tree_digest(out / step) if (out / step).is_dir() else "missing"
            stderr = (self.logs / f"{index}-{step}.err").read_text(encoding="utf-8", errors="replace")
            result.warnings += sum("Warning" in line for line in stderr.splitlines())
        result.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if traced:
            traces = []
            for step, _ in self.plan.steps:
                spans_file = self.logs / f"{index}-{step}.spans"
                if spans_file.is_file():
                    traces.append(json.loads(spans_file.read_text(encoding="utf-8")))
                else:
                    result.problems.setdefault(step, []).append("traced command wrote no spans")
            result.layers, tree_problems = layers.from_traces(traces)
            if tree_problems:
                result.problems["trace"] = tree_problems
        return result

    def check(self, p: Pass) -> None:
        """Run the oracles on the outputs currently in ``out``."""
        for step, check in self.plan.checks.items():
            if p.procs[step]["code"] != 0:
                continue
            try:
                found = check(self.work / "out" / step)
            except Exception as exc:  # a malformed artifact fails its check, never the run
                found = [f"unreadable output: {exc!r}"]
            if found:
                p.problems.setdefault(step, []).extend(found)

    def setup_probe(self, index: int) -> dict:
        loaders = self.logs / "loaders.json"
        loaders.write_text(json.dumps(self.plan.loaders), encoding="utf-8")
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "setup", str(loaders)]
        return self.launcher.run(cmd, self.work, self.env, self.logs / f"setup-{index}")


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree (read from the files, no git needed)."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (root / ".git" / ref).is_file():
            return (root / ".git" / ref).read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy as np

    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {"nproc": os.cpu_count(), "ram_gib": round(ram, 2), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": git_sha(root)}


def run(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path):
    from workloads import WORKLOADS  # numpy and the generator: only after the launcher is forked

    (work / "in").mkdir(parents=True)
    (work / "logs").mkdir()
    plan = WORKLOADS[name](seed, work / "in")
    inputs = {p.name: {"bytes": p.stat().st_size, "sha256": file_sha256(p)} for p in sorted((work / "in").iterdir())}
    runner = Runner(launcher, root, work, plan)

    setups = [runner.setup_probe(i) for i in range(SETUP_PROBES)]
    passes: list[Pass] = []
    while (sum(p.wall for p in passes) < seconds or sum(not p.traced for p in passes) < 2
           or (trace and not any(p.traced for p in passes))):
        passes.append(runner.run_pass(len(passes), traced=trace and len(passes) % 2 == 1))
        if len(passes) == 1:  # the oracles read the first pass; later ones must match it byte for byte
            runner.check(passes[0])
            items = plan.items(work) if all(p["code"] == 0 for p in passes[0].procs.values()) else 0
    first = passes[0]

    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    for i, probe in enumerate(setups):
        attempted += 1
        if probe["code"] != 0:
            failed += 1
            problems.setdefault("setup", []).append(f"set-up probe {i} exited {probe['code']}")
    for i, p in enumerate(passes):
        for step, proc in p.procs.items():
            bad = list(first.problems.get(step, []))  # oracle findings hold for every identical pass
            if proc["code"] != 0:
                bad.append(f"pass {i}: exit status {proc['code']}")
            elif p.digests[step] != first.digests[step]:
                bad.append(f"pass {i}: artifacts differ from pass 0")
            if i:
                bad += p.problems.get(step, [])
            attempted += 1
            if bad:
                failed += 1
                problems.setdefault(step, []).extend(bad)
        if "trace" in p.problems:  # the traced pass's self times do not add up
            attempted += 1
            failed += 1
            problems.setdefault("trace", []).extend(p.problems["trace"])

    untraced = [p for p in passes if not p.traced]
    run_s = statistics.median(p.wall for p in untraced)
    if trace:
        traced = [p for p in passes if p.traced]
        metrics = {k: statistics.median(p.layers[k] for p in traced) for k in traced[0].layers}
        metrics.update({
            "cli.bytes_written": first.bytes_written,
            "proc.cpu_s": statistics.median(sum(pr["cpu_s"] for pr in p.procs.values()) for p in untraced),
            "proc.stderr_warnings": first.warnings,
            "proc.tracing_overhead_s": statistics.median(p.wall for p in traced) - run_s,
        })
        units = {k: unit for k, (unit, _) in layers.METRICS.items()}
    else:
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(p["wall"] for p in setups),
            "peak_rss_mb": statistics.median(max(pr["maxrss_mb"] for pr in p.procs.values()) for p in untraced),
            "items_per_s": items / run_s,
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "items_per_s": "items/s"}
    detail = {
        "workload": name, "seed": seed, "sizes": plan.sizes, "inputs": inputs,
        "commands": [["cuelex", *argv] for _, argv in plan.steps],
        "pass_walls_s": [round(p.wall, 4) for p in passes], "traced_passes": sum(p.traced for p in passes),
        "command_walls_s": {step: [round(p.procs[step]["wall"], 4) for p in passes] for step, _ in plan.steps},
        "setup_walls_s": [round(p["wall"], 4) for p in setups], "items_per_pass": items,
        "error_rate": failed / attempted, "artifact_digests": first.digests,
        "problems": {k: v[:5] for k, v in problems.items()}, "environment": environment(root),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cuelex" / "cli.py").is_file():
        print("bench: ./src/cuelex not found; run from the root of a cuelex checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    launcher = Launcher()  # before numpy and the inputs enlarge this process
    try:
        detail, result = run(launcher, args.workload, args.seed, args.seconds, bool(args.trace), root, work)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'error_rate':48s} {detail['error_rate']:>14.6g} ratio")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
