"""schedbound benchmark: closed-loop CLI workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is taken from the
checkout's `src/`.  One client runs one workload command after another, each
as a fresh `python -m schedbound.cli` process with default flags, until S
seconds have passed, and checks every command's files.  Before each one it
times `schedbound repro list`, the set-up cost every CLI call pays; spreading
these samples over the run keeps their median from hanging on the machine's
state during a few seconds.  Each round also times a calibration process
that imports numpy and none of the program; the time metrics are scaled to
the speed at which it takes REFERENCE_S, against the host's speed drift.

Wall times are taken net of steal: the seconds, read from /proc/stat around
each command, in which the hypervisor ran other guests on this machine's
CPUs.  On a shared virtual machine steal comes and goes with the load of
other guests; it moved the median wall time of a 58-second run by up to
27 %.  The raw elapsed time and the steal stay in each command's record.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics:
then untraced commands alternate with commands run under `tracer.py`, and
the exact work counts must agree between all traced commands.  The last
stdout line is the JSON result; the lines above it give provenance and every
metric measured, and the full record goes to perfbench/_work/results/.
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
import time
from pathlib import Path

import numpy as np

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
MIN_COMMANDS = 3  # untraced commands per run, and traced commands with --trace 1
# The interpreter starting and importing what the CLI imports, but none of the program: its
# time follows the machine's speed and nothing else.  One or more run in every round, and
# each time metric is scaled by REFERENCE_S over their median (see NOTES.md, "Calibration").
CALIBRATION = ["-c", "import argparse, concurrent.futures, dataclasses, json, math, numpy"]
REFERENCE_S = 0.2
DEADLINE_S = 170.0  # a run must end within 180 s; a command still running then is killed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SCHEDBOUND_OUTDIR", None)  # outputs go to the command's working directory
    return env


def steal_s() -> float | None:
    """CPU seconds the hypervisor has given to other guests, summed over this machine's CPUs.

    The `steal` column of the first line of /proc/stat; None where there is none.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


class Client:
    """Runs commands one at a time and keeps one record per command."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.records: list[dict] = []

    def run(self, kind: str, argv: list[str], check=None) -> dict:
        """Run argv in a fresh empty directory; check(outdir, stdout) runs after the clock stops."""
        outdir = self.workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        stdout_path, stderr_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            s0 = steal_s()
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=outdir, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - t0
            s1 = steal_s()
        proc.returncode = os.waitstatus_to_exitcode(status)
        steal = None if s0 is None or s1 is None else s1 - s0
        rec = {
            "kind": kind,
            "elapsed_s": elapsed,
            "steal_s": steal,
            "wall_s": elapsed - (steal or 0.0),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "exit": proc.returncode,
            "error": None,
        }
        if proc.returncode != 0:
            rec["error"] = f"exit {proc.returncode}: {stderr_path.read_text(errors='replace')[-500:]}"
        elif check is not None:
            try:
                rec.update(check(outdir, stdout_path.read_text()) or {})
            except workloads.CheckError as exc:
                rec["error"] = f"check failed: {exc}"
        if rec["error"]:
            print(f"{kind} command failed: {rec['error']}", file=sys.stderr)
        self.records.append(rec)
        return rec


def check_list(outdir: Path, stdout: str):
    try:
        targets = json.loads(stdout)["targets"]
    except (ValueError, KeyError, TypeError) as exc:
        raise workloads.CheckError(f"repro list printed no target list: {exc}") from None
    if not targets:
        raise workloads.CheckError("repro list printed an empty target list")


def provenance(seed: int, all_workloads: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        revision = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "steal_counter": steal_s() is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "argv": {name: ["-m", "schedbound.cli", *w.argv] for name, w in all_workloads.items()},
    }


def measure(workload: workloads.Workload, seconds: int, trace: bool, client: Client) -> tuple[dict, bool]:
    """Metric name -> value, and whether the exact counts agreed across traced commands."""
    cli_argv = ["-m", "schedbound.cli", *workload.argv]
    traced_argv = [str(ROOT / "perfbench" / "tracer.py"), str(client.workdir / "spans.json"), *workload.argv]

    def check(outdir, stdout):
        return {"max_rel_err": workloads.check(workload, str(outdir))}

    def traced_check(outdir, stdout):
        result = check(outdir, stdout)
        with open(client.workdir / "spans.json", encoding="utf-8") as fh:
            result["layers"] = layers.layer_metrics(json.load(fh))
        return result

    start = time.monotonic()
    setup, calibration, plain, traced = [], [], [], []
    overhead = []  # traced minus untraced wall of the two commands of one round, run back to back
    last = 0.0  # duration of the previous round; a round that would mostly fall past `seconds` is not started
    while time.monotonic() < client.deadline and (
        time.monotonic() - start + last / 2 < seconds
        or len(plain) < MIN_COMMANDS
        or (trace and len(traced) < MIN_COMMANDS)
    ):
        round_start = time.monotonic()
        setup.append(client.run("setup", ["-m", "schedbound.cli", "repro", "list"], check_list))
        # about one calibration per 2 s of command, so that long commands get enough of them
        for _ in range(min(3, 1 + int(plain[-1]["elapsed_s"] // 2) if plain else 1)):
            calibration.append(client.run("calibration", CALIBRATION))
        order = [False, True] if len(plain) % 2 == 0 else [True, False]
        for with_trace in order if trace else [False]:
            if with_trace:
                traced.append(client.run("traced", traced_argv, traced_check))
            else:
                plain.append(client.run("untraced", cli_argv, check))
        if trace:
            overhead.append(traced[-1]["wall_s"] - plain[-1]["wall_s"])
        last = time.monotonic() - round_start

    def median(recs, key):
        return statistics.median(r[key] for r in recs)

    def trimmed_mean(recs, key):
        """Mean without the lowest and the highest value: robust to one stray command, like
        the median, but steadier from run to run, since it uses every other command."""
        values = sorted(r[key] for r in recs)
        return statistics.fmean(values[1:-1] if len(values) >= MIN_COMMANDS else values)

    raw = {
        "wall_s": trimmed_mean(plain, "wall_s"),
        "cpu_s": trimmed_mean(plain, "cpu_s"),
        "setup_s": median(setup, "wall_s"),
    }
    # like with like: wall times by the calibration's wall time, CPU time by its CPU time
    calibration_s = {key: median(calibration, key) for key in ("wall_s", "cpu_s")}
    metrics = {name: value * REFERENCE_S / calibration_s[name if name == "cpu_s" else "wall_s"]
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = median(plain, "peak_rss_mb")
    metrics["calibration.wall_s"] = calibration_s["wall_s"]
    metrics["calibration.cpu_s"] = calibration_s["cpu_s"]
    metrics.update({f"raw.{name}": value for name, value in raw.items()})
    if not trace:
        return metrics, True
    good = [r for r in traced if "layers" in r]
    if not good:
        raise SystemExit("no traced command succeeded; no per-layer metrics")
    per_run = [r["layers"] for r in good]
    agree = True
    for name in layers.COUNTS:
        values = {run[name] for run in per_run}
        if len(values) > 1:
            print(f"exact count {name} differs between traced runs: {sorted(values)}", file=sys.stderr)
            agree = False
    metrics.update({name: statistics.median(run[name] for run in per_run) for name in per_run[0]})
    metrics["trace.overhead_s"] = statistics.median(overhead)
    metrics["bounds.max_rel_err"] = max(r.get("max_rel_err", 0.0) for r in plain + traced)
    return metrics, agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "schedbound" / "cli.py").is_file():
        print(f"error: no schedbound source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    all_workloads = workloads.generate(args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    client = Client(workdir, deadline)
    try:
        metrics, counts_agree = measure(all_workloads[args.workload], args.seconds, bool(args.trace), client)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in client.records if r["error"])
    result = {
        "correct": failed == 0 and counts_agree,
        "attempted": len(client.records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    prov = provenance(args.seed, all_workloads)
    record = {"workload": args.workload, "trace": args.trace, "provenance": prov, "metrics": metrics,
              "commands": client.records, "result": result}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({f"raw.{name}": units[name] for name in ("wall_s", "cpu_s", "setup_s")})
    units.update({"calibration.wall_s": "s", "calibration.cpu_s": "s"})
    print(json.dumps({"provenance": prov}))
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units.get(name, '')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
