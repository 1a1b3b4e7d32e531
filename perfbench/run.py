#!/usr/bin/env python3
"""Build and run the benchmark from the repository root.

    python3 perfbench/run.py --workload search|fleet|serve --seed N \
        --seconds S --trace 0|1

builds the benchmark and the daemon from source with dune, runs one
workload and passes its output through; the last line of standard
output is the result object.

    python3 perfbench/run.py --selfcheck N --workload W [--seed-base B]
        [--seconds S] [--trace 0|1]

is the steadiness self-check: it runs the workload N times on seeds
B..B+N-1 (default 1) and prints, per metric, the median, the quartiles
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json, plus the ALU probe of every run, so a slow host phase
shows up as such.

The serve workload runs pinned to one CPU, together with the daemon it
starts (see pin_serve).
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

EXE = "_build/default/perfbench/main.exe"
RUN_TIMEOUT_S = 175


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    """Build the benchmark and the daemon; a non-zero code on failure."""
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root",
              file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet",
                "./perfbench/main.exe", "./bin/batsched.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    return proc.returncode


def run_once(args, capture):
    """Run the benchmark binary in its own process group, so that on a
    timeout the daemons it started go down with it."""
    proc = subprocess.Popen([EXE] + args, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 124, None
    return proc.returncode, out.decode() if capture else None


def pin_serve(args):
    """Pin a serve run, and so the daemon it spawns, to one CPU.

    With one request in flight, the client and the daemon never run at
    the same time, so sharing a CPU costs neither of them anything. On
    one CPU a round trip is two context switches; across two, a wake-up
    of an idle virtual CPU goes through the hypervisor, whose latency
    can depend on the host's load rather than the program. (Unpinned, a
    cache hit's latency once moved by a third between two sets of runs
    of unchanged code while the CPU-bound workloads held still.) The
    last allowed CPU is taken, since device interrupts usually land on
    CPU 0."""
    if option(args, "--workload", None) != "serve":
        return
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as e:
        print(f"perfbench: serve runs unpinned: {e}", file=sys.stderr)


def option(args, name, default):
    if name in args:
        return args[args.index(name) + 1]
    return default


def selfcheck(args):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    n = int(option(args, "--selfcheck", "10"))
    workload = option(args, "--workload", None)
    base = int(option(args, "--seed-base", "1"))
    seconds = option(args, "--seconds", str(spec["run_seconds"]))
    trace = option(args, "--trace", "0")
    key = "per_layer" if trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    values = {name: [] for name in bounds}
    for i in range(n):
        seed = base + i
        rc, out = run_once(["--workload", workload, "--seed", str(seed),
                            "--seconds", seconds, "--trace", trace], True)
        lines = [l for l in out.splitlines() if l.strip()] if out else []
        if rc != 0 or not lines:
            print(f"seed {seed}: exit {rc}")
            return 1
        result = json.loads(lines[-1])
        info = next((json.loads(l)["info"] for l in lines
                     if l.startswith('{"info"')), {})
        probe = info.get("alu_probe_ms", {})
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']}; {info.get('probes')} passes, ALU probe "
              f"min/median/max {probe.get('min', 0):.2f}/"
              f"{probe.get('median', 0):.2f}/{probe.get('max', 0):.2f} ms; "
              f"loadavg {info.get('loadavg')}; "
              f"CPUs {info.get('cpus_allowed')}", flush=True)
        print("    " + " ".join(f"{k}={m['value']:.4g}"
                                for k, m in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':26} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    worst = "steady"
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            if spread > bound:
                verdict, worst = "OVER BOUND", "noisy"
            elif spread > bound / 3:
                verdict = "above a third of the bound"
                worst = worst if worst == "noisy" else "marginal"
            else:
                verdict = "steady"
        print(f"{name:26} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.3f} {bound if bound is not None else '-':>6}  "
              f"{verdict}")
    print(f"overall: {worst}")
    return 0 if worst != "noisy" else 1


def main():
    args = sys.argv[1:]
    rc = build()
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc or 2
    pin_serve(args)
    if "--selfcheck" in args:
        return selfcheck(args)
    rc, _ = run_once(args, False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
