"""gdiffusion benchmark: four workloads timed end to end, each module timed from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Load: a closed loop with one client.  This process starts one fresh child
process per run (``perfbench/child.py``), waits for it to end, and starts the
next while it is expected to end within ``--seconds``; a fresh process makes
peak memory and set-up belong to one run.  Three set-up-only children start
first, so that ``setup_s`` is a median of many samples.  Every child of one invocation uses
the same seed.  Seed 0 (the default) reproduces the acceptance configs of
``tests/test_acceptance.py`` exactly; any other seed replaces the inputs'
random seeds (``seed``, ``domain.seed`` and ``scenario.controls.seed`` of
comparison and crosscheck, the search-domain seed of checker; pde-2d
has no random input).

Workloads, and why each was chosen:

    comparison  verify-comparison on the criterion-2 config: 200 controls x
                500 paths x 200 steps, n=2 with expr: coefficients, B1/B2 at
                256 samples.  Many narrow marches of expensive coefficients:
                sde.euler_march with coefficient and expression evaluation is
                about 90% of the time, pde none.
    crosscheck  feynman-crosscheck on the criterion-4 config: a 1-D PDE at
                401 nodes x 2500 levels plus Monte Carlo at 66 controls x
                20000 paths x 100 steps, constant sigma.  The paper's
                two-route computation: a few wide marches of a trivial
                coefficient, where noise_block and apply_control matter.
    checker     the criterion-9 truth table: 8 conditions, each on one
                satisfied and one violated instance, plus 8 witness
                re-evaluations.  conditions and about 90k scalar eval_G
                calls do all the work; no sde, no pde.  Not listed in
                BENCHMARK.json: one run takes about 10 s, so an invocation
                holds only 2-3 of them, and over ten seeds on a shared
                2-core machine its median wall_s spread by 22%.  Run it by
                name when a change targets conditions or eval_G.
    pde-2d      pde.solve on a 161x161 grid x 512 levels (arctan-coupling
                drift, diagonal sigma = 1, Theta = {0.5 I, I},
                f = tanh(x1 + x2), T = 0.3), then monotonicity_check.  pde
                does about 90% of the work, and storing every level sets the
                peak memory.

End-to-end metrics (--trace 0), over the children of one invocation:

    wall_s        s      median time from the first call into the package
                         to the end of the correctness checks
    setup_s       s      median time from process start to the first timed
                         call: interpreter, imports, building the inputs
    peak_rss_mb   MiB    median peak resident memory of a child
    failed_ratio  ratio  failed correctness checks over attempted ones
                         (printed, and given as failed/attempted in the
                         result line)

Per-layer metrics (--trace 1): each invocation alternates an untraced and a
traced child.  The traced child wraps the public functions of gfunction,
scenario, sde, expressions, conditions, pde and experiments where the
package calls them (see tracing.py) and reports, per layer, call counts,
self time (``_s``, seconds: a span's duration minus its wrapped children),
inclusive time (``.s``), computed work counts (path_steps, node_levels,
noise draws, stored_bytes, residual_evals, samples_evaluated) and their
rates (``_per_s``).  ``trace.wall_s`` is the traced wall time and
``trace.overhead_s`` its excess over the untraced one.  A layer the workload
is expected to use that records no call is reported as null with a warning.
Spans are written to ``.perfbench/trace-<workload>-seed<N>.jsonl``.

Correctness is checked on every run; a run that fails a check is still timed
and counted, never dropped.  Every run at one seed must also produce a
byte-identical report (timestamp removed), traced or not.  The last line of
stdout is a JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170.0
SETUP_ONLY_RUNS = 3
WORKLOAD_NAMES = ("comparison", "crosscheck", "checker", "pde-2d")
# Per-layer units of work counts, which repeat exactly at one seed.
EXACT_UNITS = ("count", "B", "ratio")


class ChildError(RuntimeError):
    """A child ended without a result: the benchmark itself is broken."""


def run_child(workload: str, seed: int, trace: int, setup_only: bool,
              deadline: float) -> dict:
    """Start one child, wait for it to end, and return its result object."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # timeout, interrupt or SIGTERM: end the child first
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildError(f"{workload} child did not finish before the deadline") from None
        raise
    if stderr:
        sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_header(workload: str, seed: int) -> dict:
    src = os.path.join(ROOT, "src", "gdiffusion")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_git_state(),
        "src_lines": lines,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_state() -> dict:
    """Commit and dirty flag of the checkout, or nulls when it is no git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30, check=True).stdout

    try:
        sha = git("rev-parse", "HEAD").strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": dirty}


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    """Run the children; return (setup runs, untraced runs, traced runs)."""
    start = time.monotonic()
    setups = [run_child(workload, seed, 0, True, deadline)
              for _ in range(SETUP_ONLY_RUNS)]
    plain, traced = [], []
    last = 0.0
    # Start another run only if it is expected to end within the budget.
    while not plain or time.monotonic() - start + last <= seconds:
        begin = time.monotonic()
        plain.append(run_child(workload, seed, 0, False, deadline))
        if trace:
            traced.append(run_child(workload, seed, 1, False, deadline))
        last = time.monotonic() - begin
    return setups, plain, traced


def correctness(runs: list, traced: list) -> tuple[int, int, list]:
    """Count attempted and failed checks over every run, in run order."""
    attempted = failed = 0
    failures = []
    reference = runs[0]["digest"]
    for idx, run in enumerate(runs + traced):
        checks = list(run["checks"])
        if idx > 0:
            checks.append(["report-identical", run["digest"] == reference])
        for name, ok in checks:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"run {idx}: {name}")
    if len(traced) > 1:
        first = traced[0]["layers"]
        for run in traced[1:]:
            for metric, entry in first.items():
                if entry["unit"] in EXACT_UNITS:
                    attempted += 1
                    if run["layers"][metric] != entry:
                        failed += 1
                        failures.append(f"count {metric} differs between traced runs")
    return attempted, failed, failures


def layer_values(plain: list, traced: list) -> tuple[dict, list]:
    """Per-layer metrics: counts from the first traced run, times as medians."""
    values = {}
    for metric, entry in traced[0]["layers"].items():
        unit = entry["unit"]
        samples = [run["layers"][metric]["value"] for run in traced]
        if any(v is None for v in samples):
            values[metric] = (None, unit)
        elif unit in EXACT_UNITS:
            values[metric] = (samples[0], unit)
        else:
            values[metric] = (statistics.median(samples), unit)
    traced_wall = statistics.median(run["wall_s"] for run in traced)
    values["trace.wall_s"] = (traced_wall, "s")
    values["trace.overhead_s"] = (traced_wall - statistics.median(r["wall_s"] for r in plain),
                                  "s")
    missing = sorted({name for run in traced for name in run["missing"]})
    return values, missing


def write_trace(workload: str, seed: int, header: dict, traced: list) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"header": header}) + "\n")
        for run in traced:
            for span in run["trace"]["spans"]:
                fh.write(json.dumps({"span": span}) + "\n")
            for agg in run["trace"]["aggregates"]:
                fh.write(json.dumps({"aggregate": agg}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=__doc__.split("\n\n", 1)[1],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the acceptance configs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time budget of one invocation, set-up-only runs included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced runs")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isdir(os.path.join(ROOT, "src", "gdiffusion")):
        print(f"no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    header = run_header(args.workload, args.seed)
    print("header " + json.dumps(header, sort_keys=True))
    try:
        setups, plain, traced = measure(args.workload, args.seed, args.seconds,
                                        args.trace, deadline)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, failures = correctness(plain, traced)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    walls = [run["wall_s"] for run in plain]
    setup_samples = [run["setup_s"] for run in setups + plain]
    print(f"{args.workload}: seed {args.seed}, {len(plain)} untraced and "
          f"{len(traced)} traced runs, {len(setups)} set-up-only runs")
    print(f"  wall_s        {statistics.median(walls):.4f} s    (median of {len(walls)}, "
          f"range {min(walls):.4f}-{max(walls):.4f})")
    print(f"  setup_s       {statistics.median(setup_samples):.4f} s    "
          f"(median of {len(setup_samples)})")
    rss = [run["peak_rss_kb"] / 1024.0 for run in plain]
    print(f"  peak_rss_mb   {statistics.median(rss):.2f} MiB  (median of {len(rss)})")
    print(f"  failed_ratio  {failed / attempted:.4f} ratio  "
          f"({failed} of {attempted} checks failed)")

    if args.trace:
        values, missing = layer_values(plain, traced)
        for name in missing:
            print(f"WARNING: layer {name} recorded no call on {args.workload}; "
                  "its metrics are reported as missing (null)", file=sys.stderr)
        for metric, (value, unit) in values.items():
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {metric:<48} {shown} {unit}")
        print(f"  spans written to {write_trace(args.workload, args.seed, header, traced)}")
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in values.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
