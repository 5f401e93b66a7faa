"""Alternating parent/change runs of the benchmark, from fresh copies of both trees.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_N.json \
        --workload NAME[:PAIRS[:SEED]] [--workload ...] [--seconds S] \
        [--what TEXT] [--claim TEXT]

Each side is a git revision of this repository.  Both are extracted with
``git archive`` into a new temporary directory just before the runs, and
every run is ``python3 perfbench/run.py --workload NAME --seed SEED
--seconds S --trace 0`` started from that side's copy, with
PYTHONDONTWRITEBYTECODE=1 so that no run leaves compiled files behind for
the next.  Pair i runs the
parent first when i is even and the change first when i is odd; the
workloads run one after another in the order given, each for its number of
pairs (default 10) at its seed (default 0).  After the pairs, each side runs
every workload and seed once more with ``--trace 1``, which adds the
per-layer metrics of a traced child to the result line.

The output file holds every run's result line under ``runs``, and under
``summary``, per workload and seed: the pairs run, failed and attempted
checks over both sides, and for each end-to-end metric each side's median, quartiles
(linear interpolation) and run count, with ``change_lower_in``, the pairs in
which the change read strictly lower, and ``resolved``, the verdict on a
gain.  A gain on a metric is resolved (true) when at least 10 pairs were
run, the change reads better in at least 9/10 of them, a tie counting for
neither side, and its median is better than the parent's by more than the
parent's interquartile range (q3 - q1); otherwise it is unresolved (false).
Under ``layers``, per workload and seed, every per-layer metric whose unit
is exact (``count``, ``B`` or ``ratio``: work counts, which repeat exactly at
one seed) gets its unit, the value of each side's traced run and ``equal``,
whether the two are the same, so that the file shows in which layer a change
does less or stores less; ``layers_differ`` lists, per workload and seed, the
metrics that are not equal.  Each
end-to-end metric also gets ``regression``, the no-regression verdict,
with the allowed loss taken as ``bound`` times the parent's median:

    worse        the change's median is worse than the parent's by more
                 than the allowed loss;
    unresolved   not worse, but the parent's interquartile range exceeds
                 the allowed loss, so the runs cannot show that the change
                 is not worse, unless every change run reads better than
                 every parent run;
    not-worse    otherwise.

Which way is better, and each metric's bound, are read from the ``better``
and ``bound`` of each end-to-end metric in BENCHMARK.json.  ``src_lines``
gives each side's line count of the files under ``src/``, counted in its
extracted tree.  A run that ends without a result line stops the tool with
its output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# the fewest pairs on which a gain can be resolved
MIN_PAIRS = 10
# units of the per-layer metrics that repeat exactly at one seed
EXACT_UNITS = ("count", "B", "ratio")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: str) -> None:
    """The tree of rev, as ``git archive`` gives it, in the new directory dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result line of one benchmark invocation in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} in {tree} gave no result line "
                         f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def declared(field: str) -> dict:
    """End-to-end metric name -> its ``field`` in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"]: metric[field] for metric in json.load(fh)["end_to_end"]}


def load_better() -> dict:
    """End-to-end metric name -> "lower" or "higher"."""
    return declared("better")


def src_lines(tree: str) -> int:
    """The line count of the files under tree's src/."""
    total = 0
    for folder, _, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            with open(os.path.join(folder, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def resolved(parent: list, change: list, better: str) -> bool:
    """Whether the change's gain is resolved, from the values of both sides in
    pair order: at least MIN_PAIRS pairs, better in at least 9/10 of them (ties
    count for neither) and a median better by more than the parent's
    interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    spread = quartiles(parent)
    gain = sign * (spread["median"] - statistics.median(change))
    return (len(parent) >= MIN_PAIRS and 10 * wins >= 9 * len(parent)
            and gain > spread["q3"] - spread["q1"])


def regression(parent: list, change: list, better: str, bound: float) -> str:
    """"worse", "unresolved" or "not-worse": the no-regression verdict of the
    module docstring, from the values of both sides."""
    sign = 1.0 if better == "lower" else -1.0
    spread = quartiles(parent)
    allowed = bound * spread["median"]
    if sign * (statistics.median(change) - spread["median"]) > allowed:
        return "worse"
    if (spread["q3"] - spread["q1"] > allowed
            and not all(sign * (p - c) > 0 for p in parent for c in change)):
        return "unresolved"
    return "not-worse"


def summarize(runs: list, better: dict, bounds=None) -> dict:
    """Per workload and seed: pairs, failed/attempted and each metric's sides,
    with the verdict on a gain for each metric that ``better`` names, and the
    no-regression verdict for each that ``bounds`` names too."""
    summary = {}
    for key in dict.fromkeys((r["workload"], r["seed"]) for r in runs):
        mine = [r for r in runs if (r["workload"], r["seed"]) == key]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r["result"] for r in mine}
        entry = {"pairs": len(pairs),
                 "failed": sum(r["result"]["failed"] for r in mine),
                 "attempted": sum(r["result"]["attempted"] for r in mine)}
        for metric in mine[0]["result"]["metrics"]:
            value = {k: res["metrics"][metric]["value"] for k, res in by.items()}
            entry[metric] = {side: quartiles([value[p, side] for p in pairs]) for side in SIDES}
            lower = sum(value[p, "change"] < value[p, "parent"] for p in pairs)
            entry[metric]["change_lower_in"] = f"{lower}/{len(pairs)}"
            if metric in better:
                sides = [[value[p, side] for p in pairs] for side in SIDES]
                entry[metric]["resolved"] = resolved(*sides, better[metric])
                if metric in (bounds or {}):
                    entry[metric]["regression"] = regression(*sides, better[metric],
                                                             bounds[metric])
        summary[f"{key[0]} (seed {key[1]})"] = entry
    return summary


def layers(traced: list) -> dict:
    """Per workload and seed: each per-layer metric with an exact unit, with
    its unit, the value of each side's traced run (None where a side did
    not report it) and ``equal``, whether the two values are the same."""
    out = {}
    for r in traced:
        entry = out.setdefault(f"{r['workload']} (seed {r['seed']})", {})
        for name, metric in r["result"]["metrics"].items():
            if metric["unit"] in EXACT_UNITS:
                entry.setdefault(name, {"unit": metric["unit"], **dict.fromkeys(SIDES)})
                entry[name][r["side"]] = metric["value"]
    for entry in out.values():
        for metric in entry.values():
            metric["equal"] = metric["parent"] == metric["change"]
    return out


def layers_differ(layer: dict) -> dict:
    """Per workload and seed of ``layers``: the names of the metrics whose two
    values differ, in its order."""
    return {key: [name for name, metric in entry.items() if not metric["equal"]]
            for key, entry in layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME[:PAIRS[:SEED]], once per workload and seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--claim", default=None, help="the gain claimed, if any")
    args = parser.parse_args(argv)
    plan = []
    for item in args.workload:
        name, pairs, seed = (item.split(":") + [None, None])[:3]
        plan.append((name, int(pairs or 10), int(seed or 0)))
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: os.path.join(scratch, side) for side in SIDES}
        for side in SIDES:
            extract(revs[side], trees[side])
        lines = {side: src_lines(trees[side]) for side in SIDES}
        pair = 0
        for workload, count, seed in plan:
            for _ in range(count):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run_once(trees[side], workload, seed, args.seconds)
                    runs.append({"pair": pair, "workload": workload, "side": side,
                                 "result": result, "seed": seed, "trace": 0})
                    print(f"pair {pair} {workload} {side}: "
                          f"{json.dumps(result['metrics'])}", flush=True)
                pair += 1
        for workload, _, seed in plan:
            for side in SIDES:
                result = run_once(trees[side], workload, seed, args.seconds, trace=1)
                runs.append({"pair": None, "workload": workload, "side": side,
                             "result": result, "seed": seed, "trace": 1})
                print(f"traced {workload} {side}: done", flush=True)

    layer = layers([r for r in runs if r["trace"] == 1])
    out = {
        "what": args.what,
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "machine": {"machine": platform.machine(), "nproc": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "order": "pair i runs the parent first when i is even and the change first when "
                 "i is odd; both sides run from fresh git-archive copies made just before "
                 "the runs; after the pairs, one --trace 1 run per side, workload and seed "
                 "gives the layers; every run made is listed",
        "claim": args.claim,
        "src_lines": lines,
        "summary": summarize([r for r in runs if r["trace"] == 0], load_better(),
                             declared("bound")),
        "layers": layer,
        "layers_differ": layers_differ(layer),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
