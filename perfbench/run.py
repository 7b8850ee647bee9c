"""The benchmark command for the `impatience` CLI recipe.

    python3 perfbench/run.py --workload estimate --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed. A run starts WORKERS fresh processes one
after another (one client, closed loop). Each imports the program, writes
its own inputs from a sub-seed of `--seed`, and then repeats the workload's
CLI sequence for `--seconds / WORKERS`. With `--trace 0` the run reports the
`end_to_end` metrics of BENCHMARK.json; with `--trace 1` every other pass is
traced and the run reports its `per_layer` metrics. The last line of
standard output is one JSON object; the lines before it are a readable
report. A JSON record with the environment, every sample and every span
goes to `.bench_work/records/`.

Exit status is non-zero, with no result line, when the program cannot be
found or a benchmark process fails outside the program's own commands.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKERS = 3  # processes per run: set-up is measured this many times
BLAS_THREADS = 1  # one client; also keeps BLAS threads from spinning under host contention
TIME_LIMIT_S = 170.0  # a run must end within 180 s
COMPUTED = {  # exact counts derived from outputs and public calls, not timed
    "simulator.user_auctions", "simulator.padded_cells", "simulator.real_cell_ratio",
    "domain.log_bytes", "estimators.resamples", "estimators.marginal_estimate.calls",
    "estimators.ips_estimate.calls", "optimizer.cost_residual_rel", "predictor.display_events",
    "predictor.gradient_evals", "predictor.loglik_evals",
}
NOTES = [
    "Host contention on the 2-core machine the benchmark was defined on: process CPU time "
    "moves with wall time, with up to 11 steal ticks per run; compare cpu_s with loop_s and "
    "steal_ticks in this record.",
    "Raw pass times there drift by +-25% over seconds, and the median raw wall_s of a 20 s "
    "run spread over seeds by 16-33% (IQR/median); norm_wall_s, which divides out a reference "
    "kernel timed next to each pass, spread by 2.5-7.7% (two sets of ten seeds).",
    "setup_s ranged over 1.0-1.9 s there (interpreter start plus numpy/scipy import).",
]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


def high_percentile(values) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(values)
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return "max", max(values)


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Identity of the program under test, also where there is no git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; returns its result and spawn time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:3]} exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[:3]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1]), spawned


def check_against_earlier_runs(workload: str, result: dict, src: str) -> list:
    """Outputs must be byte-identical across runs of one program at one seed."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    digests = [{os.path.basename(p): d for p, d in out.items()} for out in result["digests"]]
    key = f"{workload}|{result['seed']}|{src}"
    problems = []
    if key in known and known[key] != digests:
        problems = [("*", "outputs differ from an earlier run at this seed")]
    known[key] = digests
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


def failures(result: dict) -> tuple[int, int]:
    """Commands attempted and failed in one worker: a command fails when it
    exits non-zero, its outputs change between passes, or they fail a check."""
    bad = {cmd for cmd, _ in result["problems"]}
    attempted = failed = 0
    for it in result["iterations"]:
        for cmd, code, same in zip(result["commands"], it["codes"], it["same_outputs"]):
            attempted += 1
            failed += code != 0 or not same or cmd in bad or "*" in bad
    return attempted, failed


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_sample(counts: dict, lay: dict) -> dict:
    """Per-layer metrics of one traced pass that are not already span sums
    or call counts in `lay` (see `spans.Tracer.summary`)."""
    auctions, cells = counts.get("user_auctions", 0), counts.get("padded_cells", 0)
    return {
        "simulator.user_auctions": auctions,
        "simulator.padded_cells": cells,
        "simulator.real_cell_ratio": _rate(auctions, cells),
        "simulator.user_auctions_per_s": _rate(auctions, lay.get("simulator.layer_s", 0.0)),
        "domain.log_bytes": counts.get("log_bytes", 0),
        "domain.write_MBps": _rate(lay.get("domain.write_log.bytes", 0) / 1e6,
                                   lay.get("domain.write_log.self_s", 0.0)),
        "domain.read_MBps": _rate(lay.get("domain.read_log.bytes", 0) / 1e6,
                                  lay.get("domain.read_log.self_s", 0.0)),
        "optimizer.cost_residual_rel": counts.get("cost_residual_rel", 0.0),
        "predictor.display_events": counts.get("display_events", 0),
        "predictor.gradient_evals": lay.get("predictor.loglik_gradient.calls", 0),
        "predictor.loglik_evals": lay.get("predictor.penalized_loglik.calls", 0),
    }


def trace_overhead(results: list[dict]) -> list[float]:
    """Each traced pass minus the mean of its untraced neighbours in the same
    process, so that slow drift in host speed cancels."""
    out = []
    for r in results:
        walls = [it["wall"] for it in r["iterations"]]
        for i, it in enumerate(r["iterations"]):
            if it["traced"]:
                near = walls[i - 1:i] + walls[i + 1:i + 2]
                out.append(it["wall"] - sum(near) / len(near))
    return out


def samples(results: list[dict], setups: list[float], declared: list[str], trace: int) -> dict:
    if not trace:
        return {
            "norm_wall_s": [it["norm_wall"] for r in results for it in r["iterations"]],
            "setup_s": setups,
            "peak_rss_MB": [r["maxrss_kb"] / 1024 for r in results],
        }
    passes = [(r["counts"], it["layers"]) for r in results for it in r["iterations"] if it["traced"]]
    derived = [layer_sample(c, lay) for c, lay in passes]
    out = {name: [d.get(name, lay.get(name, 0.0)) for d, (_, lay) in zip(derived, passes)]
           for name in declared}
    out["trace.overhead_s"] = trace_overhead(results)
    return out


def run_workload(name: str, seed: int, seconds: int, trace: int, bench: dict) -> dict:
    workload = WORKLOADS[name]
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = WORK / f"{name}-{seed}-{trace}-{os.getpid()}"
    dirs = [run_dir / f"w{k}" for k in range(WORKERS)]
    seeds = [seed * WORKERS + k for k in range(WORKERS)]  # disjoint across --seed values
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    src = source_digest()
    steal0 = steal_ticks()
    try:
        prep_codes = []
        if workload.prepares:
            prep, _ = child(["prep", "--workload", name, "--seed", *map(str, seeds),
                             "--dir", *map(str, dirs)], deadline)
            prep_codes = prep["codes"]
        results, setups = [], []
        for d, s in zip(dirs, seeds):
            result, spawned = child(["run", "--workload", name, "--seed", str(s), "--dir", str(d),
                                     "--budget", str(seconds / WORKERS), "--trace", str(trace)],
                                    deadline)
            result["problems"] += check_against_earlier_runs(name, result, src)
            setups.append(result["ready"] - spawned)
            results.append(result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steal1 = steal_ticks()

    attempted, failed = len(prep_codes), sum(c != 0 for c in prep_codes)
    for r in results:
        a, f = failures(r)
        attempted += a
        failed += f
    values = samples(results, setups, list(declared), trace)
    summary = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": median(values[k]), "unit": u} for k, u in declared.items()}}
    untraced = [(r["counts"].get("work", 0), it["wall"])
                for r in results for it in r["iterations"] if not it["traced"]]
    record = {
        "workload": name, "seed": seed, "sub_seeds": seeds, "seconds": seconds, "trace": trace,
        "git_commit": git_commit(), "src_sha256": src,
        "environment": dict(results[0]["environment"], nproc=os.cpu_count(),
                            affinity=len(os.sched_getaffinity(0)), cpu_model=cpu_model(),
                            blas_threads=BLAS_THREADS,
                            steal_ticks=None if steal0 is None else steal1 - steal0),
        "notes": NOTES, "summary": summary, "setup_s": setups,
        "throughput": median([work / wall for work, wall in untraced]),
        "failed_ratio": failed / attempted if attempted else 1.0,
        "untraced_wall_s": [wall for _, wall in untraced],
        "workers": [{k: v for k, v in r.items() if k != "spans"} for r in results],
        "spans": [r["spans"] for r in results],
    }
    if trace:
        laid = [it["layers"] for r in results for it in r["iterations"] if it["traced"]]
        record["layer_shares"] = {
            layer: median([lay.get(f"{layer}.layer_s", 0.0) / lay["cli.wall_s"] for lay in laid])
            for layer in LAYERS}
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{name}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1))
    report(record, values, declared)
    return summary


def report(record: dict, values: dict, declared: dict) -> None:
    env, name = record["environment"], record["workload"]
    print(f"== {name}  seed={record['seed']} (sub-seeds {record['sub_seeds']})  "
          f"trace={record['trace']}  seconds={record['seconds']}")
    print(f"   commit={record['git_commit']} src_sha256={record['src_sha256'][:12]} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} openblas={env['openblas'].get('version')} "
          f"blas_threads={env['openblas'].get('threads')} steal_ticks={env['steal_ticks']}")
    for r in record["workers"]:
        print(f"   worker seed={r['seed']}: {len(r['iterations'])} passes, "
              f"cpu_s={r['cpu_s']:.2f} loop_s={r['loop_s']:.2f}"
              + (f"  problems={r['problems']}" if r["problems"] else ""))
    for key, unit in declared.items():
        label, high = high_percentile(values[key])
        tag = "  (computed)" if key in COMPUTED else ""
        print(f"   {key:44s} {median(values[key]):12.6g} {unit:6s} "
              f"{label}={high:.6g} n={len(values[key])}{tag}")
    if record["trace"]:
        shares = "  ".join(f"{k}={v:.1%}" for k, v in record["layer_shares"].items())
        print(f"   traced share of wall_s by layer: {shares}")
    else:
        walls = record["untraced_wall_s"]
        label, high = high_percentile(walls)
        print(f"   {'wall_s':44s} {median(walls):12.6g} {'s':6s} {label}={high:.6g} n={len(walls)}")
        alias, unit = WORKLOADS[name].throughput
        print(f"   {alias:44s} {record['throughput']:12.6g} {unit}")
    summary = record["summary"]
    print(f"   {'failed_ratio':44s} {record['failed_ratio']:12.6g} 1      "
          f"({summary['failed']} of {summary['attempted']} commands)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "impatience" / "cli.py").is_file():
        print(f"run.py: the program's source is missing: {SRC / 'impatience'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = {n: run_workload(n, args.seed, args.seconds, args.trace, bench) for n in names}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        out = {"correct": all(s["correct"] for s in summaries.values()),
               "attempted": sum(s["attempted"] for s in summaries.values()),
               "failed": sum(s["failed"] for s in summaries.values()),
               "workloads": summaries}
    else:
        out = summaries[args.workload]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
