"""One benchmark process: `prep` makes shared inputs, `run` is one client.

`run` imports the program, writes its inputs, then calls the workload's CLI
sequence through `impatience.cli.main(argv)` in a closed loop until its
budget is spent. Checks and exact counts come after the loop and after peak
memory has been read, so neither is part of any timing. The last line of
standard output is one JSON object for `run.py`.

    python3 perfbench/worker.py run --workload estimate --seed 3 --dir D --budget 4 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import impatience
from impatience import cli

from reference import REF_S, reference
from spans import Tracer
from workloads import WORKLOADS


def _outputs(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv) if a == "--out"]


def _call(argv: list[str], devnull) -> int:
    """Run one CLI command; any escape from `main` counts as a failure."""
    try:
        with contextlib.redirect_stdout(devnull):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def _blas() -> dict:
    """OpenBLAS build version and the thread count it runs with."""
    import ctypes

    import numpy as np

    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info.setdefault("threads", {})[os.path.basename(lib)] = getattr(handle, symbol)()
                break
    return info


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "impatience": impatience.__version__,
        "openblas": _blas(),
    }


def prep(args) -> dict:
    workload = WORKLOADS[args.workload]
    codes = []
    with open(os.devnull, "w") as devnull:
        for directory, seed in zip(args.dir, args.seed):
            for argv in workload.prepare(directory, seed):
                codes.append(_call(argv, devnull))
    return {"codes": codes}


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    (directory,), (seed,) = args.dir, args.seed
    workload.write_inputs(directory, seed)
    commands = workload.commands(directory)
    tracer = Tracer() if args.trace else None
    ready = time.monotonic()
    reference()  # the first call pays one-off page faults
    ref = reference()

    with open(os.devnull, "w") as devnull:
        iterations = []
        digests = None
        cpu0 = time.process_time()
        while True:
            traced = tracer is not None and len(iterations) % 2 == 1
            run_id = f"{os.getpid()}-{len(iterations)}"
            codes, cmd_s = [], []
            with tracer.installed() if traced else contextlib.nullcontext():
                if traced:
                    tracer.run_id = run_id
                start = time.perf_counter()
                for argv in commands:
                    t = time.perf_counter()
                    if traced:
                        with tracer.span(f"cli.{argv[0]}"):
                            codes.append(_call(argv, devnull))
                    else:
                        codes.append(_call(argv, devnull))
                    cmd_s.append(time.perf_counter() - t)
                wall = time.perf_counter() - start
            ref_before, ref = ref, reference()
            outputs = [{p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                        for p in _outputs(argv) if os.path.exists(p)} for argv in commands]
            if digests is None:
                digests = outputs
            iterations.append({
                "wall": wall,
                "norm_wall": wall * REF_S / ((ref_before + ref) / 2),
                "traced": traced,
                "codes": codes,
                "cmd_s": cmd_s,
                "same_outputs": [o == d for o, d in zip(outputs, digests)],
                "layers": tracer.summary(run_id) if traced else None,
            })
            elapsed = time.monotonic() - ready
            typical = sorted(it["wall"] for it in iterations)[len(iterations) // 2]
            # Stop before a pass that would overrun the budget; a traced run needs
            # two traced passes, each between untraced ones.
            if elapsed + typical + ref > args.budget and len(iterations) >= (4 if tracer else 1):
                break
    loop_s = time.monotonic() - ready
    cpu_s = time.process_time() - cpu0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    try:
        problems, counts = workload.check(directory, seed)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems, counts = [("*", f"output check failed: {exc!r}")], {}
    return {
        "seed": seed,
        "ready": ready,
        "commands": [argv[0] for argv in commands],
        "iterations": iterations,
        "digests": digests,
        "problems": problems,
        "counts": counts,
        "maxrss_kb": maxrss_kb,
        "cpu_s": cpu_s,
        "loop_s": loop_s,
        "environment": environment(),
        "spans": tracer.dump() if tracer else [],
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prep", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--dir", nargs="+", required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = prep(args) if args.mode == "prep" else run(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
