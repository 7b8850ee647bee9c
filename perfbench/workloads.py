"""The four benchmark workloads: their inputs, CLI sequences, output checks
and exact work counts.

Every workload is a fixed sequence of `impatience.cli.main(argv)` calls.
Inputs (config, policy and, for `estimate`, the log) are written here from
the worker's seed; the program only ever sees those files. Sizes are chosen
so that one pass of a sequence takes about a second on a 2-core machine:
a run then times many passes and reports medians (see README.md).

The checks are invariants any correct version of the program satisfies,
not digests of today's output, so that changes which move the last digits
of a float still pass.
"""

from __future__ import annotations

import json
import math
import os
import random

LOG_IO_USERS = 30_000
LOG_IO_AUCTIONS = 20
ESTIMATE_USERS = 10_000
AB_USERS_PER_ARM = 10_000
AB_REPS = 4
AB_ARMS = 3  # baseline, fixed_factor, dynamic_factor: `cmd_ab` seeds them seed, seed+1, seed+2
FIT_CTR_USERS = 10_000
CAP = 0.2
RESAMPLES = 1000
LOG_IO_RESAMPLES = 100
SIM_CHUNK = 1 << 17  # users per vectorized simulator block; padded cells are counted per block
BUCKETS = [1, 2, 3, 4, 5]
RESIDUAL_REL_MAX = 1e-12  # cost neutrality the optimizer documents
FIT_TOL = 1e-7  # gradient max-norm at which `fit_ctr` declares convergence


def config(seed: int, n_users: int, constant_auctions: bool = False) -> dict:
    """The desk-scale world of the paper, frozen here so that a change to the
    program's defaults does not change the benchmark's inputs."""
    sim = {
        "n_users": n_users,
        "auctions_per_user": {"kind": "poisson", "mean": 20.0},
        "value_per_conversion": 10.0,
        "base_conversion_prob": 0.05,
        "fatigue_decay": 0.8,
        "competition": {"kind": "lognormal", "mu": math.log(0.4), "sigma": 1.2},
        "initial_exposure": [0.30, 0.20, 0.15, 0.12, 0.10, 0.13],
        "activity_by_exposure": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
    }
    if constant_auctions:
        sim["auctions_per_user"] = {"kind": "constant", "value": LOG_IO_AUCTIONS}
        del sim["activity_by_exposure"]  # activity scaling needs poisson counts
    return {
        "sim": sim,
        "randomization": {"mu": 0.0, "sigma": 0.3},
        "bucket_boundaries": BUCKETS,
        "resamples": RESAMPLES,
        "cap_delta": CAP,
        "sweep": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
        "seed": seed,
    }


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_csv(path: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    provenance, rows, header = {}, [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                provenance[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(dict(zip(header, line.split(","))))
    return provenance, rows


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def block_cells(n_auctions) -> int:
    """Simulator cells for one population: each block of SIM_CHUNK users is
    padded to its largest auction count."""
    return sum(
        len(block) * int(block.max())
        for block in (n_auctions[i:i + SIM_CHUNK] for i in range(0, len(n_auctions), SIM_CHUNK))
        if len(block)
    )


class Workload:
    name = ""
    throughput = ("", "")  # name and unit of the work `counts["work"]` per second of wall_s
    prepares = False  # whether `prepare` has calls to make

    def prepare(self, directory: str, seed: int) -> list[list[str]]:
        """CLI calls that make shared inputs once per run, outside timing."""
        return []

    def write_inputs(self, directory: str, seed: int) -> None:
        raise NotImplementedError

    def commands(self, directory: str) -> list[list[str]]:
        raise NotImplementedError

    def check(self, directory: str, seed: int) -> tuple[list[tuple[str, str]], dict]:
        """Output invariants as (command, problem) pairs, and exact work
        counts computed from the outputs and from public calls; a count a
        workload does not have is left out and reads as 0."""
        raise NotImplementedError


def _p(directory: str, name: str) -> str:
    return os.path.join(directory, name)


def _check_log(path: str, n_users: int, command: str, auctions: int | None = None):
    """Re-read a log and check its per-user invariants; returns problems and
    the per-user auction counts."""
    import numpy as np
    from impatience.domain import read_log

    log = read_log(path)
    arr = log.arrays
    problems = []
    if len(log) != n_users:
        problems.append((command, f"log has {len(log)} rows, expected {n_users}"))
    for key in ("cost", "value_observed", "value_predicted", "n_auctions", "n_wins"):
        col = arr[key]
        if not (np.all(np.isfinite(col)) and np.all(col >= 0)):
            problems.append((command, f"log column {key} has a non-finite or negative value"))
    if not (np.all(np.isfinite(arr["theta"])) and np.all(arr["theta"] > 0)):
        problems.append((command, "log column theta is not finite and positive"))
    if np.any(arr["n_wins"] > arr["n_auctions"]):
        problems.append((command, "n_wins > n_auctions"))
    if auctions is not None and np.any(arr["n_auctions"] != auctions):
        problems.append((command, f"n_auctions differs from the constant {auctions}"))
    return problems, arr["n_auctions"]


def _check_marginals_and_policy(directory: str, n_users: int):
    problems = []
    _, rows = _read_csv(_p(directory, "marginals.csv"))
    if sum(int(r["n_users"]) for r in rows) != n_users:
        problems.append(("marginals", "cluster n_users do not sum to the log size"))
    for r in rows:
        for key, cell in r.items():
            if cell == "" and key.startswith("mroi"):
                continue  # mROI is undefined on a degenerate cluster
            if not _finite(cell):
                problems.append(("marginals", f"cluster {r['cluster']}: {key}={cell!r} is not finite"))
        for stem in ("dcost", "dvalue", "mroi"):
            lo, hi = r[f"{stem}_ci_low"], r[f"{stem}_ci_high"]
            if lo and hi and _finite(lo) and _finite(hi) and float(lo) > float(hi):
                problems.append(("marginals", f"cluster {r['cluster']}: {stem} CI low > high"))
    with open(_p(directory, "policy.json")) as fh:
        policy = json.load(fh)
    dcost = {int(r["cluster"]): float(r["dcost"]) for r in rows if _finite(r["dcost"])}
    terms = []
    for cluster, alpha in policy["multipliers"].items():
        if not (math.isfinite(alpha) and abs(alpha - 1.0) <= policy["cap_delta"] + 1e-12):
            problems.append(("optimize", f"cluster {cluster}: multiplier {alpha} outside the cap"))
        terms.append((alpha - 1.0) * dcost.get(int(cluster), 0.0))
    scale = math.fsum(abs(t) for t in terms)
    residual = abs(math.fsum(terms)) / scale if scale else 0.0
    if residual > RESIDUAL_REL_MAX:
        problems.append(("optimize", f"relative cost residual {residual:.3e} > {RESIDUAL_REL_MAX}"))
    return problems, residual


class LogIO(Workload):
    name = "log-io"
    throughput = ("users_per_s", "users/s")

    def write_inputs(self, directory, seed):
        _write_json(_p(directory, "config.json"), config(seed, LOG_IO_USERS, constant_auctions=True))

    def commands(self, directory):
        cfg, log = _p(directory, "config.json"), _p(directory, "log.jsonl")
        marg, pol = _p(directory, "marginals.csv"), _p(directory, "policy.json")
        return [
            ["simulate", "--config", cfg, "--out", log],
            ["marginals", "--config", cfg, "--log", log, "--out", marg,
             "--resamples", str(LOG_IO_RESAMPLES)],
            ["optimize", "--marginals", marg, "--cap", str(CAP), "--out", pol],
        ]

    def check(self, directory, seed):
        path = _p(directory, "log.jsonl")
        problems, n_auctions = _check_log(path, LOG_IO_USERS, "simulate", LOG_IO_AUCTIONS)
        more, residual = _check_marginals_and_policy(directory, LOG_IO_USERS)
        auctions = int(n_auctions.sum())
        return problems + more, {
            "work": LOG_IO_USERS,
            "user_auctions": auctions,
            "padded_cells": block_cells(n_auctions),
            "log_bytes": os.path.getsize(path),
            "cost_residual_rel": residual,
        }


class Estimate(Workload):
    name = "estimate"
    throughput = ("resamples_per_s", "resamples/s")
    prepares = True

    def prepare(self, directory, seed):
        cfg = _p(directory, "config.json")
        _write_json(cfg, config(seed, ESTIMATE_USERS))
        return [["simulate", "--config", cfg, "--out", _p(directory, "log.jsonl")]]

    def write_inputs(self, directory, seed):
        pass  # the config and log come from `prepare`

    def commands(self, directory):
        cfg, log = _p(directory, "config.json"), _p(directory, "log.jsonl")
        marg, pol = _p(directory, "marginals.csv"), _p(directory, "policy.json")
        return [
            ["marginals", "--config", cfg, "--log", log, "--out", marg],
            ["optimize", "--marginals", marg, "--cap", str(CAP), "--out", pol],
            ["offline-eval", "--config", cfg, "--log", log, "--policy", pol,
             "--out", _p(directory, "eval.csv")],
        ]

    def check(self, directory, seed):
        path = _p(directory, "log.jsonl")
        problems, _ = _check_log(path, ESTIMATE_USERS, "marginals")
        more, residual = _check_marginals_and_policy(directory, ESTIMATE_USERS)
        problems += more
        _, rows = _read_csv(_p(directory, "eval.csv"))
        if len(rows) != 1:
            problems.append(("offline-eval", f"{len(rows)} rows, expected 1"))
        for r in rows:
            if not all(_finite(c) for c in r.values()):
                problems.append(("offline-eval", "non-finite value"))
            for stem in ("dvalue_linear", "dcost_linear", "dvalue_exact", "dcost_exact"):
                if float(r[f"{stem}_ci_low"]) > float(r[f"{stem}_ci_high"]):
                    problems.append(("offline-eval", f"{stem} CI low > high"))
        return problems, {
            "work": 2 * RESAMPLES,  # marginals and offline-eval each bootstrap once
            "log_bytes": os.path.getsize(path),
            "cost_residual_rel": residual,
        }


class OracleAB(Workload):
    name = "oracle-ab"
    throughput = ("user_auctions_per_s", "user-auctions/s")

    def write_inputs(self, directory, seed):
        _write_json(_p(directory, "config.json"), config(seed, AB_USERS_PER_ARM))
        rng = random.Random(seed)
        multipliers = {str(c): 1.0 + CAP * rng.uniform(-1.0, 1.0) for c in range(len(BUCKETS) + 1)}
        _write_json(_p(directory, "policy.json"),
                    {"schema": "impatience-policy/1", "cap_delta": CAP, "multipliers": multipliers})

    def commands(self, directory):
        return [["ab", "--config", _p(directory, "config.json"),
                 "--policy", _p(directory, "policy.json"), "--out", _p(directory, "ab.json"),
                 "--reps", str(AB_REPS), "--users-per-arm", str(AB_USERS_PER_ARM)]]

    def check(self, directory, seed):
        import numpy as np
        from impatience.domain import RandomizationSpec
        from impatience.simulator import SimConfig, simulate_log

        problems = []
        with open(_p(directory, "ab.json")) as fh:
            report = json.load(fh)
        arms = report.get("arms", {})
        if sorted(arms) != ["baseline", "dynamic_factor", "fixed_factor"]:
            problems.append(("ab", f"unexpected arms {sorted(arms)}"))
        for name, arm in arms.items():
            if not all(isinstance(v, float) and math.isfinite(v) for v in arm.values()):
                problems.append(("ab", f"arm {name}: non-finite value"))
            elif not (arm["value"] > 0 and arm["cost"] > 0 and arm["value_se"] > 0 and arm["cost_se"] > 0):
                problems.append(("ab", f"arm {name}: value, cost or se not > 0"))
        # The simulator draws auction counts before anything a policy can change,
        # so the randomized log at the same seed has the arms' auction counts.
        raw = config(seed, AB_USERS_PER_ARM)
        sim = SimConfig.from_json(raw["sim"])
        spec = RandomizationSpec(**raw["randomization"])
        auctions = cells = 0
        for arm_seed in range(seed, seed + AB_ARMS):
            for rep in range(AB_REPS):
                log = simulate_log(sim, spec, np.random.SeedSequence([arm_seed, rep]), tuple(BUCKETS))
                n_auctions = log.arrays["n_auctions"]
                auctions += int(n_auctions.sum())
                cells += block_cells(n_auctions)
        return problems, {
            "work": auctions,
            "user_auctions": auctions,
            "padded_cells": cells,
        }


class FitCtr(Workload):
    name = "fit-ctr"
    throughput = ("display_events_per_s", "events/s")

    def write_inputs(self, directory, seed):
        _write_json(_p(directory, "config.json"), config(seed, FIT_CTR_USERS))

    def commands(self, directory):
        return [["fit-ctr", "--config", _p(directory, "config.json"),
                 "--out", _p(directory, "calibration.csv")]]

    def check(self, directory, seed):
        import numpy as np
        from impatience.domain import RandomizationSpec
        from impatience.simulator import SimConfig, simulate_log

        problems = []
        provenance, rows = _read_csv(_p(directory, "calibration.csv"))
        n_events = int(provenance.get("n_events", "0"))
        for model in ("no_fatigue", "fatigue"):
            mrows = [r for r in rows if r["model"] == model]
            if sum(int(r["n"]) for r in mrows) != n_events:
                problems.append(("fit-ctr", f"{model}: bucket counts do not sum to n_events"))
            filled = [r for r in mrows if int(r["n"]) > 0]
            if not all(_finite(r["empirical_rate"]) and _finite(r["mean_predicted"]) for r in filled):
                problems.append(("fit-ctr", f"{model}: non-finite rate"))
                continue
            emp = [float(r["empirical_rate"]) for r in filled]
            pred = [float(r["mean_predicted"]) for r in filled]
            if not all(0 <= x <= 1 for x in emp + pred):
                problems.append(("fit-ctr", f"{model}: rate outside [0, 1]"))
            n = [int(r["n"]) for r in filled]
            # At a stationary point of the logistic likelihood the residual
            # y - p sums to ~0 over every indicator column; `fit_ctr` stops at
            # gradient max-norm < FIT_TOL, so each column's mean residual is
            # bounded by it. Twice the bound on every column of the design
            # (intercept and the five bucket indicators) leaves room for rounding.
            if model == "fatigue":
                for b, (e, p, nb) in enumerate(zip(emp, pred, n)):
                    if abs(e - p) > 2 * (len(BUCKETS) + 1) * FIT_TOL * n_events / nb:
                        problems.append(("fit-ctr", f"fatigue bucket {b}: predicted {p} != empirical {e}"))
            else:
                total = math.fsum((e - p) * nb for e, p, nb in zip(emp, pred, n)) / n_events
                if abs(total) > 2 * FIT_TOL:
                    problems.append(("fit-ctr", f"no_fatigue: mean predicted != mean empirical ({total:.3e})"))
        raw = config(seed, FIT_CTR_USERS)
        log = simulate_log(SimConfig.from_json(raw["sim"]), RandomizationSpec(**raw["randomization"]), seed)
        n_auctions = log.arrays["n_auctions"]
        return problems, {
            "work": n_events,
            "user_auctions": int(n_auctions.sum()),
            "padded_cells": block_cells(n_auctions),
            "display_events": n_events,
        }


WORKLOADS: dict[str, Workload] = {w.name: w for w in (LogIO(), Estimate(), OracleAB(), FitCtr())}
