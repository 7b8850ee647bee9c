"""Command-line driver for the randomize/estimate/optimize/validate recipe.

Subcommands cover the full loop: simulate a randomized log, compute
per-cluster marginal ROI, solve the capped cost-neutral reallocation,
predict the policy's effect offline, and validate against a simulated
A/B split. All numeric output goes to files (CSV/JSON with provenance
comments); a short human-readable summary goes to stdout. Outputs are
byte-identical across reruns with the same config and seeds.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .distributions import Distribution
from .domain import (
    DEFAULT_BUCKETS,
    ClusterRow,
    LogFormatError,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    ValidationError,
    _JSON_ERRORS,
    _check_boundaries,
    _check_kinds,
    _from_json,
    _json_object,
    _unique_keys,
    atomic_write,
    read_log,
    write_log,
)
from .estimators import _policy_delta_bootstraps, cluster_estimates, marginal_roi, weight_std_profile
from .optimizer import ReallocationProblem, solve_reallocation_detailed
from .predictor import ConvergenceError, calibration_curve, events_from_trace, fit_ctr
from .simulator import (
    BidPolicy,
    SimConfig,
    default_config,
    default_randomization,
    oracle_policy_outcome,
    simulate_display_trace,
    simulate_log,
    two_auction_demo,
)

POLICY_SCHEMA = "impatience-policy/1"
DEFAULT_SWEEP = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
DEFAULT_PROFILE_ALPHAS = (0.5, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5, 2.0)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment-level knobs shared across subcommands."""

    sim: SimConfig
    randomization: RandomizationSpec
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS
    resamples: int = 1000
    cap_delta: float = 0.2
    sweep: tuple[float, ...] = DEFAULT_SWEEP
    seed: int = 0

    def __post_init__(self):
        _check_kinds(self, "config", {"resamples": "count", "seed": "count", "cap_delta": "number", "sweep": "numbers"})
        _check_boundaries(self.bucket_boundaries)
        object.__setattr__(self, "bucket_boundaries", tuple(self.bucket_boundaries))

    def to_json(self) -> dict:
        return _json_object(self)

    @classmethod
    def from_json(cls, raw) -> "ExperimentConfig":
        return _from_json(cls, raw, "config", sim=SimConfig.from_json, randomization=RandomizationSpec.from_json)


def default_experiment_config() -> ExperimentConfig:
    return ExperimentConfig(sim=default_config(), randomization=default_randomization())


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _load_config(args) -> tuple[ExperimentConfig, str]:
    """The --config file with the flags that override its fields, checked as one config."""
    raw = _read_json(args.config, "config")
    flags = {key: value for key in ("seed", "resamples", "sweep") if (value := getattr(args, key, None)) is not None}
    return replace(ExperimentConfig.from_json(raw), **flags), _file_sha256(args.config)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


@contextmanager
def _reading(path: str):
    """Report an input file that cannot be read or decoded as a usage error naming it."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _read_json(path: str, what: str):
    """The JSON document in the `what` file at `path`."""
    try:
        with _reading(path), open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except _JSON_ERRORS as exc:
        raise UsageError(f"{what} file {path} is not valid JSON: {exc}") from None


@contextmanager
def _writing(path: str):
    """Report an output file that cannot be written as a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_csv(path: str, provenance: dict[str, str], header: list[str], rows: list[list]) -> None:
    with _writing(path), atomic_write(path) as fh:
        fh.write(f"# tool=impatience/{__version__}\n")
        for key in sorted(provenance):
            fh.write(f"# {key}={provenance[key]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _read_marginals_csv(path: str) -> tuple[list[dict], dict[str, str]]:
    provenance: dict[str, str] = {}
    rows = []
    header: list[str] | None = None
    with _reading(path), open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    provenance[k] = v
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            rows.append(dict(zip(header, cells)))
    if header is None:
        raise UsageError(f"marginals file {path} has no header row")
    return rows, provenance


def _write_policy(path: str, policy: PolicySpec, provenance: dict, diagnostic: str | None) -> None:
    doc = {
        "schema": POLICY_SCHEMA,
        "cap_delta": policy.cap_delta,
        "multipliers": {str(k): v for k, v in sorted(policy.multipliers.items())},
        "provenance": dict(sorted(provenance.items())),
    }
    if diagnostic:
        doc["diagnostic"] = diagnostic
    _write_json(path, doc)


def _write_json(path: str, doc: dict) -> None:
    with _writing(path), atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_policy(path: str) -> PolicySpec:
    doc = _read_json(path, "policy")
    if not isinstance(doc, dict):
        raise UsageError(f"policy file {path} does not hold a JSON object")
    if doc.get("schema") != POLICY_SCHEMA:
        raise UsageError(f"policy file {path} has an unsupported schema {doc.get('schema')!r}")
    multipliers = doc.get("multipliers")
    if not isinstance(multipliers, dict):
        raise UsageError(f"policy file {path} needs a 'multipliers' object, got {multipliers!r}")
    try:
        # a cluster key is the decimal text `optimize` writes, with no sign, space, underscore
        # or leading zero; any other key stays a string, which `PolicySpec` rejects
        clusters = [int(k) if k.isascii() and k.isdigit() and (k == "0" or k[0] != "0") else k for k in multipliers]
        return PolicySpec(dict(zip(clusters, multipliers.values())), doc.get("cap_delta"))
    except ValueError as exc:  # a ValidationError, or a key past `sys.get_int_max_str_digits()`
        raise UsageError(f"policy file {path}: {exc}") from None


def _read_log_checked(path: str) -> tuple[RandomizedLog, str]:
    with _reading(path):
        return read_log(path), _file_sha256(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg, cfg_hash = _load_config(args)
    log = simulate_log(cfg.sim, cfg.randomization, cfg.seed, cfg.bucket_boundaries)
    with _writing(args.out):
        write_log(log, args.out)
    arr = log.arrays
    print(f"simulate: wrote {len(log)} users to {args.out} (seed={cfg.seed}, config={cfg_hash[:12]})")
    print(
        f"  totals: cost={arr['cost'].sum():.2f} value_observed={arr['value_observed'].sum():.2f} "
        f"value_predicted={arr['value_predicted'].sum():.2f} "
        f"win_rate={arr['n_wins'].sum() / max(arr['n_auctions'].sum(), 1):.3f}"
    )
    return 0


def cmd_marginals(args) -> int:
    cfg, cfg_hash = _load_config(args)
    log, log_hash = _read_log_checked(args.log)
    rows = cluster_estimates(log, n_resamples=cfg.resamples, seed=cfg.seed)
    out_rows = [
        [r.cluster, r.n_users, r.dcost, r.dvalue, r.mroi, *r.dcost_ci, *r.dvalue_ci, *(r.mroi_ci or (None, None))]
        for r in rows
    ]
    _write_csv(
        args.out,
        {"config_sha256": cfg_hash, "log_sha256": log_hash, "seed": str(cfg.seed)},
        [
            "cluster",
            "n_users",
            "dcost",
            "dvalue",
            "mroi",
            "dcost_ci_low",
            "dcost_ci_high",
            "dvalue_ci_low",
            "dvalue_ci_high",
            "mroi_ci_low",
            "mroi_ci_high",
        ],
        out_rows,
    )
    print(f"marginals: wrote {len(rows)} clusters to {args.out}")
    for r in rows:
        roi = f"{r.mroi:.4f}" if r.defined else "undefined"
        print(f"  cluster {r.cluster}: n={r.n_users} dcost={r.dcost:.2f} dvalue={r.dvalue:.2f} mROI={roi}")
    return 0


def cmd_optimize(args) -> int:
    rows, prov = _read_marginals_csv(args.marginals)
    try:
        cluster_rows = [
            ClusterRow(int(r["cluster"]), None, _finite(r["dcost"]), _finite(r["dvalue"]),
                       mroi=_finite(r["mroi"]) if r["mroi"] != "" else None)
            for r in rows
        ]
    except (KeyError, ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"marginals file {args.marginals} has a malformed row: {exc!r}") from None
    result = solve_reallocation_detailed(ReallocationProblem.from_rows(cluster_rows, cap_delta=args.cap))
    provenance = {
        "marginals_sha256": _file_sha256(args.marginals),
        "tool": f"impatience/{__version__}",
    }
    if "log_sha256" in prov:
        provenance["log_sha256"] = prov["log_sha256"]
    _write_policy(args.out, result.policy, provenance, result.diagnostic)
    alphas = ", ".join(f"{c}:{a:.4f}" for c, a in sorted(result.policy.multipliers.items()))
    print(f"optimize: cap={args.cap} objective(dV_linear)={result.objective:.4f}")
    print(f"  multipliers: {alphas}")
    if result.diagnostic:
        print(f"optimize: {result.diagnostic}", file=sys.stderr)
        return 2
    return 0


def cmd_offline_eval(args) -> int:
    cfg, cfg_hash = _load_config(args)
    log, log_hash = _read_log_checked(args.log)
    names = ("dvalue_linear", "dcost_linear", "dvalue_exact", "dcost_exact")
    out_rows = []
    if args.policy:
        policies = [(None, _read_policy(args.policy))]
    else:
        rows = [marginal_roi(log, c) for c in range(log.n_clusters)]
        policies = [
            (delta, solve_reallocation_detailed(ReallocationProblem.from_rows(rows, delta)).policy)
            for delta in cfg.sweep
        ]
    cis = _policy_delta_bootstraps(log, [policy for _, policy in policies], cfg.resamples, cfg.seed)
    for (delta, policy), ci in zip(policies, cis):
        cap = policy.cap_delta if delta is None else delta
        row = [cap]
        for j in range(4):
            row.extend([ci.point[j], ci.low[j], ci.high[j]])
        out_rows.append(row)
        dv_lin, dc_lin, dv_exact, dc_exact = ci.point
        print(
            f"offline-eval: delta={cap:g} dV_lin={dv_lin:.2f} dC_lin={dc_lin:.2e} "
            f"dV_exact={dv_exact:.2f} dC_exact={dc_exact:.2f}"
        )
    header = ["delta"]
    for name in names:
        header.extend([name, f"{name}_ci_low", f"{name}_ci_high"])
    _write_csv(
        args.out,
        {"config_sha256": cfg_hash, "log_sha256": log_hash, "seed": str(cfg.seed)},
        header,
        out_rows,
    )
    print(f"offline-eval: wrote {len(out_rows)} rows to {args.out}")
    return 0


def _relative_delta(treated, baseline):
    for name in ("value", "cost"):
        if getattr(baseline, name) == 0:
            raise ValidationError(f"the baseline arm's {name} is 0, so a relative delta is undefined; "
                                  "each arm needs users who win auctions")
    dv = treated.value / baseline.value - 1.0
    dc = treated.cost / baseline.cost - 1.0
    dv_se = np.hypot(treated.value_se / baseline.value, treated.value * baseline.value_se / baseline.value**2)
    dc_se = np.hypot(treated.cost_se / baseline.cost, treated.cost * baseline.cost_se / baseline.cost**2)
    return dv, dv_se, dc, dc_se


def cmd_ab(args) -> int:
    cfg, cfg_hash = _load_config(args)
    policy = _read_policy(args.policy)
    sim = cfg.sim if args.users_per_arm is None else replace(cfg.sim, n_users=args.users_per_arm)
    n_clusters = len(cfg.bucket_boundaries) + 1
    outcomes = {
        name: oracle_policy_outcome(sim, pol, args.reps, arm_seed, cfg.bucket_boundaries)
        for name, pol, arm_seed in (
            ("baseline", BidPolicy.impatient(cfg.randomization), cfg.seed),
            ("fixed_factor", BidPolicy.from_policy_spec(cfg.randomization, policy, n_clusters), cfg.seed + 1),
            ("dynamic_factor", BidPolicy.from_policy_spec(cfg.randomization, policy, n_clusters, dynamic=True),
             cfg.seed + 2),
        )
    }
    print(f"ab: {sim.n_users} users/arm x {args.reps} reps")
    arms = {}
    for name, out in outcomes.items():
        arms[name] = {"value": out.value, "cost": out.cost, "value_se": out.value_se, "cost_se": out.cost_se}
        if name != "baseline":
            dv, dv_se, dc, dc_se = _relative_delta(out, outcomes["baseline"])
            arms[name].update(rel_dvalue=dv, rel_dvalue_se=dv_se, rel_dcost=dc, rel_dcost_se=dc_se)
            print(f"  {name}: dV={dv:+.4%} (se {dv_se:.4%})  dC={dc:+.4%} (se {dc_se:.4%})")
    _write_json(args.out, {"tool": f"impatience/{__version__}", "config_sha256": cfg_hash, "seed": cfg.seed,
                           "n_reps": args.reps, "users_per_arm": sim.n_users, "arms": arms})
    print(f"ab: wrote report to {args.out}")
    return 0


def cmd_weight_profile(args) -> int:
    cfg, cfg_hash = _load_config(args)
    alphas = tuple(args.alphas) if args.alphas else DEFAULT_PROFILE_ALPHAS
    rows = weight_std_profile(cfg.randomization, alphas, n_samples=args.samples, seed=cfg.seed)
    _write_csv(
        args.out,
        {"config_sha256": cfg_hash, "seed": str(cfg.seed), "n_samples": str(args.samples)},
        ["alpha", "std_exact", "std_linear"],
        [[r.alpha, r.std_exact, r.std_linear] for r in rows],
    )
    print(f"weight-profile: wrote {len(rows)} rows to {args.out}")
    for r in rows:
        print(f"  alpha={r.alpha:g}: std_exact={r.std_exact:.4f} std_linear={r.std_linear:.4f}")
    return 0


def cmd_two_auctions(args) -> int:
    try:
        raw = json.loads(args.competition, object_pairs_hook=_unique_keys)
        raw2 = json.loads(args.competition2, object_pairs_hook=_unique_keys) if args.competition2 else None
    except _JSON_ERRORS as exc:
        raise UsageError(f"competition spec is not valid JSON: {exc}") from None
    comp2 = Distribution.from_json(raw2) if args.competition2 else None
    result = two_auction_demo(args.value, Distribution.from_json(raw), args.step, comp2)
    _write_csv(
        args.out,
        {"best_first_bid": repr(result.best_first_bid), "ticket_value": repr(args.value)},
        ["bid", "expected_profit"],
        [[b, p] for b, p in zip(result.bids, result.expected_profit)],
    )
    print(f"two-auctions: best first bid {result.best_first_bid:g} (ticket value {args.value:g})")
    print(f"two-auctions: wrote profit curve to {args.out}")
    return 0


def cmd_fit_ctr(args) -> int:
    cfg, cfg_hash = _load_config(args)
    exposure, converted = simulate_display_trace(cfg.sim, cfg.randomization, cfg.seed)
    events = events_from_trace(exposure, converted)
    out_rows = []
    for name, include in (("no_fatigue", False), ("fatigue", True)):
        model = fit_ctr(events, include_fatigue=include, l2=args.l2,
                        fatigue_boundaries=cfg.bucket_boundaries)
        for row in calibration_curve(model, events):
            out_rows.append([name, row.bucket, row.n, row.empirical_rate, row.mean_predicted])
    _write_csv(
        args.out,
        {"config_sha256": cfg_hash, "seed": str(cfg.seed), "n_events": str(len(events))},
        ["model", "bucket", "n", "empirical_rate", "mean_predicted"],
        out_rows,
    )
    print(f"fit-ctr: {len(events)} display events; wrote calibration curves to {args.out}")
    return 0


def cmd_init_config(args) -> int:
    cfg = default_experiment_config()
    _write_json(args.out, cfg.to_json())
    print(f"init-config: wrote default config to {args.out}")
    return 0


# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's seeding requires."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _finite(text: str) -> float:
    """A float flag or CSV cell: a finite number, as every computation on it needs."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="impatience", description=__doc__)
    parser.add_argument("--version", action="version", version=f"impatience {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, reads_config=True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        if reads_config:
            p.add_argument("--config", required=True)
            p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
        p.add_argument("--out", required=True)
        return p

    add("init-config", cmd_init_config, "write the default experiment config", reads_config=False)
    add("simulate", cmd_simulate, "simulate a randomized log")

    p = add("marginals", cmd_marginals, "per-cluster marginal ROI with bootstrap CIs")
    p.add_argument("--log", required=True)
    p.add_argument("--resamples", type=int, default=None)

    p = add("optimize", cmd_optimize, "solve the capped cost-neutral reallocation", reads_config=False)
    p.add_argument("--marginals", required=True)
    p.add_argument("--cap", type=_finite, default=0.2)

    p = add("offline-eval", cmd_offline_eval, "offline policy deltas across an amplitude sweep")
    p.add_argument("--log", required=True)
    policy_or_sweep = p.add_mutually_exclusive_group()
    policy_or_sweep.add_argument("--policy", default=None, help="evaluate this policy instead of a sweep")
    policy_or_sweep.add_argument("--sweep", type=_finite, nargs="+", default=None)
    p.add_argument("--resamples", type=int, default=None)

    p = add("ab", cmd_ab, "simulated A/B: baseline vs fixed- and dynamic-factor policy")
    p.add_argument("--policy", required=True)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--users-per-arm", type=int, default=None)

    p = add("weight-profile", cmd_weight_profile, "importance-weight std vs multiplier")
    p.add_argument("--alphas", type=_finite, nargs="+", default=None)
    p.add_argument("--samples", type=int, default=100_000)

    p = add("two-auctions", cmd_two_auctions, "repeated-auction bid shading illustration", reads_config=False)
    p.add_argument("--value", type=_finite, default=100.0)
    p.add_argument("--competition", required=True, help='JSON, e.g. {"kind":"uniform","low":0,"high":100}')
    p.add_argument("--competition2", default=None, help="second-auction competition (defaults to the first)")
    p.add_argument("--step", type=_finite, default=0.1)

    p = add("fit-ctr", cmd_fit_ctr, "fit CTR models with/without fatigue; calibration curves")
    p.add_argument("--l2", type=_finite, default=0.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, LogFormatError, ValidationError) as exc:
        print(f"impatience: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"impatience: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
