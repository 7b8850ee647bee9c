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
import sys
from contextlib import contextmanager
from dataclasses import dataclass

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
    _check_boundaries,
    _is_number,
    atomic_write,
    read_log,
    write_log,
)
from .estimators import cluster_estimates, marginal_roi, policy_delta_bootstrap, weight_std_profile
from .optimizer import ReallocationProblem, solve_reallocation_detailed
from .predictor import ConvergenceError, calibration_curve, events_from_trace, fit_ctr
from .simulator import (
    BidPolicy,
    SimConfig,
    default_config,
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
        _check_boundaries(self.bucket_boundaries)

    def to_json(self) -> dict:
        return {
            "sim": self.sim.to_json(),
            "randomization": {"mu": self.randomization.mu, "sigma": self.randomization.sigma},
            "bucket_boundaries": list(self.bucket_boundaries),
            "resamples": self.resamples,
            "cap_delta": self.cap_delta,
            "sweep": list(self.sweep),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, raw) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValidationError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {"sim", "randomization", "bucket_boundaries", "resamples", "cap_delta", "sweep", "seed"}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown config keys {sorted(unknown)}")
        if "sim" not in raw or "randomization" not in raw:
            raise ValidationError("config requires 'sim' and 'randomization' sections")
        if not isinstance(raw["sim"], dict):
            raise ValidationError(f"config 'sim' must be an object, got {raw['sim']!r}")
        rand = raw["randomization"]
        if not (isinstance(rand, dict) and _is_number(rand.get("mu")) and _is_number(rand.get("sigma"))):
            raise ValidationError(f"config 'randomization' must be an object with numbers 'mu' and 'sigma', "
                                  f"got {rand!r}")
        for key in ("resamples", "seed"):
            if key in raw and not (type(raw[key]) is int and raw[key] >= 0):
                raise ValidationError(f"config '{key}' must be a non-negative integer, got {raw[key]!r}")
        if "cap_delta" in raw and not _is_number(raw["cap_delta"]):
            raise ValidationError(f"config 'cap_delta' must be a finite number, got {raw['cap_delta']!r}")
        sweep = raw.get("sweep", DEFAULT_SWEEP)
        if not (isinstance(sweep, (list, tuple)) and all(map(_is_number, sweep))):
            raise ValidationError(f"config 'sweep' must be a list of finite numbers, got {sweep!r}")
        boundaries = raw.get("bucket_boundaries", DEFAULT_BUCKETS)
        if not (isinstance(boundaries, (list, tuple)) and all(type(b) is int for b in boundaries)):
            raise ValidationError(f"config 'bucket_boundaries' must be a list of integers, got {boundaries!r}")
        return cls(
            sim=SimConfig.from_json(raw["sim"]),
            randomization=RandomizationSpec(float(rand["mu"]), float(rand["sigma"])),
            bucket_boundaries=tuple(boundaries),
            resamples=raw.get("resamples", 1000),
            cap_delta=float(raw.get("cap_delta", 0.2)),
            sweep=tuple(sweep),
            seed=raw.get("seed", 0),
        )


def default_experiment_config() -> ExperimentConfig:
    return ExperimentConfig(sim=default_config(), randomization=RandomizationSpec(0.0, 0.3))


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _load_config(path: str | None) -> tuple[ExperimentConfig, str]:
    if path is None:
        raise UsageError("--config is required for this command")
    try:
        with _reading(path), open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_json(raw), _file_sha256(path)


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
    """Report an input file that cannot be read as a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


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
    try:
        with _reading(path), open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"policy file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"policy file {path} does not hold a JSON object")
    if doc.get("schema") != POLICY_SCHEMA:
        raise UsageError(f"unsupported policy schema {doc.get('schema')!r}")
    multipliers = doc.get("multipliers")
    numbers = [doc.get("cap_delta"), *multipliers.values()] if isinstance(multipliers, dict) else [None]
    if not all(map(_is_number, numbers)):
        raise UsageError(f"policy file {path} needs a 'multipliers' object and a 'cap_delta', all finite numbers")
    try:
        clusters = [int(k) for k in multipliers]
    except ValueError:
        raise UsageError(f"policy file {path}: cluster keys must be integers, got {list(multipliers)}") from None
    return PolicySpec(dict(zip(clusters, map(float, multipliers.values()))), float(doc["cap_delta"]))


def _read_log_checked(path: str | None) -> tuple[RandomizedLog, str]:
    if path is None:
        raise UsageError("--log is required for this command")
    with _reading(path):
        return read_log(path), _file_sha256(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg, cfg_hash = _load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    log = simulate_log(cfg.sim, cfg.randomization, seed, cfg.bucket_boundaries)
    with _writing(args.out):
        write_log(log, args.out)
    arr = log.arrays
    print(f"simulate: wrote {len(log)} users to {args.out} (seed={seed}, config={cfg_hash[:12]})")
    print(
        f"  totals: cost={arr['cost'].sum():.2f} value_observed={arr['value_observed'].sum():.2f} "
        f"value_predicted={arr['value_predicted'].sum():.2f} "
        f"win_rate={arr['n_wins'].sum() / max(arr['n_auctions'].sum(), 1):.3f}"
    )
    return 0


def cmd_marginals(args) -> int:
    cfg, cfg_hash = _load_config(args.config)
    log, log_hash = _read_log_checked(args.log)
    resamples = cfg.resamples if args.resamples is None else args.resamples
    seed = cfg.seed if args.seed is None else args.seed
    rows = cluster_estimates(log, n_resamples=resamples, seed=seed)
    out_rows = [
        [r.cluster, r.n_users, r.dcost, r.dvalue, r.mroi, *r.dcost_ci, *r.dvalue_ci, *(r.mroi_ci or (None, None))]
        for r in rows
    ]
    _write_csv(
        args.out,
        {"config_sha256": cfg_hash, "log_sha256": log_hash, "seed": str(seed)},
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
        roi = "undefined" if r.mroi is None else f"{r.mroi:.4f}"
        print(f"  cluster {r.cluster}: n={r.n_users} dcost={r.dcost:.2f} dvalue={r.dvalue:.2f} mROI={roi}")
    return 0


def cmd_optimize(args) -> int:
    rows, prov = _read_marginals_csv(args.marginals)
    try:
        cluster_rows = [
            ClusterRow(int(r["cluster"]), None, float(r["dcost"]), float(r["dvalue"]),
                       mroi=float(r["mroi"]) if r["mroi"] != "" else None)
            for r in rows
        ]
    except (KeyError, ValueError) as exc:
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
    cfg, cfg_hash = _load_config(args.config)
    log, log_hash = _read_log_checked(args.log)
    resamples = cfg.resamples if args.resamples is None else args.resamples
    seed = cfg.seed if args.seed is None else args.seed
    names = ("dvalue_linear", "dcost_linear", "dvalue_exact", "dcost_exact")
    out_rows = []
    if args.policy:
        policies = [(None, _read_policy(args.policy))]
    else:
        sweep = tuple(args.sweep) if args.sweep else cfg.sweep
        rois = [marginal_roi(log, c) for c in range(log.n_clusters)]
        rows = [ClusterRow(c, None, roi.denominator, roi.numerator, roi.value) for c, roi in enumerate(rois)]
        policies = [
            (delta, solve_reallocation_detailed(ReallocationProblem.from_rows(rows, delta)).policy) for delta in sweep
        ]
    for delta, policy in policies:
        cap = policy.cap_delta if delta is None else delta
        ci = policy_delta_bootstrap(log, policy, resamples, seed)
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
        {"config_sha256": cfg_hash, "log_sha256": log_hash, "seed": str(seed)},
        header,
        out_rows,
    )
    print(f"offline-eval: wrote {len(out_rows)} rows to {args.out}")
    return 0


def _relative_delta(treated, baseline):
    dv = treated.value / baseline.value - 1.0
    dc = treated.cost / baseline.cost - 1.0
    dv_se = np.hypot(treated.value_se / baseline.value, treated.value * baseline.value_se / baseline.value**2)
    dc_se = np.hypot(treated.cost_se / baseline.cost, treated.cost * baseline.cost_se / baseline.cost**2)
    return dv, dv_se, dc, dc_se


def cmd_ab(args) -> int:
    cfg, cfg_hash = _load_config(args.config)
    policy = _read_policy(args.policy)
    seed = cfg.seed if args.seed is None else args.seed
    sim = cfg.sim
    if args.users_per_arm is not None:
        raw = sim.to_json()
        raw["n_users"] = args.users_per_arm
        sim = SimConfig.from_json(raw)
    n_clusters = len(cfg.bucket_boundaries) + 1
    baseline_policy = BidPolicy.impatient(cfg.randomization)
    fixed = BidPolicy.from_policy_spec(cfg.randomization, policy, n_clusters)
    dynamic = BidPolicy.from_policy_spec(cfg.randomization, policy, n_clusters, dynamic=True)
    outcomes = {}
    for name, pol, arm_seed in (
        ("baseline", baseline_policy, seed),
        ("fixed_factor", fixed, seed + 1),
        ("dynamic_factor", dynamic, seed + 2),
    ):
        outcomes[name] = oracle_policy_outcome(sim, pol, args.reps, arm_seed, cfg.bucket_boundaries)
    report = {"tool": f"impatience/{__version__}", "config_sha256": cfg_hash, "seed": seed,
              "n_reps": args.reps, "users_per_arm": sim.n_users, "arms": {}}
    for name, out in outcomes.items():
        report["arms"][name] = {
            "value": out.value,
            "cost": out.cost,
            "value_se": out.value_se,
            "cost_se": out.cost_se,
        }
    print(f"ab: {sim.n_users} users/arm x {args.reps} reps")
    for name in ("fixed_factor", "dynamic_factor"):
        dv, dv_se, dc, dc_se = _relative_delta(outcomes[name], outcomes["baseline"])
        report["arms"][name]["rel_dvalue"] = dv
        report["arms"][name]["rel_dvalue_se"] = dv_se
        report["arms"][name]["rel_dcost"] = dc
        report["arms"][name]["rel_dcost_se"] = dc_se
        print(f"  {name}: dV={dv:+.4%} (se {dv_se:.4%})  dC={dc:+.4%} (se {dc_se:.4%})")
    _write_json(args.out, report)
    print(f"ab: wrote report to {args.out}")
    return 0


def cmd_weight_profile(args) -> int:
    cfg, cfg_hash = _load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    alphas = tuple(args.alphas) if args.alphas else DEFAULT_PROFILE_ALPHAS
    rows = weight_std_profile(cfg.randomization, alphas, n_samples=args.samples, seed=seed)
    _write_csv(
        args.out,
        {"config_sha256": cfg_hash, "seed": str(seed), "n_samples": str(args.samples)},
        ["alpha", "std_exact", "std_linear"],
        [[r.alpha, r.std_exact, r.std_linear] for r in rows],
    )
    print(f"weight-profile: wrote {len(rows)} rows to {args.out}")
    for r in rows:
        print(f"  alpha={r.alpha:g}: std_exact={r.std_exact:.4f} std_linear={r.std_linear:.4f}")
    return 0


def cmd_two_auctions(args) -> int:
    try:
        comp = Distribution.from_json(json.loads(args.competition))
        comp2 = Distribution.from_json(json.loads(args.competition2)) if args.competition2 else None
    except json.JSONDecodeError as exc:
        raise UsageError(f"competition spec is not valid JSON: {exc}") from None
    result = two_auction_demo(args.value, comp, args.step, comp2)
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
    cfg, cfg_hash = _load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    exposure, converted = simulate_display_trace(cfg.sim, cfg.randomization, seed)
    events = events_from_trace(exposure, converted)
    out_rows = []
    for name, include in (("no_fatigue", False), ("fatigue", True)):
        model = fit_ctr(events, include_fatigue=include, l2=args.l2,
                        fatigue_boundaries=cfg.bucket_boundaries)
        for row in calibration_curve(model, events):
            out_rows.append([name, row.bucket, row.n, row.empirical_rate, row.mean_predicted])
    _write_csv(
        args.out,
        {"config_sha256": cfg_hash, "seed": str(seed), "n_events": str(len(events))},
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="impatience", description=__doc__)
    parser.add_argument("--version", action="version", version=f"impatience {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
        return p

    p = add("init-config", cmd_init_config, "write the default experiment config")
    p.add_argument("--out", required=True)

    p = add("simulate", cmd_simulate, "simulate a randomized log")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = add("marginals", cmd_marginals, "per-cluster marginal ROI with bootstrap CIs")
    p.add_argument("--config", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resamples", type=int, default=None)

    p = add("optimize", cmd_optimize, "solve the capped cost-neutral reallocation")
    p.add_argument("--marginals", required=True)
    p.add_argument("--cap", type=float, default=0.2)
    p.add_argument("--out", required=True)

    p = add("offline-eval", cmd_offline_eval, "offline policy deltas across an amplitude sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--policy", default=None, help="evaluate this policy instead of a sweep")
    p.add_argument("--sweep", type=float, nargs="+", default=None)
    p.add_argument("--resamples", type=int, default=None)

    p = add("ab", cmd_ab, "simulated A/B: baseline vs fixed- and dynamic-factor policy")
    p.add_argument("--config", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--users-per-arm", type=int, default=None)

    p = add("weight-profile", cmd_weight_profile, "importance-weight std vs multiplier")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alphas", type=float, nargs="+", default=None)
    p.add_argument("--samples", type=int, default=100_000)

    p = add("two-auctions", cmd_two_auctions, "repeated-auction bid shading illustration")
    p.add_argument("--value", type=float, default=100.0)
    p.add_argument("--competition", required=True, help='JSON, e.g. {"kind":"uniform","low":0,"high":100}')
    p.add_argument("--competition2", default=None, help="second-auction competition (defaults to the first)")
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--out", required=True)

    p = add("fit-ctr", cmd_fit_ctr, "fit CTR models with/without fatigue; calibration curves")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--l2", type=float, default=0.0)

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
