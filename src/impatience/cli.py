"""Command-line driver for the randomize/estimate/optimize/validate recipe.

Subcommands cover the full loop: simulate a randomized log, compute
per-cluster marginal ROI, solve the capped cost-neutral reallocation,
predict the policy's effect offline, and validate against a simulated
A/B split. All numeric output goes to files (CSV/JSON with provenance
comments); a short human-readable summary goes to stdout. Outputs are
byte-identical across reruns with the same config and seeds.

Each subcommand loads its inputs, makes one library call, writes its
output and prints its summary; every file format lives in `domain`.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, fields, replace
from itertools import chain

from . import __version__
from .distributions import Distribution
from .domain import (
    TOOL,
    LogFormatError,
    UsageError,
    ValidationError,
    _JSON_ERRORS,
    _finite,
    _fmt,  # noqa: F401  (re-exported: callers import it from here)
    _unique_keys,
    read_json,
    read_log,
    read_marginals,
    read_policy,
    write_csv,
    write_json,
    write_log,
    write_marginals,
    write_policy,
)
from .estimators import WeightProfileRow, _policy_delta_bootstraps, cluster_estimates, weight_std_profile
from .optimizer import PolicyDelta, ReallocationProblem, solve_reallocation_detailed, sweep_policies
from .predictor import CalibrationRow, ConvergenceError, calibration_curves, events_from_trace
from .simulator import (
    DEFAULT_SWEEP,  # noqa: F401  (re-exported with the config record)
    ExperimentConfig,
    ab_outcomes,
    default_experiment_config,
    simulate_display_trace,
    simulate_log,
    two_auction_demo,
)

DEFAULT_PROFILE_ALPHAS = (0.5, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5, 2.0)


def _load_config(args) -> tuple[ExperimentConfig, dict]:
    """The --config file with the flags that override its fields, checked as one config, and
    the provenance every output of the run records: the config's sha256 and the seed."""
    provenance = {}
    raw = read_json(args.config, "config", provenance)
    flags = {key: value for key in ("seed", "resamples", "sweep") if (value := getattr(args, key, None)) is not None}
    cfg = replace(ExperimentConfig.from_json(raw), **flags)
    return cfg, {**provenance, "seed": cfg.seed}


def _in_file(what: str, path: str, check, *args):
    """`check(*args)`, where a broken rule is a fault of the `what` file at `path`: its error names the file."""
    try:
        return check(*args)
    except ValidationError as exc:
        raise UsageError(f"{what} file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg, provenance = _load_config(args)
    log = simulate_log(cfg.sim, cfg.randomization, cfg.seed, cfg.bucket_boundaries)
    write_log(log, args.out)
    arr = log.arrays
    print(f"simulate: wrote {len(log)} users to {args.out} (seed={cfg.seed}, "
          f"config={provenance['config_sha256'][:12]})")
    print(f"  totals: cost={arr['cost'].sum():.2f} value_observed={arr['value_observed'].sum():.2f} "
          f"value_predicted={arr['value_predicted'].sum():.2f} "
          f"win_rate={arr['n_wins'].sum() / max(arr['n_auctions'].sum(), 1):.3f}")
    return 0


def cmd_marginals(args) -> int:
    cfg, provenance = _load_config(args)
    log = read_log(args.log, provenance)
    rows = cluster_estimates(log, n_resamples=cfg.resamples, seed=cfg.seed)
    write_marginals(args.out, rows, provenance)
    print(f"marginals: wrote {len(rows)} clusters to {args.out}")
    for r in rows:
        roi = f"{r.mroi:.4f}" if r.defined else "undefined"
        print(f"  cluster {r.cluster}: n={r.n_users} dcost={r.dcost:.2f} dvalue={r.dvalue:.2f} mROI={roi}")
    return 0


def cmd_optimize(args) -> int:
    provenance = {}
    rows, upstream = read_marginals(args.marginals, provenance)
    # the rows' faults, at the default cap, are the file's; --cap is checked after them
    problem = _in_file("marginals", args.marginals, ReallocationProblem.from_rows, rows)
    result = solve_reallocation_detailed(replace(problem, cap_delta=args.cap))
    if "log_sha256" in upstream:
        provenance["log_sha256"] = upstream["log_sha256"]
    write_policy(args.out, result.policy, provenance, result.diagnostic)
    alphas = ", ".join(f"{c}:{a:.4f}" for c, a in sorted(result.policy.multipliers.items()))
    print(f"optimize: cap={args.cap} objective(dV_linear)={result.objective:.4f}")
    print(f"  multipliers: {alphas}")
    if result.diagnostic:
        print(f"optimize: {result.diagnostic}", file=sys.stderr)
        return 2
    return 0


def cmd_offline_eval(args) -> int:
    cfg, provenance = _load_config(args)
    policy = read_policy(args.policy, provenance) if args.policy else None  # a bad one fails before the log read
    log = read_log(args.log, provenance)
    if args.policy:  # its clusters must be the log's
        _in_file("policy", args.policy, policy.multiplier_array, log.n_clusters)
    policies = [policy] if args.policy else sweep_policies(log, cfg.sweep)
    cis = _policy_delta_bootstraps(log, policies, cfg.resamples, cfg.seed)
    for policy, ci in zip(policies, cis):
        dv_lin, dc_lin, dv_exact, dc_exact = ci.point
        print(f"offline-eval: delta={policy.cap_delta:g} dV_lin={dv_lin:.2f} dC_lin={dc_lin:.2e} "
              f"dV_exact={dv_exact:.2f} dC_exact={dc_exact:.2f}")
    header = ["delta", *(f.name + end for f in fields(PolicyDelta) for end in ("", "_ci_low", "_ci_high"))]
    write_csv(args.out, provenance, header,
              ([policy.cap_delta, *chain(*zip(ci.point, ci.low, ci.high))] for policy, ci in zip(policies, cis)))
    print(f"offline-eval: wrote {len(cis)} rows to {args.out}")
    return 0


def cmd_ab(args) -> int:
    cfg, provenance = _load_config(args)
    policy = read_policy(args.policy, provenance)
    _in_file("policy", args.policy, policy.multiplier_array, len(cfg.bucket_boundaries) + 1)  # the config's clusters
    sim = cfg.sim if args.users_per_arm is None else replace(cfg.sim, n_users=args.users_per_arm)
    outcomes = ab_outcomes(sim, cfg.randomization, policy, args.reps, cfg.seed, cfg.bucket_boundaries)
    print(f"ab: {sim.n_users} users/arm x {args.reps} reps")
    arms = {}
    for name, out in outcomes.items():
        arms[name] = {"value": out.value, "cost": out.cost, "value_se": out.value_se, "cost_se": out.cost_se}
        if name != "baseline":
            rel = out.relative_to(outcomes["baseline"])
            arms[name].update(rel)
            print(f"  {name}: dV={rel['rel_dvalue']:+.4%} (se {rel['rel_dvalue_se']:.4%})  "
                  f"dC={rel['rel_dcost']:+.4%} (se {rel['rel_dcost_se']:.4%})")
    write_json(args.out, {"tool": TOOL, **provenance, "n_reps": args.reps, "users_per_arm": sim.n_users,
                          "arms": arms})
    print(f"ab: wrote report to {args.out}")
    return 0


def cmd_weight_profile(args) -> int:
    cfg, provenance = _load_config(args)
    rows = weight_std_profile(cfg.randomization, args.alphas, n_samples=args.samples, seed=cfg.seed)
    write_csv(args.out, {**provenance, "n_samples": args.samples}, [f.name for f in fields(WeightProfileRow)],
              map(astuple, rows))
    print(f"weight-profile: wrote {len(rows)} rows to {args.out}")
    for r in rows:
        print(f"  alpha={r.alpha:g}: std_exact={r.std_exact:.4f} std_linear={r.std_linear:.4f}")
    return 0


def cmd_two_auctions(args) -> int:
    competitions = []
    # in the order the flags are listed; an empty --competition2 is a spec to read, not an absent flag
    for text in [args.competition] + ([] if args.competition2 is None else [args.competition2]):
        try:
            raw = json.loads(text, object_pairs_hook=_unique_keys)
        except _JSON_ERRORS as exc:
            raise UsageError(f"competition spec is not valid JSON: {exc}") from None
        competitions.append(Distribution.from_json(raw))
    result = two_auction_demo(args.value, competitions[0], args.step, *competitions[1:])
    write_csv(args.out, {"best_first_bid": result.best_first_bid, "ticket_value": args.value},
              ["bid", "expected_profit"], zip(result.bids, result.expected_profit))
    print(f"two-auctions: best first bid {result.best_first_bid:g} (ticket value {args.value:g})")
    print(f"two-auctions: wrote profit curve to {args.out}")
    return 0


def cmd_fit_ctr(args) -> int:
    cfg, provenance = _load_config(args)
    events = events_from_trace(*simulate_display_trace(cfg.sim, cfg.randomization, cfg.seed))
    curves = calibration_curves(events, args.l2, cfg.bucket_boundaries)
    write_csv(args.out, {**provenance, "n_events": len(events)}, ["model", *(f.name for f in fields(CalibrationRow))],
              ([name, *astuple(row)] for name, curve in curves.items() for row in curve))
    print(f"fit-ctr: {len(events)} display events; wrote calibration curves to {args.out}")
    return 0


def cmd_init_config(args) -> int:
    write_json(args.out, default_experiment_config().to_json())
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
    p.add_argument("--alphas", type=_finite, nargs="+", default=DEFAULT_PROFILE_ALPHAS)
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
