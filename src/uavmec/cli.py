"""Command-line harness: train, evaluate, compare, inspect-checkpoint.

Settings resolve in order: built-in defaults, then the --config file, then
UAVMEC_* environment variables, then explicit flags.  Comparison outputs are
only written once every requested run has completed, so a failed run never
leaves a silently truncated report behind.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    AppConfig,
    ConfigError,
    LEARNER_POLICIES,
    POLICY_NAMES,
    STATE_LAYOUTS,
    config_hash,
    load_config,
)
from .harness import (
    checkpoint_kind,
    evaluate_many,
    inspect_checkpoint,
    load_policies,  # noqa: F401  unused here; bench/tracing.py wraps it under this name
    save_checkpoint,
    train_policy,
)
from .metrics import (
    convergence_summary,
    write_battery_csv,
    write_convergence_csv,
    write_placements_csv,
    write_summary_csv,
    write_violations_csv,
)
from .simulation import SimulationError
from .simulation import run_episode  # noqa: F401  unused here; bench/tracing.py wraps it


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides sim.seed)")
    parser.add_argument("--out", help="output directory (overrides experiment.out_dir)")
    parser.add_argument(
        "--state-layout", choices=STATE_LAYOUTS, help="state vector layout for the deep agent"
    )
    parser.add_argument(
        "--target-network", choices=("on", "off"),
        help="bootstrap deep targets from a periodically synced copy",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavmec",
        description="Simulate UAV/MEC task offloading and compare scheduling policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a learning policy and save its checkpoint")
    _add_common(p_train)
    p_train.add_argument("--policy", required=True, choices=POLICY_NAMES)
    p_train.add_argument("--episodes", type=int, help="training episodes (overrides config)")
    p_train.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p_eval = sub.add_parser("evaluate", help="run a policy greedily over evaluation seeds")
    _add_common(p_eval)
    p_eval.add_argument("--policy", required=True, choices=POLICY_NAMES)
    p_eval.add_argument("--checkpoint", help="checkpoint file (required for learners)")
    p_eval.add_argument("--seeds", type=int, help="number of evaluation seeds")
    p_eval.add_argument("--episodes", type=int, help="episodes per seed")
    p_eval.add_argument(
        "--placements", action="store_true",
        help="also write the per-task log of the first seed's first episode",
    )

    p_cmp = sub.add_parser(
        "compare", help="train missing learners, evaluate all policies, write ranked summary"
    )
    _add_common(p_cmp)
    p_cmp.add_argument("--policies", help="comma-separated policy list (default from config)")
    p_cmp.add_argument("--seeds", type=int, help="number of evaluation seeds")
    p_cmp.add_argument(
        "--checkpoint", action="append", default=[], metavar="POLICY=PATH",
        help="use an existing checkpoint instead of training (repeatable)",
    )
    p_cmp.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p_ins = sub.add_parser("inspect-checkpoint", help="print a checkpoint summary")
    p_ins.add_argument("path")
    return parser


def _resolve_config(args) -> AppConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.sim.seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.experiment.out_dir = args.out
    if getattr(args, "state_layout", None) is not None:
        cfg.mdp.state_layout = args.state_layout
    if getattr(args, "target_network", None) is not None:
        cfg.rl.target_network = args.target_network == "on"
    return cfg


def _out_dir(cfg: AppConfig) -> Path:
    out = Path(cfg.experiment.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _base_meta(cfg: AppConfig) -> dict:
    return {"config_hash": config_hash(cfg), "master_seed": cfg.sim.seed}


def _train(cfg: AppConfig, policy: str, episodes: int, out: Path, curve_name: str,
           quiet: bool) -> tuple[Path, int | None]:
    """Train ``policy``, save ``<policy>.ckpt`` and write the convergence curve
    to ``curve_name``; returns (checkpoint path, convergence episode)."""
    agents, rewards = train_policy(
        cfg, policy, episodes, cfg.sim.seed, checkpoint_dir=out,
        log_every=0 if quiet else max(1, episodes // 10),
    )
    ckpt = out / f"{policy}.ckpt"
    save_checkpoint(policy, agents, ckpt, cfg, cfg.sim.seed, episodes)
    exp = cfg.experiment
    conv = convergence_summary(
        rewards, exp.smoothing_window, exp.convergence_threshold, exp.convergence_patience
    )
    meta = _base_meta(cfg)
    meta.update({
        "policy": policy,
        "episodes": episodes,
        "convergence_episode": "none" if conv is None else conv,
        "convergence_threshold": exp.convergence_threshold,
    })
    write_convergence_csv(out / curve_name, meta, rewards, exp.smoothing_window)
    return ckpt, conv


def _evaluate(cfg: AppConfig, out: Path, policies: list, seeds: int, episodes: int,
              checkpoints: dict, label: dict, placements: bool = False) -> None:
    """Evaluate every policy over ``seeds`` seeds and write the battery,
    violations and summary reports; with ``placements``, also the per-task
    log of the first policy's first seed and episode."""
    jobs = [
        (policy, cfg.sim.seed, seed_index, episodes, checkpoints.get(policy))
        for policy in policies
        for seed_index in range(seeds)
    ]
    runs = evaluate_many(cfg, jobs, workers=cfg.experiment.workers, first_episode=placements)
    if placements:
        runs, first = runs
    out.mkdir(parents=True, exist_ok=True)
    unit_names = [cfg.sim.unit_name(u) for u in range(cfg.sim.num_units)]
    meta = _base_meta(cfg)
    meta.update({**label, "eval_seeds": seeds, "episodes_per_seed": episodes})
    write_battery_csv(out / "battery.csv", meta, runs, unit_names)
    write_violations_csv(out / "violations.csv", meta, runs, unit_names)
    write_summary_csv(
        out / "summary.csv", meta, runs, cfg.sim.objective_weight_w, cfg.sim.violation_scale_theta
    )
    if placements:
        write_placements_csv(out / "placements.csv", meta, first, unit_names)


def cmd_train(args, parser) -> int:
    cfg = _resolve_config(args)
    if args.policy not in LEARNER_POLICIES:
        parser.error(f"policy {args.policy!r} does not train; choose from {LEARNER_POLICIES}")
    episodes = args.episodes if args.episodes is not None else cfg.experiment.train_episodes(args.policy)
    if episodes < 1:
        parser.error("--episodes must be >= 1")
    out = _out_dir(cfg)
    ckpt, conv = _train(cfg, args.policy, episodes, out, "convergence.csv", args.quiet)
    print(f"trained {args.policy} for {episodes} episodes")
    print(
        f"convergence episode at smoothed reward >= {cfg.experiment.convergence_threshold:g}: "
        f"{'none' if conv is None else conv}"
    )
    print(f"checkpoint: {ckpt}")
    print(f"convergence curve: {out / 'convergence.csv'}")
    return 0


def cmd_evaluate(args, parser) -> int:
    cfg = _resolve_config(args)
    if args.checkpoint and args.policy not in LEARNER_POLICIES:
        parser.error(f"policy {args.policy!r} takes no checkpoint")
    if args.policy in LEARNER_POLICIES and not args.checkpoint:
        parser.error(f"policy {args.policy!r} needs --checkpoint")
    seeds = args.seeds if args.seeds is not None else cfg.experiment.eval_seeds
    episodes = args.episodes if args.episodes is not None else cfg.experiment.eval_episodes
    if seeds < 1 or episodes < 1:
        parser.error("--seeds and --episodes must be >= 1")
    out = Path(cfg.experiment.out_dir)  # created once the runs are done
    _evaluate(
        cfg, out, [args.policy], seeds, episodes, {args.policy: args.checkpoint},
        {"policy": args.policy}, placements=args.placements,
    )
    print(f"evaluated {args.policy} over {seeds} seeds ({episodes} episode(s) each)")
    print(f"reports: {out / 'battery.csv'}, {out / 'violations.csv'}, {out / 'summary.csv'}")
    return 0


def _parse_checkpoint_args(pairs, policies, parser) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            parser.error(f"--checkpoint expects POLICY=PATH, got {pair!r}")
        policy, path = pair.split("=", 1)
        if policy not in LEARNER_POLICIES:
            parser.error(f"--checkpoint: {policy!r} is not a learning policy")
        if policy not in policies:
            parser.error(f"--checkpoint: policy {policy!r} is not among the compared policies")
        if policy in out:
            parser.error(f"--checkpoint: policy {policy!r} given twice")
        out[policy] = path
    for policy, path in out.items():
        try:
            kind = checkpoint_kind(path)
        except (OSError, ValueError) as exc:
            parser.error(f"--checkpoint: {exc}")
        if kind != policy:
            parser.error(f"--checkpoint: {path} is a {kind} checkpoint, not {policy}")
    return out


def cmd_compare(args, parser) -> int:
    cfg = _resolve_config(args)
    policies = (
        [p.strip() for p in args.policies.split(",") if p.strip()]
        if args.policies
        else list(cfg.experiment.policies)
    )
    for i, p in enumerate(policies):
        if p not in POLICY_NAMES:
            parser.error(f"unknown policy {p!r}; choose from {POLICY_NAMES}")
        if p in policies[:i]:
            parser.error(f"policy {p!r} requested twice")
    if not policies:
        parser.error("no policies requested")
    seeds = args.seeds if args.seeds is not None else cfg.experiment.eval_seeds
    if seeds < 1:
        parser.error("--seeds must be >= 1")
    checkpoints = _parse_checkpoint_args(args.checkpoint, policies, parser)
    out = _out_dir(cfg)
    # Train whatever is missing first; convergence curves and checkpoints are
    # per-policy artifacts and appear as each training run finishes.
    for policy in policies:
        if policy in LEARNER_POLICIES and policy not in checkpoints:
            ckpt, _ = _train(
                cfg, policy, cfg.experiment.train_episodes(policy), out,
                f"convergence_{policy}.csv", args.quiet,
            )
            checkpoints[policy] = str(ckpt)
    _evaluate(
        cfg, out, policies, seeds, cfg.experiment.eval_episodes, checkpoints,
        {"policies": ",".join(policies)},
    )
    print(f"compared {', '.join(policies)} over {seeds} seeds")
    print(f"ranked summary: {out / 'summary.csv'}")
    return 0


def cmd_inspect(args) -> int:
    print(inspect_checkpoint(args.path))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args, parser)
        if args.command == "evaluate":
            return cmd_evaluate(args, parser)
        if args.command == "compare":
            return cmd_compare(args, parser)
        if args.command == "inspect-checkpoint":
            return cmd_inspect(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
