"""Digests of the outputs that a speed-only change must leave byte-identical.

Runs a fixed set of commands against the checkout's own ``src/`` into a
temporary directory, then prints one ``sha256  file`` line per output file
and each command's standard output with the output directory masked.  Run it
on two checkouts and diff the results:

    python3 scripts/output_digests.py > before.txt   # in the old checkout
    python3 scripts/output_digests.py > after.txt    # in the new one
    diff before.txt after.txt

The set, each command in a fresh process with one worker unless its own
environment sets ``UAVMEC_EXPERIMENT__WORKERS``:

- a desk ``compare`` of all five policies, with immediate and with deferred
  rewards (100 tabular and 5 deep training episodes, 5 evaluation episodes
  on 3 seeds), and the deferred one again without a terminal transition at
  the episode end;
- the immediate desk ``compare`` again with two workers, whose file digests
  must equal the one-worker run's (the config hash leaves ``workers`` out);
- a paper ``evaluate --placements`` of rr, hef and qhef (2 seeds, 1 episode);
- a 3-episode paper ``train`` of each learner, and an ``evaluate
  --placements`` of each of those checkpoints (2 seeds, 1 episode);
- an ``inspect-checkpoint`` of each of those two checkpoints, whose summary
  is printed with the work directory masked;
- a 5-episode desk ``train`` of the deep learner on the extended state
  layout with a target network (about 437 steps per agent, so at least two
  target syncs);
- a 5-episode desk ``train`` of the tabular learner with
  ``experiment.checkpoint_every`` 2, which also writes the checkpoints of
  episodes 2 and 4;
- refusals: a paper ``evaluate`` of each learner and a paper ``compare`` of
  rr and that learner, each given a checkpoint path that must be refused (a
  missing file, a directory, the other learner's paper-train checkpoint, a
  junk text file, and for the deep learner its paper-train checkpoint with
  a NaN as its first weight).  Each prints its exit code and the last line
  of its standard error, with the work directory masked.

Every setting is passed through ``UAVMEC_*`` variables, so the script runs
unchanged on older checkouts.  It takes about twenty seconds on one core.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESK = str(ROOT / "configs" / "desk.yaml")
PAPER = str(ROOT / "configs" / "paper.yaml")
SEED = "1701"
WORK = "<work>"  # stands for the directory that holds every run's output
DESK_BUDGETS = {
    "UAVMEC_EXPERIMENT__TRAIN_EPISODES_QLEARNING": "100",
    "UAVMEC_EXPERIMENT__TRAIN_EPISODES_DQL": "5",
    "UAVMEC_EXPERIMENT__EVAL_EPISODES": "5",
}

# (name, extra environment, command-line arguments before --out)
RUNS = [
    ("desk-compare-immediate", DESK_BUDGETS,
     ["compare", "--config", DESK, "--policies", "rr,hef,qhef,qlearning,dql", "--seeds", "3"]),
    ("desk-compare-immediate-two-workers", {**DESK_BUDGETS, "UAVMEC_EXPERIMENT__WORKERS": "2"},
     ["compare", "--config", DESK, "--policies", "rr,hef,qhef,qlearning,dql", "--seeds", "3"]),
    ("desk-compare-deferred", {**DESK_BUDGETS, "UAVMEC_MDP__DEFERRED_REWARD": "true"},
     ["compare", "--config", DESK, "--policies", "rr,hef,qhef,qlearning,dql", "--seeds", "3"]),
    ("desk-compare-deferred-open-end",
     {**DESK_BUDGETS, "UAVMEC_MDP__DEFERRED_REWARD": "true",
      "UAVMEC_RL__TERMINAL_ON_EPISODE_END": "false"},
     ["compare", "--config", DESK, "--policies", "rr,hef,qhef,qlearning,dql", "--seeds", "3"]),
    *[(f"paper-evaluate-{policy}", {},
       ["evaluate", "--config", PAPER, "--policy", policy, "--seeds", "2", "--episodes", "1",
        "--placements"])
      for policy in ("rr", "hef", "qhef")],
    *[(f"paper-train-{policy}", {},
       ["train", "--config", PAPER, "--policy", policy, "--episodes", "3"])
      for policy in ("qlearning", "dql")],
    *[(f"paper-evaluate-{policy}-checkpoint", {},
       ["evaluate", "--config", PAPER, "--policy", policy,
        "--checkpoint", f"{WORK}/paper-train-{policy}/{policy}.ckpt",
        "--seeds", "2", "--episodes", "1", "--placements"])
      for policy in ("qlearning", "dql")],
    ("desk-train-dql-extended-target",
     {"UAVMEC_MDP__STATE_LAYOUT": "extended", "UAVMEC_RL__TARGET_NETWORK": "true"},
     ["train", "--config", DESK, "--policy", "dql", "--episodes", "5"]),
    ("desk-train-qlearning-checkpoint-every", {"UAVMEC_EXPERIMENT__CHECKPOINT_EVERY": "2"},
     ["train", "--config", DESK, "--policy", "qlearning", "--episodes", "5"]),
]


# (learner, checkpoint) of each refusal; the checkpoint's path is relative
# to the work directory.
REFUSALS = [
    *[(learner, f"refused/{kind}.ckpt") for learner in ("qlearning", "dql")
      for kind in ("missing", "directory", "junk")],
    ("qlearning", "paper-train-dql/dql.ckpt"),
    ("dql", "paper-train-qlearning/qlearning.ckpt"),
    ("dql", "refused/nan.ckpt"),
]


def invoke(extra_env: dict, args: list, work: Path,
           out: Path | None) -> subprocess.CompletedProcess:
    """Run one command in a fresh process, with the fixed seed and its
    output in ``out`` unless ``out`` is None."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("UAVMEC_")}
    env["UAVMEC_EXPERIMENT__WORKERS"] = "1"
    env.update(extra_env)
    env["PYTHONPATH"] = str(ROOT / "src")
    args = [arg.replace(WORK, str(work)) for arg in args]
    if out is not None:
        args += ["--seed", SEED, "--out", str(out)]
    return subprocess.run(
        [sys.executable, "-m", "uavmec.cli", *args],
        env=env, capture_output=True, text=True, check=False,
    )


def run(name: str, extra_env: dict, args: list, work: Path) -> list:
    """Run one command into ``work/name``; its digest and stdout lines."""
    out = work / name
    proc = invoke(extra_env, args, work, out)
    if proc.returncode != 0:
        sys.exit(f"{name} exited with {proc.returncode}:\n{proc.stderr}")
    lines = [f"== {name}"]
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}/{path.relative_to(out)}")
    lines.extend(proc.stdout.replace(str(out), "<out>").splitlines())
    return lines


def inspect(checkpoint: str, work: Path) -> list:
    """The ``inspect-checkpoint`` summary of ``checkpoint``, a path relative
    to the work directory, with that directory masked."""
    proc = invoke({}, ["inspect-checkpoint", f"{WORK}/{checkpoint}"], work, None)
    if proc.returncode != 0:
        sys.exit(f"inspect {checkpoint} exited with {proc.returncode}:\n{proc.stderr}")
    return [f"== inspect {checkpoint}", *proc.stdout.replace(str(work), WORK).splitlines()]


def make_refused(work: Path) -> None:
    """Make the files of ``REFUSALS`` that the runs do not leave behind;
    the missing one stays missing."""
    refused = work / "refused"
    (refused / "directory.ckpt").mkdir(parents=True)
    (refused / "junk.ckpt").write_text("not a checkpoint\n")
    lines = (work / "paper-train-dql" / "dql.ckpt").read_text().splitlines(keepends=True)
    w0 = next(i for i, line in enumerate(lines) if line.startswith("tensor w0 "))
    tag, name, shape, _, *rest = lines[w0].split(" ")
    lines[w0] = " ".join([tag, name, shape, "nan", *rest])
    (refused / "nan.ckpt").write_text("".join(lines))


def refuse(learner: str, checkpoint: str, work: Path) -> list:
    """Evaluate and compare ``learner`` on a checkpoint that must be refused;
    each command's exit code and last line of standard error."""
    path = f"{WORK}/{checkpoint}"
    lines = []
    for args in (
        ["evaluate", "--config", PAPER, "--policy", learner, "--checkpoint", path,
         "--seeds", "1", "--episodes", "1"],
        ["compare", "--config", PAPER, "--policies", f"rr,{learner}",
         "--checkpoint", f"{learner}={path}", "--seeds", "1", "--quiet"],
    ):
        proc = invoke({}, args, work, work / "refusal-out")
        last = (proc.stderr.strip().splitlines() or [""])[-1].replace(str(work), WORK)
        lines += [f"== refuse {args[0]} {learner} {checkpoint}", f"exit {proc.returncode}", last]
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="uavmec-digests-") as tmp:
        for name, extra_env, args in RUNS:
            print("\n".join(run(name, extra_env, args, Path(tmp))), flush=True)
        for policy in ("qlearning", "dql"):
            print("\n".join(inspect(f"paper-train-{policy}/{policy}.ckpt", Path(tmp))), flush=True)
        make_refused(Path(tmp))
        for learner, checkpoint in REFUSALS:
            print("\n".join(refuse(learner, checkpoint, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
