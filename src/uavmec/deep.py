"""Deep Q-learning agent: replay buffer, one-step targets, per-decision training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RlConfig
from .exploration import epsilon_greedy
from .mdp import NetworkSnapshot, Transition, encode_state
from .nnet import (
    AdamState, MlpNetwork, adam_step, forward, forward_cached, init_mlp, loss_and_grads,
)


@dataclass(frozen=True)
class TransitionBatch:
    """Transitions stored column-wise: row i of every array is one transition.

    ``terminals`` marks a terminal transition with 1.0 (or True), any other
    with 0.0 (or False); a sample holds the replay table's float column.
    Iterating yields the rows as ``Transition`` objects.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminals: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        for i in range(len(self)):
            yield Transition(
                state=self.states[i],
                action=int(self.actions[i]),
                reward=float(self.rewards[i]),
                next_state=self.next_states[i],
                terminal=bool(self.terminals[i]),
            )


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling.

    Row i of one float64 table holds the i-th stored transition as
    ``[state | next_state | action | reward | terminal]``; once full, each
    push overwrites the oldest row.  The table doubles as it fills and stops
    at ``capacity``: allocating all of it up front would cost memory that a
    short run never uses.
    """

    initial_rows = 256

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.size = 0
        self.cursor = 0
        self.table = np.empty((0, 0))

    @property
    def state_width(self) -> int:
        return (self.table.shape[1] - 3) // 2

    def push(self, t: Transition) -> None:
        """Store ``t``; its states must be 1-d and as wide as the first push's."""
        width = self.state_width if self.size else np.size(t.state)
        for name, state in (("state", t.state), ("next_state", t.next_state)):
            if np.shape(state) != (width,):
                raise ValueError(f"{name} has shape {np.shape(state)}, buffer holds ({width},)")
        row = self.cursor
        if row == len(self.table):
            table = np.empty((min(self.capacity, max(self.initial_rows, 2 * row)), 2 * width + 3))
            if row:
                table[:row] = self.table[:row]
            self.table = table
        out = self.table[row]
        out[:width] = t.state
        out[width:2 * width] = t.next_state
        out[2 * width:] = t.action, t.reward, t.terminal
        self.size = max(self.size, row + 1)
        self.cursor = (row + 1) % self.capacity

    def sample(self, n: int, rng: np.random.Generator) -> TransitionBatch:
        """Uniform sample without replacement, gathered in one read."""
        if n > self.size:
            raise ValueError(f"cannot sample {n} from buffer of {self.size}")
        rows = self.table.take(rng.choice(self.size, size=n, replace=False), axis=0)
        w = self.state_width
        return TransitionBatch(
            rows[:, :w], rows[:, 2 * w].astype(np.intp), rows[:, 2 * w + 1],
            rows[:, w:2 * w], rows[:, 2 * w + 2],
        )

    def __len__(self) -> int:
        return self.size


def train_batch(
    net: MlpNetwork,
    adam: AdamState,
    batch: TransitionBatch,
    gamma: float,
    target_net: MlpNetwork | None = None,
) -> float:
    """One gradient step on a batch of transitions; returns the pre-step loss.

    Targets: r + gamma * max_a Q(s', a), zero bootstrap on terminals.  The
    bootstrap uses ``target_net`` when given, else the online network.
    """
    bootstrap_net = target_net if target_net is not None else net
    # The workspace that holds next_q is the one the loss's forward reuses,
    # so the targets are taken from it first.
    next_q = forward_cached(bootstrap_net, batch.next_states)[-1]
    best = next_q[:, 0].copy()
    for column in range(1, next_q.shape[1]):
        np.maximum(best, next_q[:, column], out=best)
    targets = batch.rewards + gamma * (1.0 - batch.terminals) * best

    loss, grads = loss_and_grads(net, batch.states, batch.actions, targets, in_workspace=True)
    # The gradient views share one flat vector, which Adam takes whole.
    adam_step(adam, net.flat, grads[0].base)
    return loss


class DqlAgent:
    """One UAV's deep learner.

    Ingests finalized transitions into replay and trains one batch per
    ingested decision once the buffer can fill a batch.  The optional target
    network is synced every ``target_sync_every`` training steps.
    """

    wants_transitions = True

    def __init__(
        self,
        state_width: int,
        num_actions: int,
        rl: RlConfig,
        rng: np.random.Generator,
        state_layout: str = "paper10",
    ):
        self.state_layout = state_layout
        self.rng = rng
        self.gamma = rl.discount
        self.batch_size = rl.batch_size
        dims = [state_width, *rl.hidden_sizes, num_actions]
        self.net = init_mlp(dims, rng)
        self.adam = AdamState(
            self.net.flat.size, lr=rl.adam_lr, beta1=rl.adam_beta1,
            beta2=rl.adam_beta2, eps=rl.adam_eps,
        )
        self.buffer = ReplayBuffer(rl.replay_capacity)
        self.target_net = self.net.copy() if rl.target_network else None
        self.target_sync_every = rl.target_sync_every
        self.epsilon = 0.0
        self.last_loss: float | None = None

    @classmethod
    def frozen(cls, net: MlpNetwork, state_layout: str) -> "DqlAgent":
        """A greedy learner over ``net``: epsilon 0, no stream, nothing to train."""
        agent = cls.__new__(cls)
        agent.net, agent.state_layout = net, state_layout
        agent.rng, agent.epsilon, agent.wants_transitions = None, 0.0, False
        return agent

    @property
    def train_steps(self) -> int:
        """Training steps taken so far; Adam counts one per step."""
        return self.adam.t

    @property
    def input_meta(self) -> dict:
        """What the network is fitted to; a checkpoint records it."""
        return {"state_layout": self.state_layout}

    def encode(self, snap: NetworkSnapshot) -> np.ndarray:
        """The decision's state: its vector in this agent's layout."""
        return encode_state(snap, self.state_layout)

    def select(self, state: np.ndarray) -> int:
        return epsilon_greedy(forward(self.net, state), self.epsilon, self.rng)

    def ingest(self, t: Transition) -> None:
        """Store ``t`` and, once replay can fill a batch, train one step.

        The action must be an integer, not a bool, that indexes one of the
        network's outputs: the replay table would store a float, bool or
        out-of-range action without complaint.
        """
        actions = self.net.dims[-1]
        if type(t.action) is bool or not (
                isinstance(t.action, (int, np.integer)) and 0 <= t.action < actions):
            raise ValueError(f"action {t.action!r} is not an integer in [0, {actions})")
        self.buffer.push(t)
        if len(self.buffer) < self.batch_size:
            return
        batch = self.buffer.sample(self.batch_size, self.rng)
        self.last_loss = train_batch(self.net, self.adam, batch, self.gamma, self.target_net)
        if self.target_net is not None and self.adam.t % self.target_sync_every == 0:
            self.target_net.copy_from(self.net)
