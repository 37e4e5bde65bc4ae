"""Deep Q-learning agent: replay buffer, one-step targets, per-decision training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RlConfig
from .exploration import epsilon_greedy
from .mdp import NetworkSnapshot, Transition, encode_state
from .nnet import AdamState, MlpNetwork, adam_step, forward, init_mlp, loss_and_grads


@dataclass(frozen=True)
class TransitionBatch:
    """Transitions stored column-wise: row i of every array is one transition.

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

    Row i of each column array holds the i-th stored transition; once full,
    each push overwrites the oldest row.  The arrays double as they fill and
    stop at ``capacity``: allocating all of it up front would cost memory that
    a short run never uses.
    """

    initial_rows = 256

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.size = 0
        self.cursor = 0
        self._allocate(0, 0)

    def _allocate(self, rows: int, state_width: int) -> None:
        """Fresh columns of ``rows`` rows holding the stored transitions."""
        n = self.size
        for name, shape, dtype in (
            ("states", (rows, state_width), np.float64),
            ("next_states", (rows, state_width), np.float64),
            ("actions", rows, np.intp),
            ("rewards", rows, np.float64),
            ("terminals", rows, bool),
        ):
            column = np.empty(shape, dtype=dtype)
            if n:
                column[:n] = getattr(self, name)[:n]
            setattr(self, name, column)

    def push(self, t: Transition) -> None:
        row = self.cursor
        if row == len(self.actions):
            rows = min(self.capacity, max(self.initial_rows, 2 * row))
            self._allocate(rows, len(t.state))
        self.states[row] = t.state
        self.next_states[row] = t.next_state
        self.actions[row] = t.action
        self.rewards[row] = t.reward
        self.terminals[row] = t.terminal
        self.size = max(self.size, row + 1)
        self.cursor = (row + 1) % self.capacity

    def sample(self, n: int, rng: np.random.Generator) -> TransitionBatch:
        """Uniform sample without replacement."""
        if n > self.size:
            raise ValueError(f"cannot sample {n} from buffer of {self.size}")
        idx = rng.choice(self.size, size=n, replace=False)
        return TransitionBatch(
            self.states[idx], self.actions[idx], self.rewards[idx],
            self.next_states[idx], self.terminals[idx],
        )

    def __len__(self) -> int:
        return self.size


def dql_act(net: MlpNetwork, state: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    return epsilon_greedy(forward(net, state), epsilon, rng)


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
    live = np.where(batch.terminals, 0.0, 1.0)
    bootstrap_net = target_net if target_net is not None else net
    next_q = forward(bootstrap_net, batch.next_states)
    targets = batch.rewards + gamma * live * next_q.max(axis=1)

    loss, grads = loss_and_grads(net, batch.states, batch.actions, targets)
    adam_step(adam, net.parameters(), grads)
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
            self.net.parameters(), lr=rl.adam_lr, beta1=rl.adam_beta1,
            beta2=rl.adam_beta2, eps=rl.adam_eps,
        )
        self.buffer = ReplayBuffer(rl.replay_capacity)
        self.target_net = self.net.copy() if rl.target_network else None
        self.target_sync_every = rl.target_sync_every
        self.train_steps = 0
        self.epsilon = 0.0
        self.last_loss: float | None = None

    def select(self, snap: NetworkSnapshot) -> int:
        state = encode_state(snap, self.state_layout)
        return dql_act(self.net, state, self.epsilon, self.rng)

    def ingest(self, t: Transition) -> None:
        self.buffer.push(t)
        if len(self.buffer) < self.batch_size:
            return
        batch = self.buffer.sample(self.batch_size, self.rng)
        self.last_loss = train_batch(self.net, self.adam, batch, self.gamma, self.target_net)
        self.train_steps += 1
        if self.target_net is not None and self.train_steps % self.target_sync_every == 0:
            self.target_net.copy_from(self.net)
