"""Epsilon-greedy action selection and the shared decay schedule.

Both learners use this module, so exploration behaves identically for the
tabular and the deep agent.
"""

from __future__ import annotations

import numpy as np

_FLOAT64 = np.dtype(np.float64)


def epsilon_greedy(q_values, epsilon: float, rng: np.random.Generator) -> int:
    """Pick uniformly with probability epsilon, else the greedy action.

    Greedy ties break on the lowest action index.  epsilon=0 never touches
    the stream, so evaluation runs are reproducible without it.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    # A learner's row is already a float64 vector; only other input converts.
    # The dtype test is by identity: an equal but distinct float64 dtype just
    # takes the conversion, which returns the same array.
    q = q_values
    if type(q) is not np.ndarray or q.dtype is not _FLOAT64:
        q = np.asarray(q_values, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("q_values must be a non-empty vector")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q.size))
    return int(q.argmax())


def epsilon_schedule(
    episode: int,
    total_episodes: int,
    start: float = 1.0,
    end: float = 0.05,
    decay_fraction: float = 0.8,
) -> float:
    """Linear decay from start to end over the first decay_fraction of training."""
    if total_episodes < 1:
        raise ValueError("total_episodes must be >= 1")
    if episode < 0:
        raise ValueError("episode must be >= 0")
    decay_len = max(1.0, decay_fraction * total_episodes)
    frac = min(episode / decay_len, 1.0)
    return start + (end - start) * frac
