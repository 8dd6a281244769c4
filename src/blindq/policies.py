"""Preemptive single-server scheduling disciplines.

Seven policies: srpt, fifo, ps, fb, mlf, rmlf, ermlf.  All are blind (they
never see job sizes) except SRPT.  The multilevel-feedback family (mlf,
rmlf, ermlf) keeps jobs in priority queues and demotes a job one level each
time its attained service reaches a target 2**level * factor; rmlf and
ermlf randomize the factor (factor_draw).

Every policy runs by name in a fused loop of simulate (see
simulator.make_policy): SRPT in _srpt_kernel, PS and FB in _share_kernel,
fifo and the MLF family in _queue_kernel, with FIFO as MLF with infinite
targets.  This module holds what those loops share: the RMLF factor draw
and eRMLF's displacement level.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalConsistencyError

THETA = 12.0
# Policy-stream uniforms fetched per block by rmlf/ermlf: the first block
# costs about one scalar draw, and blocks double up to MAX_BLOCK.
FIRST_BLOCK = 16
MAX_BLOCK = 4096


def factor_draw(stream: np.random.Generator):
    """The RMLF factor draw: a function of the job index j that takes the
    next policy-stream uniform u and returns job j's target factor
    max(1, 2 - beta), where beta = -log(1 - u) / (THETA log j) has
    P(beta <= x) = 1 - exp(-THETA x log j); job 1's factor is 1, and it
    still consumes its uniform, so coupled runs stay aligned with the job
    index.  Called once per arrival in arrival order.  The uniforms come in
    blocks that start at FIRST_BLOCK, for instances of a few jobs, and
    double up to MAX_BLOCK; a draw is a pure function of its counter, so
    the block sizes never change a factor."""
    block = FIRST_BLOCK
    next_u = iter(()).__next__   # exhausted: the first call fetches a block
    log, log1p = math.log, math.log1p

    def draw(j: int) -> float:
        nonlocal block, next_u
        try:
            u = next_u()
        except StopIteration:
            next_u = iter(stream.random(block).tolist()).__next__
            block = min(2 * block, MAX_BLOCK)
            u = next_u()
        if j == 1:
            return 1.0
        beta = -log1p(-u) / (THETA * log(j))
        f = 2.0 - beta
        return f if f > 1.0 else 1.0

    return draw


def lowest_unreached_level(attained: float, factor: float) -> int:
    """min{z : attained <= 2**z * factor}; exact via frexp, no logarithms."""
    if attained <= 0:
        raise InternalConsistencyError("displaced job has no attained service")
    m, e = math.frexp(attained / factor)
    return e - 1 if m == 0.5 else e
