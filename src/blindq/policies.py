"""Preemptive single-server scheduling disciplines.

Seven policies: srpt, fifo, ps, fb, mlf, rmlf, ermlf.  All are blind (they
never see job sizes) except SRPT.  The multilevel-feedback family (mlf,
rmlf, ermlf) keeps jobs in priority queues and demotes a job one level each
time its attained service reaches a target 2**level * factor; rmlf and
ermlf randomize the factor (factors).

Every policy runs by name in a fused loop of simulate (see
simulator.make_policy): SRPT in _srpt_kernel, PS and FB in _share_kernel,
fifo and the MLF family in _queue_kernel, with FIFO as MLF with infinite
targets.  This module holds the RMLF factors that the queue kernel reads.
"""

from __future__ import annotations

import math
from array import array

from .distributions import POLICY_SUBSTREAM, uniforms

THETA = 12.0
MAX_BLOCK = 1024   # most RMLF factors a simulate call holds at once

# _RATES[j] = THETA * log(j), the rate of job j's beta (index 0 unused).
# A call that needs more of it builds a longer copy and swaps it in whole,
# so a thread never sees a table half built; every table is a prefix of
# the same values, so a race between two growing calls costs only work.
_RATES = array("d", (math.nan, 0.0))


def _rates(end: int) -> array:
    """The rate table, extended to cover jobs 1 .. end."""
    global _RATES
    rates = _RATES
    if len(rates) <= end:
        log = math.log
        rates = rates + array("d", (THETA * log(j) for j in
                                    range(len(rates), max(end + 1, 2 * len(rates)))))
        if len(rates) > len(_RATES):
            _RATES = rates
    return rates


def factors(seed: int, start: int, n: int) -> list[float]:
    """The RMLF factors of jobs j = start+1 .. start+n under seed: job j's
    is max(1, 2 - beta), where beta = -log(1 - u) / (THETA log j) has
    P(beta <= x) = 1 - exp(-THETA x log j) and u is policy-stream uniform
    j-1.  Job 1's factor is 1 (its rate is 0); its uniform goes unused, so
    coupled runs stay aligned with the job index.  The uniforms are
    addressed by position (distributions.uniforms), so any split into
    blocks gives the same factors.  The arithmetic stays in math: numpy's
    vectorised log1p and log may differ from libm in the last bit, which
    would move some factors."""
    log1p, inf = math.log1p, math.inf
    us = uniforms(seed, POLICY_SUBSTREAM, start, n).tolist()
    rates = _rates(start + n)[start + 1:start + n + 1]
    betas = [-log1p(-u) / r if r else inf for u, r in zip(us, rates)]
    return [2.0 - b if b < 1.0 else 1.0 for b in betas]
