"""The degradation ladder: which cheaper configuration answers when a
job's own configuration fails.

The engine axis orders the evaluation paths by how much machinery
sits between the program and the answer -- ``columnar`` (compiled
plans over vectorized relation storage + batch join kernels) over
``interpretive`` (the direct reference interpreter).  The kernel axis
orders the antichain representations: ``bitset`` (interned bit-vector
antichains) over ``frozenset`` (the reference sets-of-sets form).
Each step down trades speed for a smaller, simpler footprint, which is
exactly what a job that just blew its memory budget or crashed a
worker needs on its retry.

Decision-kind jobs (containment / equivalence / boundedness) spend
their time in the antichain kernels, so they degrade along the kernel
axis; evaluation-kind jobs (evaluation / magic) degrade along the
engine axis.  Every rung still runs the same decision procedure
against the same scenario ground truth -- degradation changes *how*
the answer is computed, never *what* is checked.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = [
    "ENGINE_CHAIN",
    "KERNEL_CHAIN",
    "ladder_rungs",
    "rung_label",
]

#: Engine paths, fastest/heaviest first (labels match
#: ``repro.runner.batch.ENGINE_CONFIGS``).
ENGINE_CHAIN: Tuple[str, ...] = ("columnar", "interpretive")

#: Antichain kernels, fastest/heaviest first (labels match
#: ``repro.runner.batch.KERNEL_CONFIGS``).
KERNEL_CHAIN: Tuple[str, ...] = ("bitset", "frozenset")


def rung_label(engine: str, kernel: str) -> str:
    """The ``engine/kernel`` display form used in ``degraded_to``."""
    return f"{engine}/{kernel}"


def ladder_rungs(engine: str, kernel: str,
                 decision: bool) -> List[Tuple[str, str]]:
    """The (engine, kernel) configurations to try, in order.

    The first rung is the job's own configuration; each later rung is
    one step down the axis that matters for the job's kind --
    *decision* jobs walk :data:`KERNEL_CHAIN`, evaluation jobs walk
    :data:`ENGINE_CHAIN` -- starting from wherever the job already
    sits (a job that asked for ``frozenset`` has no cheaper kernel
    left and gets a single rung).

        >>> ladder_rungs("columnar", "bitset", decision=True)
        [('columnar', 'bitset'), ('columnar', 'frozenset')]
        >>> ladder_rungs("columnar", "bitset", decision=False)
        [('columnar', 'bitset'), ('interpretive', 'bitset')]
        >>> ladder_rungs("interpretive", "frozenset", decision=False)
        [('interpretive', 'frozenset')]
    """
    if decision:
        if kernel in KERNEL_CHAIN:
            start = KERNEL_CHAIN.index(kernel)
            return [(engine, k) for k in KERNEL_CHAIN[start:]]
        return [(engine, kernel)]
    if engine in ENGINE_CHAIN:
        start = ENGINE_CHAIN.index(engine)
        return [(e, kernel) for e in ENGINE_CHAIN[start:]]
    return [(engine, kernel)]
