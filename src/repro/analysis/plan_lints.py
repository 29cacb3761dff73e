"""Join-plan lints: cost hazards the batch kernels silently absorb.

Each rule is compiled to its naive-variant :class:`JoinPlan`
(``delta_index=None``) and the step stream is inspected:

* **W005 cross-product-join** — a non-first step with no usable index
  position.  Because the compiler indexes the first constant or
  prefix-bound argument, ``index_spec is None`` on a later step means
  the atom shares *nothing* with the join prefix: the step enumerates
  the full relation per prefix row (a cartesian product).
* **W004 unindexed-probe** — a full-scan step whose ops include a
  register check.  With no constant or prefix-bound position this can
  only be an intra-atom repeated variable (``e(X, X)``): the filter
  runs row-at-a-time over the whole relation instead of probing an
  index.
* **W002 dead-register** — a register bound by ``OP_BIND`` that no
  later check, index probe, or head projection ever reads: a body
  variable joined on nothing and projected away.  The batch kernels
  eliminate these at execution time; the lint surfaces them so the
  rule author can too.

The lints are advisory (warnings): every flagged plan still executes
correctly, it just does more work than the rule needed to.
"""

from __future__ import annotations

from typing import List

from ..datalog.plan import JoinPlan, OP_BIND, OP_CHECK
from ..datalog.program import Program
from .diagnostics import Diagnostic, diagnostic

__all__ = ["plan_diagnostics"]


def plan_diagnostics(program: Program) -> List[Diagnostic]:
    found: List[Diagnostic] = []
    for index, rule in enumerate(program.rules):
        if not rule.body:
            continue
        plan = JoinPlan(rule, None)
        bound_regs: set = set()
        read_regs: set = set()
        bind_sites = {}
        for step_index, step in enumerate(plan.steps):
            predicate, _use_delta, index_spec, ops = step
            has_check = any(op == OP_CHECK for _pos, op, _payload in ops)
            if index_spec is None and step_index > 0:
                found.append(diagnostic(
                    "W005",
                    f"join step {step_index} scans all of {predicate!r} "
                    f"with no bound or constant position",
                    predicate=rule.head.predicate, rule=str(rule),
                    rule_index=index))
            elif index_spec is None and has_check:
                found.append(diagnostic(
                    "W004",
                    f"repeated-variable filter on {predicate!r} forces a "
                    f"full scan",
                    predicate=rule.head.predicate, rule=str(rule),
                    rule_index=index))
            if index_spec is not None:
                _pos, is_reg, payload = index_spec
                if is_reg:
                    read_regs.add(payload)
            for pos, op, payload in ops:
                if op == OP_BIND:
                    bound_regs.add(payload)
                    bind_sites.setdefault(payload, (predicate, pos))
                elif op == OP_CHECK:
                    read_regs.add(payload)
        for is_reg, payload in plan.head_ops:
            if is_reg:
                read_regs.add(payload)
        dead = sorted(bound_regs - read_regs)
        if dead:
            sites = ", ".join(
                f"{bind_sites[reg][0]}[{bind_sites[reg][1]}]"
                for reg in dead)
            found.append(diagnostic(
                "W002",
                f"{len(dead)} register(s) bound but never read "
                f"(from {sites})",
                predicate=rule.head.predicate, rule=str(rule),
                rule_index=index))
    return found
