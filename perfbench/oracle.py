"""Independent confirmation of witnesses, and the per-property timings.

Every violation witness is re-executed with ``explorer.replay`` and every LTL
counterexample lasso is refuted again by ``ltl.eval_on_lasso``, which shares
no code with the Buchi product search.  The same pass times each built-in
property checked alone, through ``verify_all(properties=(PID,))``.
"""

from __future__ import annotations

import time
from collections import Counter

from osekcheck import conformance, explorer, ltl

PROPERTY_IDS = ("DF", "ME", "PIF", "SF", "PE", "MAF")


def _replay(trace, totals: Counter) -> None:
    start = time.perf_counter()
    explorer.replay(trace)
    totals["explorer.replay.s"] += time.perf_counter() - start
    totals["explorer.replay.steps"] += (len(trace.states) - 1
                                        + (trace.lasso_start is not None))


def confirm(config, bodies, formulas, totals: Counter) -> list[str]:
    """Confirm every witness of one application; returns the problems found.

    ``formulas`` is a parsed formula file.  Durations and step counts are
    added to ``totals``.
    """
    problems: list[str] = []

    def replayed(what: str, trace) -> None:
        try:
            _replay(trace, totals)
        except explorer.ReplayMismatch as exc:
            problems.append(f"{what}: {exc}")

    search = explorer.search_final(config, bodies)
    for index, record in enumerate(search.deadlocks):
        replayed(f"dead end {index}", record.trace)

    for pid in PROPERTY_IDS:
        start = time.perf_counter()
        result = conformance.verify_all(config, bodies, properties=(pid,))
        totals[f"conformance.check.{pid}.s"] += time.perf_counter() - start
        witness = result[pid].witness
        if witness is not None:
            replayed(f"witness {pid}", witness)

    graphs = {}
    for name, formula in formulas:
        strict = ltl.mentions_deadlock(formula)
        if strict not in graphs:
            graphs[strict] = explorer.build_graph(config, bodies,
                                                  strict=strict)
        graph = graphs[strict]
        view = ltl.KernelGraphView(graph)
        result = ltl.model_check(view, formula)
        if result.verdict != "violated":
            continue
        replayed(f"lasso {name}", conformance.lasso_to_trace(graph, result))
        start = time.perf_counter()
        refuted = not ltl.eval_on_lasso(formula, result.prefix[:-1],
                                        result.cycle, view.prop_value)
        totals["ltl.eval_on_lasso.s"] += time.perf_counter() - start
        if not refuted:
            problems.append(f"lasso {name}: the lasso evaluator says the "
                            "formula holds on it")
    return problems
