"""Structural plan diffing for incremental replanning.

Incremental replanning (see ``docs/architecture.md``) reuses solved pieces of
a previous :class:`~repro.core.plan.ExecutionPlan` when the contracted graph of
a new request is structurally equal — wholly or level by level — to the graph
the previous plan was solved for.  "Structurally equal" means equal in every
attribute the downstream stages read, and nothing else:

* **per-MetaOp signature** — the estimator's ``curve_key`` (op type, modality,
  input spec, FLOPs, parameter/activation bytes), the operator count and the
  batch size: everything resource allocation and wavefront scheduling consume.
  Task and operator *names* are deliberately excluded; no solver stage reads
  them (the same rule the canonical workload fingerprint applies).
* **level signature** — the tuple of per-MetaOp signatures of one MetaLevel in
  MetaOp-index order.  Two levels with equal signatures receive byte-identical
  :class:`~repro.core.plan.LevelAllocation` solutions (modulo index relabeling)
  from the same planner, because the MPSP bisection is deterministic and
  value-driven.
* **graph signature** — all level signatures plus the inter-MetaOp adjacency
  (edges with communication volumes) and the parameter-sharing pattern
  (canonicalised: distinct ``param_key`` strings replaced by first-occurrence
  ordinals, ``None`` kept apart).  Equal graph signatures make scheduling *and*
  locality-aware placement isomorphic, because placement additionally reads
  predecessors, edge volumes and shared-parameter memory accounting.

The diff itself is intentionally dumb: levels are matched positionally (level
``k`` against level ``k``).  Cross-level matching would only fire when an
event reshapes the level structure, in which case upstream levels changed
anyway and the fallback full solve is the honest path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.metagraph import MetaGraph, MetaOp

#: Signature of one MetaOp: everything allocation/scheduling read from it.
MetaOpSignature = Tuple
#: Signature of one MetaLevel: per-MetaOp signatures in index order.
LevelSignature = Tuple[MetaOpSignature, ...]


def metaop_signature(metaop: MetaOp) -> MetaOpSignature:
    """Name-free structural identity of one MetaOp.

    ``curve_key`` already folds in op type, modality, input spec, FLOPs and
    parameter/activation bytes — the inputs of curve fitting, bisection and
    discretization.  ``num_operators`` and ``batch_size`` complete what the
    allocator and scheduler read.
    """
    return (metaop.curve_key, metaop.num_operators, metaop.batch_size)


def level_signature(metagraph: MetaGraph, level: int) -> LevelSignature:
    """Signature of one MetaLevel, in MetaOp-index order."""
    return tuple(
        metaop_signature(metaop) for metaop in metagraph.metaops_at_level(level)
    )


def level_signatures(metagraph: MetaGraph) -> list[LevelSignature]:
    """All level signatures, index 0 .. ``num_levels - 1``."""
    return [level_signature(metagraph, level) for level in range(metagraph.num_levels)]


def _param_pattern(metagraph: MetaGraph) -> tuple:
    """Canonicalised parameter-sharing pattern of the whole graph.

    Distinct ``param_key`` strings are replaced by their first-occurrence
    ordinal (scanning MetaOps in index order, operators in chain order), so a
    renamed-but-isomorphic task set produces the same pattern.  ``None``
    (parameter-free operators) maps to ``-1``.
    """
    ordinals: dict[str, int] = {}
    pattern: list[tuple[int, ...]] = []
    for index in sorted(metagraph.metaops):
        keys = []
        for op in metagraph.metaop(index).operators:
            if op.param_key is None:
                keys.append(-1)
            else:
                keys.append(ordinals.setdefault(op.param_key, len(ordinals)))
        pattern.append(tuple(keys))
    return tuple(pattern)


def graph_signature(metagraph: MetaGraph) -> tuple:
    """Complete name-free structural identity of a contracted graph.

    Covers per-MetaOp signatures and levels (allocation + scheduling),
    adjacency with communication volumes (scheduling tie-breaks + placement
    locality) and the parameter-sharing pattern (placement memory accounting).
    Two graphs with equal signatures are solved identically by every planner
    stage after contraction, including device placement.
    """
    indices = sorted(metagraph.metaops)
    sigs = tuple(metaop_signature(metagraph.metaop(i)) for i in indices)
    levels = tuple(metagraph.metaop(i).level for i in indices)
    edges = tuple(sorted((src, dst, vol) for (src, dst), vol in metagraph.edges.items()))
    return (sigs, levels, edges, _param_pattern(metagraph))


@dataclass(frozen=True)
class PlanDiff:
    """Outcome of diffing a previous plan's graph against a new graph.

    ``full_structure`` means the two graphs are structurally identical under
    the *identity* index mapping: allocations, waves and the device placement
    of the previous plan all transfer verbatim.  ``reusable_levels`` lists the
    level indices whose signatures match positionally — their
    ``LevelAllocation`` transfers (with MetaOp indices remapped); scheduling
    and placement still re-run.  The two fields are independent views:
    ``full_structure`` implies every level is reusable, not the converse.
    """

    full_structure: bool
    reusable_levels: Tuple[int, ...]


NO_REUSE = PlanDiff(full_structure=False, reusable_levels=())


def diff_metagraphs(previous: MetaGraph, current: MetaGraph) -> PlanDiff:
    """Structural diff driving :meth:`ExecutionPlanner.plan_incremental`.

    Deterministic and purely structural: no names, no wall-clock state.  The
    equivalence tests in ``tests/test_incremental_replan.py`` pin the
    contract — any reuse this diff authorises must reproduce the full
    solver's plan byte for byte (minus stage timings).
    """
    if graph_signature(previous) == graph_signature(current):
        return PlanDiff(full_structure=True, reusable_levels=tuple(range(current.num_levels)))
    previous_levels = level_signatures(previous)
    current_levels = level_signatures(current)
    reusable = tuple(
        level
        for level in range(min(len(previous_levels), len(current_levels)))
        if previous_levels[level]
        and previous_levels[level] == current_levels[level]
    )
    return PlanDiff(full_structure=False, reusable_levels=reusable)


def remap_indices(
    previous: MetaGraph, current: MetaGraph, level: int
) -> Optional[dict[int, int]]:
    """Positional MetaOp index map (previous -> current) for one matched level.

    Returns ``None`` when the levels do not align (different op counts) —
    callers should have checked the level signatures first.
    """
    prev_ops = previous.metaops_at_level(level)
    cur_ops = current.metaops_at_level(level)
    if len(prev_ops) != len(cur_ops):
        return None
    return {p.index: c.index for p, c in zip(prev_ops, cur_ops)}
