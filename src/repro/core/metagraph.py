"""MetaOps, MetaGraph and MetaLevels (§3.1).

A MetaOp groups ``L_m`` consecutive operators with identical workload so the
planner reasons about one execution-time function ``T_m(n)`` per group instead
of one per operator.  MetaLevels disentangle dependencies: MetaOps at the same
level are mutually independent, so the allocation problem can be solved level
by level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.graph.ops import Operator, TensorSpec


class MetaGraphError(Exception):
    """Raised for malformed MetaGraphs."""


@dataclass
class MetaOp:
    """A maximal chain of consecutive operators with identical workloads."""

    index: int
    operators: list[Operator]
    level: int = -1

    def __post_init__(self) -> None:
        if not self.operators:
            raise MetaGraphError(f"MetaOp {self.index} has no operators")
        signature = self.operators[0].workload_signature()
        for op in self.operators[1:]:
            if op.workload_signature() != signature:
                raise MetaGraphError(
                    f"MetaOp {self.index} mixes workload signatures "
                    f"{signature} and {op.workload_signature()}"
                )

    # ------------------------------------------------------------ delegation
    @property
    def representative(self) -> Operator:
        """One operator standing in for the identical workload of the group."""
        return self.operators[0]

    @property
    def op_type(self) -> str:
        return self.representative.op_type

    @property
    def task(self) -> str:
        return self.representative.task

    @property
    def modality(self) -> str:
        return self.representative.modality

    @property
    def input_spec(self) -> TensorSpec:
        return self.representative.input_spec

    @property
    def batch_size(self) -> int:
        return self.representative.batch_size

    @cached_property
    def curve_key(self) -> tuple:
        """Reuse key of this MetaOp's scaling curve (workload signature of its
        representative operator).

        Two MetaOps with equal keys profile identically on the same cluster
        and planner configuration, so fitted curves can be shared between them
        (intra-plan) and transferred between plans (incremental re-planning).
        Cached because estimate/reuse lookups and incremental-planner passes
        recompute it per MetaOp many times; the operator list is treated as
        immutable once the MetaGraph is built.
        """
        op = self.representative
        return (
            op.op_type,
            op.modality,
            op.input_spec.as_tuple(),
            op.flops,
            op.param_bytes,
            op.activation_bytes,
        )

    # ------------------------------------------------------------ aggregates
    @property
    def num_operators(self) -> int:
        """The paper's ``L_m``: number of consecutive operators contracted."""
        return len(self.operators)

    @property
    def flops_per_operator(self) -> float:
        return self.representative.flops

    @property
    def total_flops(self) -> float:
        return sum(op.flops for op in self.operators)

    @property
    def param_bytes(self) -> float:
        return sum(op.param_bytes for op in self.operators)

    @property
    def name(self) -> str:
        first, last = self.operators[0].name, self.operators[-1].name
        if first == last:
            return first
        return f"{first}..{last}"

    def operator_slice(self, offset: int, layers: int) -> list[Operator]:
        """Operators executed by a wave entry starting at ``offset``."""
        if offset < 0 or layers < 0 or offset + layers > self.num_operators:
            raise MetaGraphError(
                f"Invalid slice [{offset}, {offset + layers}) of MetaOp "
                f"{self.index} with {self.num_operators} operators"
            )
        return self.operators[offset : offset + layers]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetaOp(index={self.index}, type={self.op_type!r}, task={self.task!r}, "
            f"L={self.num_operators}, level={self.level})"
        )


@dataclass
class MetaGraph:
    """Contracted graph ``G_M`` whose nodes are MetaOps."""

    metaops: dict[int, MetaOp] = field(default_factory=dict)
    edges: dict[tuple[int, int], float] = field(default_factory=dict)

    # ---------------------------------------------------------------- mutation
    def add_metaop(self, metaop: MetaOp) -> MetaOp:
        if metaop.index in self.metaops:
            raise MetaGraphError(f"Duplicate MetaOp index {metaop.index}")
        self.metaops[metaop.index] = metaop
        return metaop

    def add_edge(self, src: int, dst: int, volume_bytes: float) -> None:
        if src not in self.metaops or dst not in self.metaops:
            raise MetaGraphError(f"Unknown MetaOp in edge ({src}, {dst})")
        if src == dst:
            raise MetaGraphError(f"Self edge on MetaOp {src}")
        key = (src, dst)
        self.edges[key] = self.edges.get(key, 0.0) + float(volume_bytes)

    # ----------------------------------------------------------------- lookup
    def metaop(self, index: int) -> MetaOp:
        try:
            return self.metaops[index]
        except KeyError as exc:
            raise MetaGraphError(f"Unknown MetaOp index {index}") from exc

    @property
    def num_metaops(self) -> int:
        return len(self.metaops)

    @property
    def num_operators(self) -> int:
        return sum(m.num_operators for m in self.metaops.values())

    def predecessors(self, index: int) -> list[int]:
        return [src for (src, dst) in self.edges if dst == index]

    def successors(self, index: int) -> list[int]:
        return [dst for (src, dst) in self.edges if src == index]

    def edge_volume(self, src: int, dst: int) -> float:
        return self.edges.get((src, dst), 0.0)

    # ----------------------------------------------------------------- levels
    def assign_levels(self) -> None:
        """Assign MetaLevels so that same-level MetaOps are independent.

        Levels follow the dependency topology: a MetaOp's level is one more
        than the deepest level among its predecessors, which guarantees that
        every edge crosses from a strictly lower level to a higher one.
        """
        order = self._topological_order()
        levels: dict[int, int] = {}
        for index in order:
            preds = self.predecessors(index)
            level = 0 if not preds else 1 + max(levels[p] for p in preds)
            levels[index] = level
            self.metaops[index].level = level

    def levels(self) -> list[list[int]]:
        """MetaOp indices grouped by level (levels must be assigned)."""
        self._require_levels()
        max_level = max(m.level for m in self.metaops.values())
        groups: list[list[int]] = [[] for _ in range(max_level + 1)]
        for metaop in self.metaops.values():
            groups[metaop.level].append(metaop.index)
        return groups

    def metaops_at_level(self, level: int) -> list[MetaOp]:
        self._require_levels()
        return [m for m in self.metaops.values() if m.level == level]

    @property
    def num_levels(self) -> int:
        self._require_levels()
        return max(m.level for m in self.metaops.values()) + 1

    def _require_levels(self) -> None:
        if not self.metaops:
            raise MetaGraphError("MetaGraph is empty")
        if any(m.level < 0 for m in self.metaops.values()):
            raise MetaGraphError("MetaLevels have not been assigned")

    def _topological_order(self) -> list[int]:
        in_deg = {index: 0 for index in self.metaops}
        for (_, dst) in self.edges:
            in_deg[dst] += 1
        queue = [index for index, deg in in_deg.items() if deg == 0]
        order: list[int] = []
        while queue:
            index = queue.pop(0)
            order.append(index)
            for succ in self.successors(index):
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self.metaops):
            raise MetaGraphError("MetaGraph contains a cycle")
        return order

    # --------------------------------------------------------------- validate
    def validate(self) -> None:
        self._topological_order()
        if any(m.level >= 0 for m in self.metaops.values()):
            for (src, dst) in self.edges:
                if self.metaops[src].level >= self.metaops[dst].level >= 0:
                    raise MetaGraphError(
                        f"Edge ({src}, {dst}) does not increase MetaLevel"
                    )

    def tasks(self) -> list[str]:
        seen: dict[str, None] = {}
        for metaop in self.metaops.values():
            seen.setdefault(metaop.task, None)
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetaGraph(metaops={self.num_metaops}, edges={len(self.edges)}, "
            f"operators={self.num_operators})"
        )
