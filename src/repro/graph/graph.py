"""Directed acyclic computation graph used by the Spindle execution planner."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional

from repro.graph.ops import DataFlow, Operator


class GraphError(Exception):
    """Raised when a computation graph is malformed (cycles, missing nodes)."""


class ComputationGraph:
    """The unified multi-task computation graph ``G = (V, E)`` of §3.

    Nodes are :class:`~repro.graph.ops.Operator` objects keyed by their unique
    names; edges are :class:`~repro.graph.ops.DataFlow` objects.  The class
    offers the traversal primitives needed by graph contraction (§3.1) and by
    the runtime engine: topological ordering, degree queries, predecessor and
    successor lookup, and per-task sub-graph extraction.
    """

    def __init__(self) -> None:
        self._operators: dict[str, Operator] = {}
        self._edges: dict[tuple[str, str], DataFlow] = {}
        self._successors: dict[str, list[str]] = {}
        self._predecessors: dict[str, list[str]] = {}

    # ------------------------------------------------------------------ nodes
    def add_operator(self, op: Operator) -> Operator:
        """Add an operator node; names must be unique within the graph."""
        if op.name in self._operators:
            raise GraphError(f"Duplicate operator name {op.name!r}")
        self._operators[op.name] = op
        self._successors[op.name] = []
        self._predecessors[op.name] = []
        return op

    def add_operators(self, ops: Iterable[Operator]) -> None:
        for op in ops:
            self.add_operator(op)

    def has_operator(self, name: str) -> bool:
        return name in self._operators

    def operator(self, name: str) -> Operator:
        try:
            return self._operators[name]
        except KeyError as exc:
            raise GraphError(f"Unknown operator {name!r}") from exc

    @property
    def operators(self) -> dict[str, Operator]:
        """Mapping of operator name to operator (do not mutate)."""
        return self._operators

    @property
    def num_operators(self) -> int:
        return len(self._operators)

    # ------------------------------------------------------------------ edges
    def add_flow(
        self, src: str, dst: str, volume_bytes: Optional[float] = None
    ) -> DataFlow:
        """Add a data flow edge ``src -> dst``.

        When ``volume_bytes`` is omitted the volume defaults to the activation
        bytes produced by the source operator, which is what a real framework
        would transmit between consecutive modules.
        """
        if src not in self._operators:
            raise GraphError(f"Unknown source operator {src!r}")
        if dst not in self._operators:
            raise GraphError(f"Unknown destination operator {dst!r}")
        if (src, dst) in self._edges:
            raise GraphError(f"Duplicate data flow {src!r} -> {dst!r}")
        if volume_bytes is None:
            volume_bytes = self._operators[src].activation_bytes
        flow = DataFlow(src=src, dst=dst, volume_bytes=float(volume_bytes))
        self._edges[(src, dst)] = flow
        self._successors[src].append(dst)
        self._predecessors[dst].append(src)
        if self._creates_cycle(src, dst):
            # Roll back before reporting the error so the graph stays usable.
            del self._edges[(src, dst)]
            self._successors[src].remove(dst)
            self._predecessors[dst].remove(src)
            raise GraphError(f"Data flow {src!r} -> {dst!r} introduces a cycle")
        return flow

    def flow(self, src: str, dst: str) -> DataFlow:
        try:
            return self._edges[(src, dst)]
        except KeyError as exc:
            raise GraphError(f"No data flow {src!r} -> {dst!r}") from exc

    @property
    def flows(self) -> list[DataFlow]:
        return list(self._edges.values())

    @property
    def num_flows(self) -> int:
        return len(self._edges)

    # ------------------------------------------------------------- traversal
    def successors(self, name: str) -> list[str]:
        return list(self._successors[name])

    def predecessors(self, name: str) -> list[str]:
        return list(self._predecessors[name])

    def out_degree(self, name: str) -> int:
        return len(self._successors[name])

    def in_degree(self, name: str) -> int:
        return len(self._predecessors[name])

    def sources(self) -> list[str]:
        """Operators with no predecessors (task inputs)."""
        return [name for name in self._operators if not self._predecessors[name]]

    def sinks(self) -> list[str]:
        """Operators with no successors (losses / task outputs)."""
        return [name for name in self._operators if not self._successors[name]]

    def topological_order(self) -> list[str]:
        """Kahn topological sort; raises :class:`GraphError` on cycles."""
        in_deg = {name: self.in_degree(name) for name in self._operators}
        queue = deque(name for name, deg in in_deg.items() if deg == 0)
        order: list[str] = []
        while queue:
            name = queue.popleft()
            order.append(name)
            for succ in self._successors[name]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self._operators):
            raise GraphError("Computation graph contains a cycle")
        return order

    def _creates_cycle(self, src: str, dst: str) -> bool:
        """Check whether ``src`` is reachable from ``dst`` (cheap DFS)."""
        stack = [dst]
        seen = set()
        while stack:
            node = stack.pop()
            if node == src:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._successors[node])
        return False

    # ------------------------------------------------------------ aggregates
    def tasks(self) -> list[str]:
        """Names of the tasks present in the graph, in first-seen order."""
        seen: dict[str, None] = {}
        for op in self._operators.values():
            seen.setdefault(op.task, None)
        return list(seen)

    def operators_of_task(self, task: str) -> list[Operator]:
        return [op for op in self._operators.values() if op.task == task]

    def task_subgraph(self, task: str) -> "ComputationGraph":
        """Extract the sub-graph activated by a single task."""
        sub = ComputationGraph()
        # Graph order, not set order: the sub-graph's operator order sets the
        # tie-breaks of its topological order, and a set's would follow the
        # interpreter's string-hash seed.
        names = dict.fromkeys(op.name for op in self.operators_of_task(task))
        for name in names:
            sub.add_operator(self._operators[name])
        for (src, dst), flow in self._edges.items():
            if src in names and dst in names:
                sub.add_flow(src, dst, flow.volume_bytes)
        return sub

    def total_flops(self) -> float:
        return sum(op.flops for op in self._operators.values())

    def total_param_bytes(self, deduplicate_shared: bool = True) -> float:
        """Total parameter bytes in the graph.

        With ``deduplicate_shared`` (the default), parameters shared across
        operators via ``param_key`` are counted once, which is how the paper
        reports model sizes (Tab. 1b).
        """
        if not deduplicate_shared:
            return sum(op.param_bytes for op in self._operators.values())
        seen: dict[str, float] = {}
        anonymous = 0.0
        for op in self._operators.values():
            if op.param_key is None:
                anonymous += op.param_bytes
            else:
                seen[op.param_key] = max(seen.get(op.param_key, 0.0), op.param_bytes)
        return anonymous + sum(seen.values())

    def validate(self) -> None:
        """Raise :class:`GraphError` if the graph is not a DAG."""
        self.topological_order()

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._operators.values())

    def __len__(self) -> int:
        return len(self._operators)

    def __contains__(self, name: str) -> bool:
        return name in self._operators

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputationGraph(operators={self.num_operators}, flows={self.num_flows}, "
            f"tasks={len(self.tasks())})"
        )
