"""Canonical workload fingerprints keying the plan cache.

Planning is a pure function of (task set, cluster topology, planner
configuration): identical inputs always produce identical plans, so the plan
service keys its cache on a content hash of those three inputs.  The hash is
*canonical* — insensitive to task ordering and to task naming — because dynamic
workloads (Appendix D) resubmit the same task sets under fresh phase labels and
in arbitrary order, and those requests must land on the same cache entry.

Canonicalisation rules:

* A task is described structurally: batch size, weight, its modules (each an
  ordered chain of operator descriptors) and the module-level flows.  Operator
  *names* and the owning task's *name* are excluded — operator names embed the
  task name, and neither influences the schedule, allocation or placement the
  planner produces.  Parameter sharing keys are kept verbatim: they define
  cross-task parameter groups and are not derived from task names anywhere in
  the model zoo.  Note the resulting contract: names *are* embedded in plan
  documents (MetaOps reference their task for display and correlation), so a
  cache hit under a naming-insensitive fingerprint returns a plan carrying the
  names of whichever structurally-equal request was planned first.  Consumers
  that correlate plan entries with their own task names must map by structure,
  not by name — which is how the dynamic-workload runner consumes cached
  plans.
* The task documents of a request are sorted by their serialized form (the
  compact, key-sorted JSON that is also hashed), making the fingerprint
  order-insensitive.  Sorting on the default ``", "``/``": "`` separators
  gives the same order: the two forms differ only by a space after each
  ``,`` and ``:`` outside string literals, and whether a character is inside
  a literal is decided by the characters before it.  So two documents'
  compact strings first differ at the same character as their default
  strings do, and equal strings are equal documents.
* A raw :class:`~repro.graph.graph.ComputationGraph` request is canonicalised
  with its operator names intact (names are the graph's node identity; graph
  callers manage their own naming), with nodes and edges sorted.
* Cluster topology and planner configuration are serialized field by field, so
  any change — device spec, interconnect bandwidth, timing constants, placement
  strategy — changes the fingerprint.

All documents are hashed as compact JSON with sorted keys via SHA-256.  The
hashed request document is ``{"cluster": ..., "config": ..., "workload":
{"tasks": [...]}}`` (or ``{"graph": ...}``), but :func:`fingerprint_workload`
never builds it: it serializes each task document once, keeps only the
string, sorts the strings and splices them between the topology's cached
:meth:`~repro.cluster.topology.ClusterTopology.canonical_json` and the config
JSON.  Holding one task document at a time also keeps a fresh fingerprint's
net allocations of garbage-collected containers small, so it rarely triggers
a collection of its own.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Sequence, Union

from repro.cluster.topology import ClusterTopology
from repro.graph.graph import ComputationGraph
from repro.graph.ops import Operator
from repro.graph.task import SpindleTask

FingerprintInput = Union[ComputationGraph, Sequence[SpindleTask]]

#: Compact, key-sorted JSON: the one form that is both sorted and hashed.
#: Canonical documents are trees of fresh lists and dicts, so the encoder
#: skips the cycle check (about a sixth of the serialization time); a cycle
#: would still fail, with RecursionError instead of ValueError.
_compact_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode


def canonical_operator(op: Operator, include_name: bool = False) -> list[Any]:
    """Structural descriptor of one operator, excluding its (task-derived) name."""
    doc: list[Any] = [
        op.op_type,
        op.modality,
        list(op.input_spec.as_tuple()),
        op.flops,
        op.param_bytes,
        op.activation_bytes,
        op.param_key,
    ]
    if include_name:
        doc.insert(0, op.name)
    return doc


def canonical_task(task: SpindleTask) -> dict[str, Any]:
    """Order- and name-insensitive structural document of one task."""
    modules = {
        name: [canonical_operator(op) for op in module.operators]
        for name, module in sorted(task.modules.items())
    }
    flows = sorted(
        [src, dst, volume if volume is not None else -1.0]
        for src, dst, volume in task.flows
    )
    return {
        "batch_size": task.batch_size,
        "weight": task.weight,
        "modules": modules,
        "flows": flows,
    }


def canonical_tasks(tasks: Sequence[SpindleTask]) -> list[dict[str, Any]]:
    """Task documents sorted by content, so task order does not matter."""
    documents = [canonical_task(task) for task in tasks]
    documents.sort(key=_compact_json)
    return documents


def canonical_graph(graph: ComputationGraph) -> dict[str, Any]:
    """Structural document of a raw computation graph (names kept)."""
    operators = sorted(
        canonical_operator(op, include_name=True)
        for op in graph.operators.values()
    )
    edges = sorted([flow.src, flow.dst, flow.volume_bytes] for flow in graph.flows)
    return {"operators": operators, "edges": edges}


def canonical_cluster(cluster: ClusterTopology) -> dict[str, Any]:
    """Full structural document of the cluster topology.

    Delegates to :meth:`ClusterTopology.canonical_dict`, which also covers
    heterogeneous clusters (per-island specs, irregular island sizes) and the
    devices' ``achievable_fraction`` — straggler events degrade only that
    field, and degraded substrates must never share a fingerprint with
    healthy ones.
    """
    return cluster.canonical_dict()


def hash_document(document: Any) -> str:
    """SHA-256 hex digest of a JSON-serializable document."""
    return hashlib.sha256(_compact_json(document).encode("utf-8")).hexdigest()


def fingerprint_workload(
    workload: FingerprintInput,
    cluster: ClusterTopology,
    config: Mapping[str, Any] | None = None,
) -> str:
    """Canonical content hash of (workload, cluster, planner configuration).

    Equal to :func:`hash_document` of the request document described in the
    module docstring, built in one serialization pass.
    """
    if isinstance(workload, ComputationGraph):
        body = '{"graph":' + _compact_json(canonical_graph(workload)) + "}"
    else:
        # A generator, so each task document is dropped once serialized.
        tasks = sorted(_compact_json(canonical_task(task)) for task in workload)
        body = '{"tasks":[' + ",".join(tasks) + "]}"
    payload = (
        '{"cluster":'
        + cluster.canonical_json()
        + ',"config":'
        + _compact_json(dict(config) if config is not None else {})
        + ',"workload":'
        + body
        + "}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
