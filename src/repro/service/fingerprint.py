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
never builds it: it builds each task document's string, byte for byte what
``_compact_json(canonical_task(task))`` returns, sorts the strings and feeds
them to a SHA-256 state already fed with the request's prefix (the
topology's cached
:meth:`~repro.cluster.topology.ClusterTopology.canonical_json` and the
config JSON).  :func:`canonical_task` and :func:`canonical_tasks` stay the
definition, and the tests' oracle.

Bounded, process-wide tables make a fresh fingerprint pay only for what the
process has not seen:

* **Operator fragments.**  A task's string is spliced from one compact JSON
  fragment per operator (``_compact_json(canonical_operator(op))``), kept
  under the operator's canonical fields *and their types*, so values that
  compare equal but encode differently (``1``, ``1.0`` and ``True``;
  ``0.0`` and ``-0.0``) never share an entry.  A key is stored only when
  its fields are of the plain JSON scalar types and none is NaN, and a
  float zero's sign is part of it; anything else is encoded afresh each
  time, so what the encoder rejects (``numpy.int64``) still raises.  The
  rest of a task document (batch size, flows, weight) is kept the same way
  in a second table, and module names go through the same encoder.  The
  tables hold strings, numbers and types, never an operator or a task, and
  each starts over when it reaches its bound.
* **Request prefixes.**  ``'{"cluster":' + topology JSON + ',"config":' +
  config JSON + ',"workload":'`` is 56 KB at 4096 GPUs.  A SHA-256 state fed
  with it is kept per (topology JSON, config JSON) pair and copied per
  request, here rather than on the topology, which must stay picklable.

The tables rely only on dict reads and writes, which are atomic under the
GIL, so concurrent fingerprints need no lock: two threads that miss
together store the same string.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
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

#: Operator fragments, keyed by :func:`_operators_json`.  The table starts
#: over at its bound, about 0.4 MB: the model zoo has 225 (CLIP-10), 127
#: (OFASys-7) and 181 (QWen-VAL) distinct operator structures.
_FRAGMENTS: dict[tuple, str] = {}
_FRAGMENT_LIMIT = 1024
#: Task shells (a task document without its modules), keyed by
#: :func:`_shell_json`.  Weights drawn per request never repeat, so this
#: table turns over under such a stream while the fragments stay.
_SHELLS: dict[tuple, str] = {}
_SHELL_LIMIT = 256
#: Types whose equal values encode alike (bar a float zero's sign), so the
#: only types a stored key may hold.
_EXACT_TYPES = frozenset((str, int, float, bool, type(None)))

#: SHA-256 states fed with a request's prefix, keyed by (topology JSON,
#: config JSON); at the bound the table starts over.
_PREFIXES: dict[tuple[str, str], Any] = {}
_PREFIX_LIMIT = 16


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


def _canonical_flows(task: SpindleTask) -> list[list[Any]]:
    return sorted(
        [src, dst, volume if volume is not None else -1.0]
        for src, dst, volume in task.flows
    )


def canonical_task(task: SpindleTask) -> dict[str, Any]:
    """Order- and name-insensitive structural document of one task."""
    modules = {
        name: [canonical_operator(op) for op in module.operators]
        for name, module in sorted(task.modules.items())
    }
    return {
        "batch_size": task.batch_size,
        "weight": task.weight,
        "modules": modules,
        "flows": _canonical_flows(task),
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


def _remember(
    table: dict[tuple, str], limit: int, key: tuple, values: tuple, encode
) -> str:
    """Encode what ``table`` missed under ``key``, built from ``values`` and
    their types, and store the text when the key is exact.

    A key with a float zero is stored with the zeros' signs appended, so it
    never matches a key of the other sign; such a key misses its plain form
    first.  Otherwise a stored key holds only :data:`_EXACT_TYPES` and no NaN
    (which equals nothing, so its entry could never be hit).
    """
    floats = [value for value in values if type(value) is float]
    if 0.0 in floats:
        key += tuple(math.copysign(1.0, value) for value in floats if value == 0.0)
        text = table.get(key)
        if text is not None:
            return text
    text = encode()
    if _EXACT_TYPES.issuperset(map(type, values)) and all(
        value == value for value in floats
    ):
        if len(table) >= limit:
            table.clear()
        table[key] = text
    return text


def _operators_json(operators: Sequence[Operator]) -> str:
    """The ``,``-joined ``_compact_json(canonical_operator(op))`` of
    ``operators``, from :data:`_FRAGMENTS`.

    Each key is the fields :func:`canonical_operator` reads, then their
    types.  The loop runs once per operator of every fresh request, so the
    key is built inline rather than by a call per operator.
    """
    fragments = []
    for op in operators:
        op_type = op.op_type
        modality = op.modality
        batch, seq_len, hidden = op.input_spec.as_tuple()
        flops = op.flops
        param_bytes = op.param_bytes
        activation_bytes = op.activation_bytes
        param_key = op.param_key
        key = (
            op_type,
            modality,
            batch,
            seq_len,
            hidden,
            flops,
            param_bytes,
            activation_bytes,
            param_key,
            type(op_type),
            type(modality),
            type(batch),
            type(seq_len),
            type(hidden),
            type(flops),
            type(param_bytes),
            type(activation_bytes),
            type(param_key),
        )
        fragment = _FRAGMENTS.get(key)
        if fragment is None:
            fragment = _remember(
                _FRAGMENTS,
                _FRAGMENT_LIMIT,
                key,
                key[:9],
                lambda: _compact_json(canonical_operator(op)),
            )
        fragments.append(fragment)
    return ",".join(fragments)


def _shell_json(task: SpindleTask) -> str:
    """``_compact_json`` of ``task``'s document without its modules, from
    :data:`_SHELLS`, keyed by batch size, weight and flows, then their types."""
    values = (task.batch_size, task.weight, *chain.from_iterable(task.flows))
    key = values + tuple(map(type, values))
    shell = _SHELLS.get(key)
    if shell is None:
        shell = _remember(
            _SHELLS,
            _SHELL_LIMIT,
            key,
            values,
            lambda: _compact_json(
                {
                    "batch_size": task.batch_size,
                    "flows": _canonical_flows(task),
                    "weight": task.weight,
                }
            ),
        )
    return shell


def _task_json(task: SpindleTask) -> str:
    """``_compact_json(canonical_task(task))``, spliced from fragments.

    The document's keys sort as ``batch_size``, ``flows``, ``modules``,
    ``weight``, so the modules go into the shell before ``,"weight":``,
    which is the shell's last such substring when the weight is a JSON
    scalar (its text has no unescaped quote).  A task the splice cannot
    build (a container weight, a module name that is not a string, an
    unhashable field, a value the encoder rejects) is serialized by the
    definition, which raises what it raises.
    """
    if type(task.weight) in _EXACT_TYPES:
        try:
            shell = _shell_json(task)
            cut = shell.rindex(',"weight":')
            parts = [shell[:cut], ',"modules":{']
            separator = ""
            for name, module in sorted(task.modules.items()):
                parts += (
                    separator,
                    encode_basestring_ascii(name),
                    ":[",
                    _operators_json(module.operators),
                    "]",
                )
                separator = ","
        except (TypeError, ValueError):
            pass
        else:
            parts += ("}", shell[cut:])
            return "".join(parts)
    return _compact_json(canonical_task(task))


def _prefix_state(cluster: ClusterTopology, config_json: str) -> Any:
    """A SHA-256 state fed with the request document up to its workload."""
    topology_json = cluster.canonical_json()
    key = (topology_json, config_json)
    state = _PREFIXES.get(key)
    if state is None:
        prefix = '{"cluster":' + topology_json + ',"config":' + config_json
        state = hashlib.sha256((prefix + ',"workload":').encode("utf-8"))
        if len(_PREFIXES) >= _PREFIX_LIMIT:
            _PREFIXES.clear()
        _PREFIXES[key] = state
    return state.copy()


def fingerprint_workload(
    workload: FingerprintInput,
    cluster: ClusterTopology,
    config: Mapping[str, Any] | None = None,
) -> str:
    """Canonical content hash of (workload, cluster, planner configuration).

    Equal to :func:`hash_document` of the request document described in the
    module docstring, built in one serialization pass.
    """
    # Each body ends with the brace that closes the request document.
    if isinstance(workload, ComputationGraph):
        body = '{"graph":' + _compact_json(canonical_graph(workload)) + "}}"
    else:
        tasks = sorted(_task_json(task) for task in workload)
        body = '{"tasks":[' + ",".join(tasks) + "]}}"
    state = _prefix_state(
        cluster, _compact_json(dict(config) if config is not None else {})
    )
    state.update(body.encode("utf-8"))
    return state.hexdigest()
