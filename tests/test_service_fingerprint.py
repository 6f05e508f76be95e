"""Tests for canonical workload fingerprints (plan-cache keys)."""

import copy
import gc
import hashlib
import json
import pickle
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.device import A800_SPEC, DeviceSpec
from repro.cluster.topology import (
    ClusterTopology,
    make_cluster,
    make_heterogeneous_cluster,
)
from repro.core.planner import ExecutionPlanner
from repro.costmodel.flops import LayerConfig, make_transformer_layer_op
from repro.costmodel.memory import MemoryModel, MemoryModelConfig
from repro.costmodel.timing import TimingModelConfig
from repro.graph.builder import build_unified_graph
from repro.graph.graph import ComputationGraph
from repro.graph.ops import Operator, TensorSpec
from repro.graph.task import SpindleTask
from repro.models import multitask_clip_tasks, ofasys_tasks, qwen_val_tasks
from repro.service import fingerprint as fingerprint_module
from repro.service.fingerprint import (
    canonical_graph,
    canonical_task,
    canonical_tasks,
    fingerprint_workload,
)


@pytest.fixture
def cluster():
    return make_cluster(4, devices_per_node=4)


def _task(
    name: str,
    module_layers: dict[str, int] | None = None,
    batch: int = 8,
    hidden: int = 256,
    shared_prefix: str | None = "shared",
) -> SpindleTask:
    """A chain task structurally identical across different ``name`` values."""
    module_layers = module_layers or {"audio": 3, "lm": 2}
    task = SpindleTask(name, batch_size=batch)
    previous = None
    for module_name, layers in module_layers.items():
        ops = [
            make_transformer_layer_op(
                name=f"{name}.{module_name}.layer{i}",
                op_type=f"{module_name}_layer",
                task=name,
                modality=module_name,
                spec=TensorSpec(batch=batch, seq_len=64, hidden=hidden),
                config=LayerConfig(hidden_size=hidden),
                param_key=(
                    f"{shared_prefix}.{module_name}.layer{i}" if shared_prefix else None
                ),
            )
            for i in range(layers)
        ]
        task.add_module(module_name, ops)
        if previous is not None:
            task.add_flow(previous, module_name)
        previous = module_name
    return task


class TestTaskCanonicalisation:
    def test_task_name_excluded(self):
        assert canonical_task(_task("alpha")) == canonical_task(_task("beta"))

    def test_structure_included(self):
        base = canonical_task(_task("t"))
        assert canonical_task(_task("t", batch=16)) != base
        assert canonical_task(_task("t", module_layers={"audio": 4, "lm": 2})) != base
        assert canonical_task(_task("t", shared_prefix=None)) != base


class TestFingerprintStability:
    def test_deterministic(self, cluster):
        tasks = [_task("a"), _task("b", module_layers={"vision": 2, "lm": 2})]
        assert fingerprint_workload(tasks, cluster) == fingerprint_workload(
            tasks, cluster
        )

    def test_task_order_invariant(self, cluster):
        first = _task("a")
        second = _task("b", module_layers={"vision": 2, "lm": 2})
        assert fingerprint_workload([first, second], cluster) == fingerprint_workload(
            [second, first], cluster
        )

    def test_task_naming_invariant(self, cluster):
        original = [_task("a"), _task("b", module_layers={"vision": 2, "lm": 2})]
        renamed = [_task("x"), _task("y", module_layers={"vision": 2, "lm": 2})]
        assert fingerprint_workload(original, cluster) == fingerprint_workload(
            renamed, cluster
        )

    def test_task_set_sensitive(self, cluster):
        tasks = [_task("a"), _task("b", module_layers={"vision": 2, "lm": 2})]
        assert fingerprint_workload(tasks, cluster) != fingerprint_workload(
            tasks[:1], cluster
        )

    def test_cluster_sensitive(self):
        tasks = [_task("a")]
        small = make_cluster(4, devices_per_node=4)
        large = make_cluster(8, devices_per_node=4)
        assert fingerprint_workload(tasks, small) != fingerprint_workload(tasks, large)
        one_island = make_cluster(8, devices_per_node=8)
        assert fingerprint_workload(tasks, large) != fingerprint_workload(
            tasks, one_island
        )

    def test_device_spec_sensitive(self):
        tasks = [_task("a")]
        a = make_cluster(4, devices_per_node=4)
        b = ClusterTopology(
            num_nodes=1,
            devices_per_node=4,
            device_spec=DeviceSpec(
                name="other", peak_flops=100e12, memory_bytes=32 * 1024**3
            ),
        )
        assert fingerprint_workload(tasks, a) != fingerprint_workload(tasks, b)

    def test_config_sensitive(self, cluster):
        tasks = [_task("a")]
        base = fingerprint_workload(tasks, cluster, {"placement": "locality"})
        assert base != fingerprint_workload(tasks, cluster, {"placement": "sequential"})
        assert base != fingerprint_workload(tasks, cluster)


class TestPlannerFingerprint:
    def test_plan_carries_fingerprint(self, cluster, tiny_tasks):
        plan = ExecutionPlanner(cluster).plan(tiny_tasks)
        assert plan.fingerprint
        again = ExecutionPlanner(cluster).plan(list(reversed(tiny_tasks)))
        assert again.fingerprint == plan.fingerprint

    def test_planner_config_changes_fingerprint(self, cluster, tiny_tasks):
        locality = ExecutionPlanner(cluster).plan(tiny_tasks)
        sequential = ExecutionPlanner(
            cluster, placement_strategy="sequential"
        ).plan(tiny_tasks)
        assert locality.fingerprint != sequential.fingerprint
        tweaked = ExecutionPlanner(
            cluster, timing_config=TimingModelConfig(backward_multiplier=1.5)
        ).plan(tiny_tasks)
        assert tweaked.fingerprint != locality.fingerprint
        small_memory = ExecutionPlanner(
            cluster,
            memory_model=MemoryModel(
                MemoryModelConfig(framework_overhead_bytes=0.5 * 1024**3)
            ),
        ).plan(tiny_tasks)
        assert small_memory.fingerprint != locality.fingerprint

    def test_distinct_closures_never_share_a_signature(self, cluster):
        def make_fn(cap):
            def fn(metaop, max_devices):
                return list(range(1, min(max_devices, cap) + 1))

            return fn

        capped2 = ExecutionPlanner(cluster, valid_allocation_fn=make_fn(2))
        capped8 = ExecutionPlanner(cluster, valid_allocation_fn=make_fn(8))
        assert capped2.config_signature() != capped8.config_signature()
        # Module-level functions keep a stable, process-independent identity.
        default_a = ExecutionPlanner(cluster).config_signature()
        default_b = ExecutionPlanner(cluster).config_signature()
        assert default_a == default_b

    def test_graph_input_fingerprinted(self, cluster, tiny_graph):
        plan = ExecutionPlanner(cluster).plan(tiny_graph)
        assert plan.fingerprint
        assert ExecutionPlanner(cluster).plan(tiny_graph).fingerprint == plan.fingerprint


# -------------------------------------------------------------------- oracle


def oracle_fingerprint(workload, cluster, config=None) -> str:
    """The two-pass algorithm ``fingerprint_workload`` replaced, verbatim.

    Task documents are sorted by their default-separator JSON, the whole
    request document is built, and that document is hashed as compact JSON.
    """
    if isinstance(workload, ComputationGraph):
        workload_doc = {"graph": canonical_graph(workload)}
    else:
        documents = [canonical_task(task) for task in list(workload)]
        documents.sort(key=lambda doc: json.dumps(doc, sort_keys=True))
        workload_doc = {"tasks": documents}
    document = {
        "workload": workload_doc,
        "cluster": cluster.canonical_dict(),
        "config": dict(config) if config is not None else {},
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_SLOW_A800 = DeviceSpec(
    name="A800-slow",
    peak_flops=A800_SPEC.peak_flops,
    memory_bytes=A800_SPEC.memory_bytes,
    achievable_fraction=0.3,
)


def _topologies() -> dict[str, ClusterTopology]:
    return {
        "uniform": make_cluster(64),
        "irregular": ClusterTopology(
            num_nodes=3, devices_per_node=8, island_sizes=(8, 7, 5)
        ),
        "mixed": make_heterogeneous_cluster(
            [A800_SPEC, _SLOW_A800, A800_SPEC, _SLOW_A800], devices_per_node=4
        ),
    }


#: ``signature()`` of each topology above, recorded before the topology
#: cached its canonical JSON.
_PINNED_SIGNATURES = {
    "uniform": "a94657bc43d98c604189434d2010451d23c538e59a239e36d9ed497862dd5e20",
    "irregular": "c78a7192eac0b6fc80e9c983ce3a9d95c79ae2c7de611946254c02c663886950",
    "mixed": "265689abfee0a00e31c38dc7bc33cd3b23d2f6187f0d6d62f5a15e60995e9da5",
}


@pytest.fixture(scope="module")
def zoo_tasks():
    return {
        "clip": multitask_clip_tasks(10),
        "ofasys": ofasys_tasks(7),
        "qwen": qwen_val_tasks(3, size="10b"),
    }


def _config(cluster, kind):
    if kind == "none":
        return None
    if kind == "default":
        return ExecutionPlanner(cluster).config_signature()
    return ExecutionPlanner(
        cluster,
        placement_strategy="sequential",
        timing_config=TimingModelConfig(backward_multiplier=1.5),
        spec_aware=False,
    ).config_signature()


class TestOracle:
    @pytest.mark.parametrize("config_kind", ["default", "tweaked", "none"])
    @pytest.mark.parametrize("topology", sorted(_PINNED_SIGNATURES))
    @pytest.mark.parametrize("model", ["clip", "ofasys", "qwen"])
    def test_matches_the_two_pass_oracle(self, zoo_tasks, model, topology, config_kind):
        cluster = _topologies()[topology]
        config = _config(cluster, config_kind)
        pool = zoo_tasks[model]
        rng = random.Random(f"{model}/{topology}/{config_kind}")
        workloads = [pool, list(reversed(pool)), pool[:1]]
        for _ in range(4):
            # Shuffled subsets drawn with replacement, so some repeat a task.
            workloads.append(rng.choices(pool, k=rng.randint(2, len(pool) + 2)))
        for workload in workloads:
            assert fingerprint_workload(workload, cluster, config) == (
                oracle_fingerprint(workload, cluster, config)
            )

    @pytest.mark.parametrize("topology", sorted(_PINNED_SIGNATURES))
    def test_graph_input_matches_the_oracle(self, zoo_tasks, topology):
        cluster = _topologies()[topology]
        graph = build_unified_graph(zoo_tasks["clip"][:4])
        for config in (None, _config(cluster, "default")):
            assert fingerprint_workload(graph, cluster, config) == (
                oracle_fingerprint(graph, cluster, config)
            )

    def test_canonical_tasks_keeps_the_oracle_order(self, zoo_tasks):
        tasks = zoo_tasks["ofasys"] + zoo_tasks["clip"]
        expected = sorted(
            (canonical_task(task) for task in tasks),
            key=lambda doc: json.dumps(doc, sort_keys=True),
        )
        assert canonical_tasks(tasks) == expected


class TestTopologySignature:
    @pytest.mark.parametrize("topology", sorted(_PINNED_SIGNATURES))
    def test_signature_is_pinned(self, topology):
        cluster = _topologies()[topology]
        assert cluster.signature() == _PINNED_SIGNATURES[topology]

    def test_signature_hashes_the_cached_canonical_json(self):
        cluster = make_cluster(16)
        text = cluster.canonical_json()
        assert cluster.canonical_json() is text
        assert json.loads(text) == cluster.canonical_dict()
        assert cluster.signature() == hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- properties

# Every character that is structural in JSON, the two that JSON escapes, and
# characters that ``ensure_ascii`` turns into ``\u`` escapes.
_ADVERSARIAL = st.text(
    alphabet=st.sampled_from(list(',: "\\[]{}ab\u00e9\u2603\U0001f600')),
    max_size=4,
)


@st.composite
def synthetic_tasks(draw, index):
    name = f"task{index}"
    task = SpindleTask(name, batch_size=draw(st.sampled_from([1, 2, 8])))
    for m in range(draw(st.integers(min_value=1, max_value=2))):
        ops = [
            Operator(
                name=f"{name}.m{m}.{i}",
                op_type=draw(_ADVERSARIAL),
                task=name,
                modality=draw(_ADVERSARIAL),
                input_spec=TensorSpec(batch=1, seq_len=4, hidden=8),
                flops=draw(st.sampled_from([0.0, 1.0, 1.5e12])),
                param_key=draw(st.none() | _ADVERSARIAL),
            )
            for i in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        task.add_module(f"m{m}", ops)
    if len(task.modules) == 2:
        task.add_flow("m0", "m1")
    return task


@st.composite
def task_lists(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    return [draw(synthetic_tasks(i)) for i in range(count)]


class TestCompactSortOrder:
    @settings(max_examples=150, deadline=None)
    @given(tasks=task_lists())
    def test_compact_and_default_keys_sort_alike(self, tasks):
        documents = [canonical_task(task) for task in tasks]
        compact = [
            json.dumps(doc, sort_keys=True, separators=(",", ":")) for doc in documents
        ]
        default = [json.dumps(doc, sort_keys=True) for doc in documents]
        by_compact = sorted(range(len(documents)), key=compact.__getitem__)
        by_default = sorted(range(len(documents)), key=default.__getitem__)
        assert by_compact == by_default

    @settings(max_examples=150, deadline=None)
    @given(tasks=task_lists(), seed=st.integers(min_value=0, max_value=2**16))
    def test_digest_equals_the_oracle(self, tasks, seed):
        cluster = make_cluster(4, devices_per_node=4)
        workload = tasks + tasks[:1]
        random.Random(seed).shuffle(workload)
        assert fingerprint_workload(workload, cluster) == oracle_fingerprint(
            workload, cluster
        )


# ----------------------------------------------------------------- exactness

#: Numbers that compare equal but encode differently (``0.0``/``-0.0``;
#: ``1``/``1.0``/``True``/``numpy.float64(1.0)``), that equal nothing
#: (``nan``), that JSON spells specially (``inf``), and one the encoder
#: rejects (``numpy.int64``).  A fragment key that dropped a type or a
#: zero's sign would serve one of them another's fragment.
_EQUAL_BUT_DISTINCT = st.sampled_from(
    [
        0.0,
        -0.0,
        1,
        1.0,
        True,
        float("nan"),
        float("inf"),
        np.float64(1.0),
        np.float64(-0.0),
        np.int64(1),
    ]
)
#: Positive tensor dimensions of every numeric type ``TensorSpec`` accepts.
_DIMENSIONS = st.sampled_from([1, 1.0, True, 4, 4.0, np.float64(4.0)])


@st.composite
def equal_but_distinct_tasks(draw, index):
    """Tasks over few names and equal-but-distinct numbers, so structures
    that share a fragment key up to ``==`` recur across examples."""
    name = f"task{index}"
    task = SpindleTask(name)
    # Set after construction, which would coerce them to int and float.
    task.batch_size = draw(st.sampled_from([1, 1.0, True, 8]))
    task.weight = draw(_EQUAL_BUT_DISTINCT)
    for m in range(draw(st.integers(min_value=1, max_value=2))):
        ops = [
            Operator(
                name=f"{name}.m{m}.{i}",
                op_type=draw(st.sampled_from(["layer", "loss"])),
                task=name,
                modality="m",
                input_spec=TensorSpec(
                    batch=draw(_DIMENSIONS), seq_len=draw(_DIMENSIONS), hidden=8
                ),
                flops=draw(_EQUAL_BUT_DISTINCT),
                param_bytes=draw(_EQUAL_BUT_DISTINCT),
                activation_bytes=draw(_EQUAL_BUT_DISTINCT),
                param_key=draw(st.sampled_from([None, "k"])),
            )
            for i in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        task.add_module(f"m{m}", ops)
    if len(task.modules) == 2:
        task.add_flow("m0", "m1", draw(st.none() | _EQUAL_BUT_DISTINCT))
    return task


@st.composite
def equal_but_distinct_task_lists(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    return [draw(equal_but_distinct_tasks(i)) for i in range(count)]


class TestFragmentTableExactness:
    @settings(max_examples=400, deadline=None)
    @given(tasks=equal_but_distinct_task_lists())
    def test_digest_equals_the_oracle_across_examples(self, tasks):
        # The fragment tables are deliberately carried across examples: an
        # entry an earlier example stored under an inexact key would be
        # served to an equal-but-distinct structure here.
        cluster = make_cluster(4, devices_per_node=4)
        try:
            expected = oracle_fingerprint(tasks, cluster)
        except TypeError:
            # numpy.int64: the encoder rejects it on both paths, every time.
            with pytest.raises(TypeError):
                fingerprint_workload(tasks, cluster)
            return
        assert fingerprint_workload(tasks, cluster) == expected
        assert fingerprint_workload(tasks, cluster) == expected

    @pytest.mark.parametrize(
        "seen, fresh",
        [
            (1.0, 1),
            (1, True),
            (0.0, -0.0),
            (-0.0, 0.0),
            (1.0, np.float64(1.0)),
        ],
    )
    def test_equal_values_of_another_type_or_sign_miss(self, seen, fresh):
        cluster = make_cluster(4, devices_per_node=4)
        for flops in (seen, fresh):
            task = SpindleTask("t")
            task.add_module(
                "m",
                [
                    Operator(
                        name="t.m.0",
                        op_type="layer",
                        task="t",
                        modality="m",
                        input_spec=TensorSpec(batch=1, seq_len=4, hidden=8),
                        flops=flops,
                        param_bytes=flops,
                    )
                ],
            )
            assert fingerprint_workload([task], cluster) == oracle_fingerprint(
                [task], cluster
            )

    def test_values_the_encoder_rejects_still_raise(self):
        cluster = make_cluster(4, devices_per_node=4)
        tasks = []
        for flops in (5, np.int64(5)):
            task = SpindleTask("t")
            spec = TensorSpec(batch=1, seq_len=4, hidden=8)
            task.add_module(
                "m",
                [Operator("t.m.0", "layer", "t", "m", spec, flops=flops)],
            )
            tasks.append(task)
        fingerprint_workload(tasks[:1], cluster)  # stores the int's fragment
        for _ in range(2):
            with pytest.raises(TypeError):
                fingerprint_workload(tasks[1:], cluster)

    def test_tables_stay_within_their_bounds(self):
        cluster = make_cluster(4, devices_per_node=4)
        limit = fingerprint_module._FRAGMENT_LIMIT
        task = SpindleTask("t")
        spec = TensorSpec(batch=1, seq_len=4, hidden=8)
        task.add_module(
            "m",
            [
                Operator(f"t.m.{i}", "layer", "t", "m", spec, flops=float(i + 1))
                for i in range(limit + limit // 2)
            ],
        )
        assert fingerprint_workload([task], cluster) == oracle_fingerprint(
            [task], cluster
        )
        assert 0 < len(fingerprint_module._FRAGMENTS) <= limit
        small = _task("w", module_layers={"audio": 1})
        for i in range(fingerprint_module._SHELL_LIMIT + 10):
            small.weight = 1.0 + i
            fingerprint_workload([small], cluster)
            assert len(fingerprint_module._SHELLS) <= fingerprint_module._SHELL_LIMIT
        for nodes in range(1, fingerprint_module._PREFIX_LIMIT + 5):
            fingerprint_workload([small], make_cluster(nodes, devices_per_node=1))
            assert (
                len(fingerprint_module._PREFIXES) <= fingerprint_module._PREFIX_LIMIT
            )

    def test_tables_hold_no_operator_or_task(self):
        cluster = make_cluster(16)
        built = multitask_clip_tasks(3)
        witness = weakref.ref(built[0].operators[0])
        fingerprint_workload(built, cluster)
        for table in (fingerprint_module._FRAGMENTS, fingerprint_module._SHELLS):
            held = [item for key in table for item in key] + list(table.values())
            assert all(
                type(item) in (str, int, float, bool, type(None), type) for item in held
            )
        del built
        gc.collect()
        assert witness() is None

    def test_concurrent_fingerprints_equal_the_oracle(self):
        cluster = make_cluster(64)
        expected = oracle_fingerprint(ofasys_tasks(7), cluster)
        fingerprint_module._FRAGMENTS.clear()
        fingerprint_module._SHELLS.clear()
        fingerprint_module._PREFIXES.clear()
        builds = [ofasys_tasks(7) for _ in range(6)]
        start = threading.Barrier(len(builds))
        digests: list[str] = []

        def fingerprint(tasks):
            start.wait()
            for _ in range(3):
                digests.append(fingerprint_workload(tasks, cluster))

        threads = [threading.Thread(target=fingerprint, args=(b,)) for b in builds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' misses and stores
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert digests == [expected] * (3 * len(builds))


class TestPrefixTable:
    def test_topology_fingerprinted_first_still_pickles_and_copies(self):
        cluster = make_cluster(32)
        tasks = [_task("a")]
        digest = fingerprint_workload(tasks, cluster)
        for twin in (pickle.loads(pickle.dumps(cluster)), copy.deepcopy(cluster)):
            assert twin == cluster
            assert fingerprint_workload(tasks, twin) == digest
        assert copy.copy(cluster) == cluster

    def test_config_and_topology_both_key_the_prefix(self):
        tasks = [_task("a")]
        small = make_cluster(4, devices_per_node=4)
        large = make_cluster(8, devices_per_node=4)
        for config in (None, {"placement": "locality"}, {"placement": "sequential"}):
            for cluster in (small, large, small):
                assert fingerprint_workload(tasks, cluster, config) == (
                    oracle_fingerprint(tasks, cluster, config)
                )
