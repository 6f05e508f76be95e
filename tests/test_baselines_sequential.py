"""Tests for the temporally-decoupled baselines (Megatron-LM / DeepSpeed /
Spindle-Seq)."""

import os
import subprocess
import sys

import pytest

from repro.baselines.sequential import (
    DeepSpeedSystem,
    MegatronLMSystem,
    SpindleSeqSystem,
    TemporallyDecoupledSystem,
)


class TestTemporallyDecoupledExecution:
    def test_iteration_time_components(self, two_island_cluster, tiny_tasks):
        system = DeepSpeedSystem(two_island_cluster)
        result = system.run_iteration(tiny_tasks)
        assert result.iteration_time == pytest.approx(result.breakdown.total)
        assert result.breakdown.forward_backward > 0
        assert result.breakdown.send_recv == 0.0
        assert result.num_waves == len(tiny_tasks)

    def test_rejects_empty_task_list(self, two_island_cluster):
        with pytest.raises(ValueError):
            DeepSpeedSystem(two_island_cluster).run_iteration([])

    def test_compute_time_is_sum_over_tasks(self, two_island_cluster, tiny_tasks):
        system = DeepSpeedSystem(two_island_cluster)
        combined = system.run_iteration(tiny_tasks)
        individual = [system.run_iteration([task]) for task in tiny_tasks]
        assert combined.breakdown.forward_backward == pytest.approx(
            sum(r.breakdown.forward_backward for r in individual), rel=1e-6
        )

    def test_all_devices_busy_during_every_operator(self, two_island_cluster, tiny_tasks):
        system = DeepSpeedSystem(two_island_cluster)
        result = system.run_iteration(tiny_tasks)
        devices_seen = {seg.device_id for seg in result.trace.segments}
        assert devices_seen == set(range(two_island_cluster.num_devices))

    def test_utilization_fluctuates_across_operators(self, two_island_cluster, tiny_tasks):
        """The Fig. 1 phenomenon: decoupled execution has uneven utilization."""
        system = DeepSpeedSystem(two_island_cluster)
        result = system.run_iteration(tiny_tasks)
        rates = {round(seg.flops_per_second, 3) for seg in result.trace.segments}
        assert len(rates) > 1

    def test_memory_reported_for_every_device(self, two_island_cluster, tiny_tasks):
        result = DeepSpeedSystem(two_island_cluster).run_iteration(tiny_tasks)
        assert set(result.device_memory_bytes) == set(
            range(two_island_cluster.num_devices)
        )
        assert all(v > 0 for v in result.device_memory_bytes.values())


class TestSystemVariants:
    def test_capability_flags(self):
        assert not DeepSpeedSystem.capabilities.inter_task_aware
        assert not DeepSpeedSystem.capabilities.intra_task_aware
        assert not MegatronLMSystem.capabilities.intra_task_aware

    def test_megatron_and_deepspeed_are_close(self, two_island_cluster, tiny_tasks):
        ds = DeepSpeedSystem(two_island_cluster).run_iteration(tiny_tasks)
        mg = MegatronLMSystem(two_island_cluster).run_iteration(tiny_tasks)
        assert ds.iteration_time == pytest.approx(mg.iteration_time, rel=0.1)

    def test_spindle_seq_matches_deepspeed_closely(self, two_island_cluster, tiny_tasks):
        """Appendix H: the Spindle implementation without planning optimisations
        performs on par with the SOTA systems."""
        ds = DeepSpeedSystem(two_island_cluster).run_iteration(tiny_tasks)
        seq = SpindleSeqSystem(two_island_cluster).run_iteration(tiny_tasks)
        assert seq.iteration_time == pytest.approx(ds.iteration_time, rel=0.1)
        assert seq.iteration_time >= ds.iteration_time

    def test_names_are_distinct(self):
        names = {
            TemporallyDecoupledSystem.name,
            MegatronLMSystem.name,
            DeepSpeedSystem.name,
            SpindleSeqSystem.name,
        }
        assert len(names) == 4


_HASH_SEED_PROBE = """
from repro.baselines.sequential import DeepSpeedSystem
from repro.cluster.topology import make_cluster
from repro.models.qwen_val import qwen_val_tasks

result = DeepSpeedSystem(make_cluster(32)).run_iteration(qwen_val_tasks(3, size="10b"))
print(repr(result.iteration_time * 1e3))
"""


def test_iteration_time_does_not_depend_on_the_string_hash_seed():
    """The fig08 DeepSpeed gate's value reads the same, to the last bit,
    under two hash seeds that used to disagree in its final digit."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    probes = [
        subprocess.Popen(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "4")
    ]
    reads = [probe.communicate(timeout=120)[0].strip() for probe in probes]
    assert all(probe.returncode == 0 for probe in probes)
    assert reads[0] and reads[0] == reads[1]
