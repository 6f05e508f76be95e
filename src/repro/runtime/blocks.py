"""Device blocks: the intervals of device ids a plan always places together.

A plan's wave entries cut the cluster into few intervals of device ids: the
coarsest partition such that every placed entry's device set is a union of
blocks.  Every device of one block takes part in exactly the same transfers
and parameter groups, so the engine's critical paths accumulate per block
instead of per device, with the same additions in the same order.

The partition is built once per :class:`~repro.runtime.engine.RuntimeEngine`
from each entry's runs of consecutive ids (sort every run endpoint; each pair
of neighbouring endpoints bounds one block) and read by the transmissions,
the parameter pool and the simulator.  It is derived state: it is never
serialized and appears in no plan document.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Hashable, Mapping, Sequence

from repro.cluster.topology import ClusterTopology
from repro.core.plan import ExecutionPlan
from repro.costmodel.comm import device_runs


class DeviceBlocks:
    """Block ``b`` covers the device ids ``range(bounds[b], bounds[b + 1])``.

    ``runs`` maps each group the partition was built from to its maximal runs
    of consecutive ids, and ``covers`` to the ascending block ids whose union
    is that group's device set.  Device ids within one group must be
    distinct, as in every placed wave entry.
    """

    def __init__(self, groups: Mapping[Hashable, Sequence[int]]) -> None:
        self.runs: dict[Hashable, tuple[tuple[int, int], ...]] = {
            key: device_runs(devices) for key, devices in groups.items()
        }
        runs = self.runs
        self.bounds: list[int] = sorted(
            set(chain.from_iterable(chain.from_iterable(runs.values())))
        )
        bounds = self.bounds
        self.covers: dict[Hashable, tuple[int, ...]] = {
            key: tuple(
                chain.from_iterable(
                    range(bisect_left(bounds, start), bisect_left(bounds, end))
                    for start, end in group_runs
                )
            )
            for key, group_runs in runs.items()
        }

    @classmethod
    def of_plan(cls, plan: ExecutionPlan) -> "DeviceBlocks":
        """The partition of a placed plan, keyed by ``(wave, metaop)``."""
        return cls(
            {
                (wave.index, entry.metaop_index): plan.placement.devices_for(
                    wave.index, entry.metaop_index
                )
                for wave in plan.waves
                for entry in wave.entries
            }
        )

    def devices(self, blocks: Sequence[int]) -> tuple[int, ...]:
        """The device ids of ascending ``blocks``, in ascending order."""
        bounds = self.bounds
        return tuple(chain.from_iterable(range(bounds[b], bounds[b + 1]) for b in blocks))

    def islands(self, cluster: ClusterTopology, blocks: Sequence[int]) -> frozenset[int]:
        """The islands hosting ``blocks``; a block may span islands."""
        bounds = self.bounds
        return cluster.islands_of_runs((bounds[b], bounds[b + 1]) for b in blocks)
