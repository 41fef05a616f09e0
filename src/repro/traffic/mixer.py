"""Scenario assembly: background traffic + labeled attacks -> canned trace.

:class:`ScenarioBuilder` produces a :class:`Scenario`: one merged,
time-ordered trace plus the ground-truth attack records -- the "canned data
with known attack content" the paper replays to observe false-negative
ratios (lesson 2, section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


from ..attacks.base import Attack, AttackRecord
from ..errors import ConfigurationError
from ..net.trace import Trace
from ..sim.rng import RngRegistry
from .profiles import TrafficProfile

__all__ = ["Scenario", "ScenarioBuilder"]


@dataclass
class Scenario:
    """A fully assembled, ground-truth-labeled evaluation scenario."""

    name: str
    trace: Trace
    attacks: List[AttackRecord]
    duration_s: float
    seed: int

    @property
    def attack_ids(self) -> set:
        return {a.attack_id for a in self.attacks}

    def summary(self) -> str:
        lines = [
            f"Scenario {self.name!r}: {len(self.trace)} packets over "
            f"{self.duration_s:.1f}s ({self.trace.total_bytes / 1e6:.2f} MB), "
            f"{len(self.attacks)} attack instances, seed={self.seed}",
        ]
        for rec in self.attacks:
            novel = " [novel]" if rec.novel else ""
            lines.append(
                f"  {rec.attack_id:28s} {rec.kind.value:12s} "
                f"t={rec.start:6.1f}..{rec.end:6.1f}  {rec.packets:6d} pkts"
                f"{novel}  {rec.description}")
        return "\n".join(lines)


class ScenarioBuilder:
    """Compose background profiles and attacks into one scenario.

    Examples
    --------
    >>> from repro.net.address import Subnet
    >>> from repro.traffic.profiles import ClusterProfile
    >>> from repro.attacks.scans import PortScan
    >>> from repro.net.address import IPv4Address
    >>> sub = Subnet("10.0.0.0/24")
    >>> nodes = list(sub.hosts(4))
    >>> b = ScenarioBuilder("demo", duration_s=10.0, seed=7)
    >>> _ = b.add_background(ClusterProfile(nodes))
    >>> _ = b.add_attack(2.0, PortScan(IPv4Address("198.18.0.9"), nodes[0],
    ...                                ports=range(1, 50)))
    >>> sc = b.build()
    >>> len(sc.attacks)
    1
    """

    def __init__(self, name: str, duration_s: float, seed: int = 0) -> None:
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        self.name = name
        self.duration_s = float(duration_s)
        self.seed = int(seed)
        self._rng = RngRegistry(seed)
        self._backgrounds: List[TrafficProfile] = []
        self._attacks: List[Tuple[float, Attack]] = []

    def add_background(self, profile: TrafficProfile) -> "ScenarioBuilder":
        self._backgrounds.append(profile)
        return self

    def add_attack(self, start_s: float, attack: Attack) -> "ScenarioBuilder":
        if start_s < 0:
            raise ConfigurationError("attack start must be >= 0")
        if start_s > self.duration_s:
            raise ConfigurationError(
                f"attack start {start_s} beyond scenario duration {self.duration_s}")
        self._attacks.append((float(start_s), attack))
        return self

    def add_attacks(self, suite: Sequence[Tuple[float, Attack]]) -> "ScenarioBuilder":
        for start, attack in suite:
            self.add_attack(start, attack)
        return self

    def build(self) -> Scenario:
        traces: List[Trace] = []
        for i, profile in enumerate(self._backgrounds):
            rng = self._rng.stream(f"background.{i}.{profile.name}")
            traces.append(profile.generate(self.duration_s, rng))
        # Renumber attack ids scenario-locally (first portscan added is
        # always "portscan-1", ...).  The instance-counter default id is
        # process-global, which would make otherwise-identical scenarios
        # built in different processes (or after unrelated scenarios in the
        # same process) label their ground truth differently -- breaking
        # the bit-identical guarantee of the parallel/cached harness.
        tag_counts: dict = {}
        for _, attack in self._attacks:
            tag = type(attack).__name__.lower()
            tag_counts[tag] = tag_counts.get(tag, 0) + 1
            attack.attack_id = f"{tag}-{tag_counts[tag]}"
        records: List[AttackRecord] = []
        for j, (start, attack) in enumerate(self._attacks):
            rng = self._rng.stream(f"attack.{j}.{type(attack).__name__}")
            trace, record = attack.generate(start, rng)
            traces.append(trace)
            records.append(record)
        merged = Trace.merge(traces, name=self.name)
        records.sort(key=lambda r: r.start)
        return Scenario(
            name=self.name,
            trace=merged,
            attacks=records,
            duration_s=self.duration_s,
            seed=self.seed,
        )
