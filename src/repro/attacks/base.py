"""Attack base classes and ground-truth records.

Every attack instance has a unique ``attack_id`` stamped onto every packet it
emits.  The evaluation harness uses those stamps (never visible to products
under test) to build the Figure-3 sets: A = actual intrusions, D = detected
intrusions, T = transactions.

The paper notes that "even the definition of an attack is not always clear"
(one classifier's single attack is another's several).  We resolve this the
way the paper's testbed did: the *attack instance* (one scripted campaign,
e.g. one port scan of one target) is the unit of ground truth, regardless of
how many packets or alerts it produces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..net.trace import Trace

__all__ = ["AttackKind", "AttackRecord", "Attack"]


class AttackKind(enum.Enum):
    """Taxonomy of the attack library, following the threat discussion in
    section 2 of the paper (external attacks, insider misuse, tunneling)."""

    PROBE = "probe"              # reconnaissance: scans, sweeps
    DOS = "dos"                  # resource exhaustion: floods
    BRUTE_FORCE = "brute-force"  # credential guessing (masquerade)
    EXPLOIT = "exploit"          # payload-borne compromise attempts
    INSIDER = "insider"          # misuse of inter-host trust from within
    TUNNEL = "tunnel"            # exfiltration through benign protocols


@dataclass
class AttackRecord:
    """Ground-truth summary of one attack instance inside a scenario."""

    attack_id: str
    kind: AttackKind
    start: float
    end: float
    packets: int
    description: str = ""
    #: whether the attack is "novel" (no signature exists for it); used to
    #: contrast signature- vs anomaly-based detection (section 2.1)
    novel: bool = False


class Attack:
    """Base class for attack generators.

    Subclasses implement :meth:`_emit` returning ``(time, Packet)`` records
    relative to t=0; :meth:`generate` shifts them to the requested start time,
    stamps ids, and produces both the trace and the ground-truth record.

    Class attributes
    ----------------
    kind:
        :class:`AttackKind` of the subclass.
    novel:
        True when no signature for this attack exists in the shipped rule
        sets (anomaly-only detectability).
    """

    kind: AttackKind = AttackKind.PROBE
    novel: bool = False
    _instance_counter = 0

    def __init__(self, description: str = "") -> None:
        type(self)._instance_counter += 1
        cls_tag = type(self).__name__.lower()
        self.attack_id = f"{cls_tag}-{type(self)._instance_counter}"
        self.description = description or cls_tag

    # ------------------------------------------------------------------
    def _emit(self, rng: np.random.Generator) -> Sequence[tuple]:
        """Return ``[(relative_time, Packet), ...]`` for one instance."""
        raise NotImplementedError

    def generate(
        self,
        start: float,
        rng: np.random.Generator,
    ) -> tuple[Trace, AttackRecord]:
        """Produce the labeled packet trace and ground-truth record."""
        records = sorted(self._emit(rng), key=lambda r: r[0])
        trace = Trace(self.attack_id)
        last = start
        for rel_t, pkt in records:
            pkt.attack_id = self.attack_id
            t = start + float(rel_t)
            trace.append(t, pkt)
            last = t
        record = AttackRecord(
            attack_id=self.attack_id,
            kind=self.kind,
            start=start,
            end=last,
            packets=len(trace),
            description=self.description,
            novel=self.novel,
        )
        return trace, record
