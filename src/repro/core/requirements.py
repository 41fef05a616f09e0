"""User requirements and their partial ordering.

Section 3.3: "The user first lists his IDS requirements in a partial
ordering from least important to most.  Requirements should be stated in
positive form ... the first requirement (least important) should be assigned
the lowest weight (e.g., one).  Other requirements may then be assigned
increasing weights in proportion to their relative importance.  Since the
ordering of requirements is partial, it is acceptable to have duplicate
weights."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from ..errors import WeightingError

__all__ = ["Requirement", "RequirementSet"]


@dataclass(frozen=True)
class Requirement:
    """One positively-stated user requirement.

    Parameters
    ----------
    name / description:
        Identification; ``description`` should be the positive statement
        ("alerts reach the operator within one second").
    weight:
        Importance weight (>= 0 normally; negative weights are allowed for
        explicitly counterproductive features, section 3.1).
    contributes_to:
        Names of catalog metrics this requirement bears on.
    """

    name: str
    description: str
    weight: float
    contributes_to: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.name:
            raise WeightingError("requirement name must be non-empty")


class RequirementSet:
    """An ordered collection of weighted requirements."""

    def __init__(self, name: str, requirements: Sequence[Requirement] = ()) -> None:
        self.name = name
        self._requirements: List[Requirement] = []
        self._names: set = set()
        for req in requirements:
            self.add(req)

    def add(self, requirement: Requirement) -> "RequirementSet":
        if requirement.name in self._names:
            raise WeightingError(f"duplicate requirement {requirement.name!r}")
        self._requirements.append(requirement)
        self._names.add(requirement.name)
        return self

    def __len__(self) -> int:
        return len(self._requirements)

    def __iter__(self) -> Iterator[Requirement]:
        return iter(self._requirements)

    @classmethod
    def from_ordered(
        cls,
        name: str,
        ordered: Sequence[Tuple[str, str, Sequence[str]]],
        base_weight: float = 1.0,
        step: float = 1.0,
    ) -> "RequirementSet":
        """Build from a least-to-most-important list, assigning the
        section-3.3 increasing weights automatically.

        ``ordered`` entries are ``(name, description, metric_names)``;
        the first (least important) gets ``base_weight``, each subsequent
        entry ``step`` more.  Entries may share a position by nesting:
        pass a list of entries in place of a single entry to give them the
        same weight (partial ordering with duplicates).
        """
        reqs: List[Requirement] = []
        weight = base_weight
        for entry in ordered:
            group = entry if isinstance(entry, list) else [entry]
            for req_name, description, metrics in group:
                reqs.append(Requirement(
                    name=req_name, description=description, weight=weight,
                    contributes_to=frozenset(metrics)))
            weight += step
        return cls(name, reqs)

    def contributions(self) -> Dict[str, List[Requirement]]:
        """Metric name -> requirements contributing to it."""
        out: Dict[str, List[Requirement]] = {}
        for req in self._requirements:
            for metric_name in req.contributes_to:
                out.setdefault(metric_name, []).append(req)
        return out
