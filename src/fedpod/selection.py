"""Primary/secondary node classification and per-round task plans.

Institutions at or above the Poisson upper bound lam + z*sqrt(lam) are
primary and participate every round, supplying a capped quota drawn as a
rotating window over their holdings. The rest are secondary and are sampled
randomly per round, supplying everything they hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .cohort import PartitionTable, PoissonModel
from .errors import EmptyCohortError, ValidationError

if TYPE_CHECKING:
    from .engine import PhaseEntry

ROLE_PRIMARY = "primary"
ROLE_SECONDARY = "secondary"


@dataclass(frozen=True)
class NodeClassification:
    """Disjoint cover of the cohort, ordered by descending count."""

    primary: tuple[str, ...]
    secondary: tuple[str, ...]
    threshold: float

    @cached_property
    def secondary_set(self) -> frozenset[str]:
        return frozenset(self.secondary)


@dataclass(frozen=True, slots=True)
class TaskParticipant:
    institution_id: str
    role: str
    quota: int
    shard_offset: int


@dataclass(frozen=True)
class TaskPlan:
    """One round's participant set with per-node data quotas; a shortfall
    flag means fewer eligible nodes of that role than the phase asks for."""

    participants: tuple[TaskParticipant, ...]
    secondary_shortfall: bool = False
    primary_shortfall: bool = False

    def __post_init__(self):
        ids = [p.institution_id for p in self.participants]
        if len(ids) != len(set(ids)):
            raise ValidationError("duplicate institution in one plan")

    def node_ids(self) -> tuple[str, ...]:
        return tuple(p.institution_id for p in self.participants)


def upper_bound(lam: float, z: float) -> float:
    """Participation threshold lam + z*sqrt(lam)."""
    if not lam > 0:
        raise ValidationError("lam must be positive")
    # A NaN threshold would put every institution in neither set.
    if not math.isfinite(z):
        raise ValidationError("z must be finite")
    return lam + z * math.sqrt(lam)


def classify_nodes(table: PartitionTable, model: PoissonModel, z: float) -> NodeClassification:
    """Split institutions by count against the upper bound.

    Within each set, order is by descending count with ties broken by id.
    """
    threshold = upper_bound(model.lam, z)
    ordered = sorted(table.counts.items(), key=lambda item: (-item[1], item[0]))
    primary = tuple(inst for inst, count in ordered if count >= threshold)
    secondary = tuple(inst for inst, count in ordered if count < threshold)
    return NodeClassification(primary, secondary, threshold)


def primary_quota(lam: float, margin_fraction: float, holdings: int) -> int:
    """Per-round supply cap: round(lam) held inside lam*(1 +/- margin),
    then clamped to what the node actually holds."""
    capped = min(max(float(round(lam)), lam * (1.0 - margin_fraction)), lam * (1.0 + margin_fraction))
    return max(1, min(holdings, int(round(capped))))


def compose_task(
    round_index: int,
    classification: NodeClassification,
    schedule_entry: "PhaseEntry | None",
    lam: float,
    margin_fraction: float,
    table: PartitionTable,
    blacklist: frozenset[str] = frozenset(),
    rng_seed: int = 0,
    offsets: Mapping[str, int] | None = None,
) -> TaskPlan:
    """Compose one round's plan.

    All available primaries participate (clamped to the schedule's count);
    secondaries are drawn uniformly without replacement from whoever is not
    blacklisted. The secondary draw is keyed by (rng_seed, round_index) so a
    substitution in one round never perturbs another round's draw.

    With no schedule entry (`participation = all`) every node not
    blacklisted takes part on its whole shard, primaries first.
    """
    if round_index < 1:
        raise ValidationError("round_index must be >= 1")
    if not 0 <= margin_fraction < 1:
        raise ValidationError("margin_fraction must be in [0, 1)")
    if not lam > 0:
        raise ValidationError("lam must be positive")
    offsets = offsets or {}
    counts = table.counts
    if schedule_entry is None:
        return TaskPlan(
            tuple(
                TaskParticipant(inst, role, counts[inst], 0)
                for role, group in ((ROLE_PRIMARY, classification.primary), (ROLE_SECONDARY, classification.secondary))
                for inst in group
                if inst not in blacklist
            ),
        )

    if not classification.primary:
        raise EmptyCohortError(f"round {round_index}: the cohort has no primary institution")
    # A round whose primaries all sit out on the blacklist trains its
    # secondaries alone, with `primary_shortfall` set.
    eligible_primary = [inst for inst in classification.primary if inst not in blacklist]
    chosen_primary = eligible_primary[: schedule_entry.n_primary]

    participants = []
    for inst in chosen_primary:
        quota = primary_quota(lam, margin_fraction, counts[inst])
        offset = offsets.get(inst, 0) % counts[inst]
        participants.append(TaskParticipant(inst, ROLE_PRIMARY, quota, offset))

    secondary = classification.secondary
    # The blacklist holds at most one round's drops, so count from its side.
    n_eligible = len(secondary) - len(blacklist & classification.secondary_set)
    n_wanted = schedule_entry.n_secondary
    shortfall = n_eligible < n_wanted
    n_take = min(n_wanted, n_eligible)
    if n_take:
        # One permutation of the full secondary list per round: a blacklisted
        # node is skipped and the next candidate steps in, leaving everyone
        # else's selection untouched.
        rng = np.random.default_rng([rng_seed, round_index])
        chosen = []
        for j in rng.permutation(len(secondary)):
            if secondary[j] not in blacklist:
                chosen.append(j)
                if len(chosen) == n_take:
                    break
        for j in sorted(chosen):
            participants.append(TaskParticipant(secondary[j], ROLE_SECONDARY, counts[secondary[j]], 0))

    if not participants:
        raise EmptyCohortError(f"round {round_index}: no eligible institutions")
    return TaskPlan(tuple(participants), shortfall, len(eligible_primary) < schedule_entry.n_primary)
