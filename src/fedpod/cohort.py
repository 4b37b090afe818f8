"""Institutional data distributions: Poisson modeling, skewed synthetic
cohorts, and partition-file ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateModelError, ParseError, ValidationError
from .params import DataShard, blob_geometry, make_blob_shard

_COUNT_SALT = 7011
_SHARD_SALT = 7012

PARTITION_HEADER = ("Subject_ID", "Partition_ID")


@dataclass(frozen=True)
class InstitutionEntry:
    count: int
    sample_ids: tuple[str, ...]


@dataclass(frozen=True)
class PartitionTable:
    """Sample holdings per institution; sample ids are globally unique."""

    entries: dict[str, InstitutionEntry]
    total: int

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("a cohort needs at least one institution")
        id_lists = [entry.sample_ids for entry in self.entries.values()]
        # Uniqueness in one C-level pass; the ids are walked one by one only
        # when there is a duplicate to name.
        unique = len(set(chain.from_iterable(id_lists))) == sum(map(len, id_lists))
        seen: set[str] = set()
        counts: dict[str, int] = {}
        for inst, entry in self.entries.items():
            if entry.count != len(entry.sample_ids):
                raise ValidationError(f"count mismatch for institution {inst!r}")
            if entry.count < 0:
                raise ValidationError("counts must be non-negative")
            if not unique:
                for sid in entry.sample_ids:
                    if sid in seen:
                        raise ValidationError(f"duplicate sample id {sid!r}")
                    seen.add(sid)
            counts[inst] = entry.count
        total = sum(counts.values())
        if total != self.total:
            raise ValidationError(f"total {self.total} != sum of counts {total}")
        object.__setattr__(self, "_counts", MappingProxyType(counts))

    @staticmethod
    def from_sample_ids(mapping: Mapping[str, Sequence[str]]) -> PartitionTable:
        """Build a table from institution -> sample-id lists.

        Sample order is normalized to sorted, which makes the CSV writer's
        output a lossless round trip.
        """
        entries = {
            inst: InstitutionEntry(len(ids), tuple(sorted(ids)))
            for inst, ids in mapping.items()
        }
        return PartitionTable(entries, sum(e.count for e in entries.values()))

    def counts(self) -> Mapping[str, int]:
        """Read-only institution -> sample count, computed once at construction."""
        return self._counts

    def institutions(self) -> tuple[str, ...]:
        return tuple(self.entries)


@dataclass(frozen=True)
class PoissonModel:
    """Fitted mean sample count per institution."""

    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValidationError("lam must be a positive finite real")


def poisson_pmf(x: int, lam: float) -> float:
    """P[X = x] for X ~ Poisson(lam), evaluated in log space."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValidationError("lam must be a positive finite real")
    if x != int(x) or x < 0:
        raise ValidationError("x must be a non-negative integer")
    x = int(x)
    return math.exp(x * math.log(lam) - lam - math.lgamma(x + 1))


def fit_poisson(table: PartitionTable) -> PoissonModel:
    """Maximum-likelihood fit: lam is the mean institution count."""
    counts = table.counts()
    mean = sum(counts.values()) / len(counts)
    if mean <= 0:
        raise DegenerateModelError("every institution has zero samples")
    return PoissonModel(mean)


class LazyShards(Mapping[str, DataShard]):
    """Read-only institution -> DataShard mapping that builds a shard on its
    first lookup, as `build(institution, index[institution])`, and keeps it.

    Iteration follows `index`. Each shard comes from its own RNG stream, so
    the order of lookups, and which institutions are never looked up,
    change no shard.
    """

    def __init__(self, index: Mapping[str, int], build: Callable[[str, int], DataShard]):
        self._index = index
        self._build = build
        self._built: dict[str, DataShard] = {}

    def __getitem__(self, inst: str) -> DataShard:
        shard = self._built.get(inst)
        if shard is None:
            shard = self._built[inst] = self._build(inst, self._index[inst])
        return shard

    def __contains__(self, inst) -> bool:
        # Mapping's default would look the key up, building its shard.
        return inst in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def _lazy_blob_shards(
    sample_ids: Mapping[str, Sequence[str]],
    seed: int,
    n_classes: int,
    feature_dim: int,
) -> LazyShards:
    """Institution i of `sample_ids` (in order) draws its shard from
    `default_rng([seed, _SHARD_SALT, i])`."""
    geometry = blob_geometry(n_classes, feature_dim, seed)
    # An institution with no samples can never get a shard: fail here, not
    # at its first lookup mid-run.
    if any(not ids for ids in sample_ids.values()):
        raise ValidationError("a shard needs at least one sample")

    def build(inst: str, idx: int) -> DataShard:
        return make_blob_shard(sample_ids[inst], geometry, np.random.default_rng([seed, _SHARD_SALT, idx]))

    return LazyShards({inst: idx for idx, inst in enumerate(sample_ids)}, build)


def generate_synthetic_cohort(
    n_institutions: int,
    lam: float,
    n_outliers: int,
    outlier_scale: float,
    seed: int,
    n_classes: int = 4,
    feature_dim: int = 8,
) -> tuple[PartitionTable, LazyShards]:
    """Draw a skewed cohort: Poisson(lam) counts plus a few large outliers.

    Counts drawn as zero are clamped to 1 so every institution can
    participate. Deterministic under `seed`. Shards are built on first
    lookup, each from its own stream keyed by the institution's position,
    so building some or none of them changes no other.
    """
    if n_institutions < 1:
        raise ValidationError("need at least one institution")
    if not 0 <= n_outliers < n_institutions:
        raise ValidationError("n_outliers must be in [0, n_institutions)")
    if not lam > 0:
        raise ValidationError("lam must be positive")
    if outlier_scale < 1:
        raise ValidationError("outlier_scale must be >= 1")
    rng = np.random.default_rng([seed, _COUNT_SALT])
    regular = rng.poisson(lam, size=n_institutions - n_outliers)
    outliers = rng.poisson(lam * outlier_scale, size=n_outliers)
    counts = np.maximum(np.concatenate([regular, outliers]), 1).astype(int)
    sample_ids = {
        f"inst{i:03d}": [f"inst{i:03d}-s{k:05d}" for k in range(c)] for i, c in enumerate(counts.tolist())
    }
    return PartitionTable.from_sample_ids(sample_ids), _lazy_blob_shards(sample_ids, seed, n_classes, feature_dim)


def synthesize_shards(
    table: PartitionTable,
    seed: int,
    n_classes: int = 4,
    feature_dim: int = 8,
) -> LazyShards:
    """Synthesize features for an ingested table; only ids and counts are real.

    A shard is built on its first lookup, from its own stream keyed by the
    institution's position in `table.entries`, so institutions that are
    never looked up cost nothing.
    """
    sample_ids = {inst: entry.sample_ids for inst, entry in table.entries.items()}
    return _lazy_blob_shards(sample_ids, seed, n_classes, feature_dim)


def load_partition_csv(path) -> PartitionTable:
    """Parse `Subject_ID,Partition_ID` rows grouped by partition id."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != PARTITION_HEADER:
            raise ParseError(f"expected header {','.join(PARTITION_HEADER)}", line=1)
        groups: dict[str, list[str]] = {}
        seen: set[str] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 columns, got {len(row)}", line=lineno)
            subject, partition = row[0].strip(), row[1].strip()
            if not subject:
                raise ParseError("missing subject id", line=lineno)
            if not partition:
                raise ParseError("missing partition id", line=lineno)
            if subject in seen:
                raise ParseError(f"duplicate subject id {subject!r}", line=lineno)
            seen.add(subject)
            groups.setdefault(partition, []).append(subject)
    if not groups:
        raise ParseError("no data rows")
    return PartitionTable.from_sample_ids(groups)
