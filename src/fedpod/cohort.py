"""Institutional data distributions: Poisson modeling, skewed synthetic
cohorts, and partition-file ingestion. Below the partition-file reader and
writer an institution is its sample count; sample ids exist only in the file."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import DegenerateModelError, ParseError, ValidationError
from .params import DataShard, blob_geometry, make_blob_shard

_COUNT_SALT = 7011
_SHARD_SALT = 7012

PARTITION_HEADER = ("Subject_ID", "Partition_ID")


@dataclass(frozen=True)
class PartitionTable:
    """Read-only sample count per institution, in ingest order; an
    institution's position keys its shard's RNG stream."""

    counts: Mapping[str, int]

    def __post_init__(self):
        counts = dict(self.counts)
        if not counts:
            raise ValidationError("a cohort needs at least one institution")
        if any(type(count) is not int or count < 0 for count in counts.values()):
            raise ValidationError("counts must be non-negative ints")
        object.__setattr__(self, "counts", MappingProxyType(counts))

    @property
    def total(self) -> int:
        return sum(self.counts.values())


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
    mean = table.total / len(table.counts)
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
    counts: Mapping[str, int],
    seed: int,
    n_classes: int,
    feature_dim: int,
) -> LazyShards:
    """Institution i of `counts` (in order) draws its shard of `counts[inst]`
    samples from `default_rng([seed, _SHARD_SALT, i])`."""
    geometry = blob_geometry(n_classes, feature_dim, seed)
    # An institution with no samples can never get a shard: fail here, not
    # at its first lookup mid-run.
    if not all(counts.values()):
        raise ValidationError("a shard needs at least one sample")

    def build(inst: str, idx: int) -> DataShard:
        return make_blob_shard(counts[inst], geometry, np.random.default_rng([seed, _SHARD_SALT, idx]))

    return LazyShards({inst: idx for idx, inst in enumerate(counts)}, build)


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
    table = PartitionTable({f"inst{i:03d}": c for i, c in enumerate(counts.tolist())})
    return table, _lazy_blob_shards(table.counts, seed, n_classes, feature_dim)


def synthesize_shards(
    table: PartitionTable,
    seed: int,
    n_classes: int = 4,
    feature_dim: int = 8,
) -> LazyShards:
    """Synthesize features and labels for an ingested table; only its counts are real.

    A shard is built on its first lookup, from its own stream keyed by the
    institution's position in `table.counts`, so institutions that are
    never looked up cost nothing.
    """
    return _lazy_blob_shards(table.counts, seed, n_classes, feature_dim)


def load_partition_csv(path) -> PartitionTable:
    """Count `Subject_ID,Partition_ID` rows per partition id, in order of each
    partition's first row; every row is checked, subject ids are not kept."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != PARTITION_HEADER:
            raise ParseError(f"expected header {','.join(PARTITION_HEADER)}", line=1)
        counts: dict[str, int] = {}
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
            counts[partition] = counts.get(partition, 0) + 1
    if not counts:
        raise ParseError("no data rows")
    return PartitionTable(counts)
