"""Institutional data distributions: Poisson modeling, skewed synthetic
cohorts, and partition-file ingestion. Below the partition-file reader and
writer an institution is its sample count; sample ids exist only in the file."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateModelError, ParseError, ValidationError
from .params import BlobGeometry, DataShard, blob_geometry, make_blob_shards
from .streams import generators, seed_states

_COUNT_SALT = 7011
_SHARD_SALT = 7012

PARTITION_HEADER = ("Subject_ID", "Partition_ID")

# The largest mean `Generator.poisson` accepts (numpy's POISSON_LAM_MAX).
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


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


def fit_poisson(table: PartitionTable) -> PoissonModel:
    """Maximum-likelihood fit: lam is the mean institution count."""
    mean = table.total / len(table.counts)
    if mean <= 0:
        raise DegenerateModelError("every institution has zero samples")
    return PoissonModel(mean)


class LazyShards(Mapping[str, DataShard]):
    """Read-only institution -> DataShard mapping of a table's synthetic
    shards, which builds a shard on its first lookup and keeps it.

    Institution i of `counts` (in order) has `counts[inst]` samples drawn by
    `make_blob_shards` from the stream of seed row `(seed, _SHARD_SALT, i)`,
    its own. So the order of lookups, and which institutions are never
    looked up, change no shard. A lookup builds one shard from a
    `seed_states` pass of its own. A caller that is about to look up many
    can instead take the `seed_rows` of those not built yet into a
    `seed_states` pass it makes anyway and hand the states to
    `build_seeded`, which builds them all in one `make_blob_shards` call
    from the same streams. Iteration follows `counts`. `geometry` is the
    run's one blob geometry, which its other shards use too.
    """

    def __init__(self, counts: Mapping[str, int], seed: int, geometry: BlobGeometry):
        self._counts = counts
        self._index = {inst: i for i, inst in enumerate(counts)}
        self._seed = seed
        self.geometry = geometry
        self._built: dict[str, DataShard] = {}

    def __getitem__(self, inst: str) -> DataShard:
        if inst not in self._built:
            new, rows = self.seed_rows([inst])
            self.build_seeded(new, seed_states(rows))
        return self._built[inst]

    def seed_rows(self, insts: Iterable[str]) -> tuple[list[str], list[tuple[int, ...]]]:
        """The institutions of `insts` whose shards are not built yet, and
        the seed rows of their streams."""
        pending = [inst for inst in insts if inst not in self._built]
        return pending, [(self._seed, _SHARD_SALT, self._index[inst]) for inst in pending]

    def build_seeded(self, insts: Sequence[str], states: np.ndarray) -> None:
        """Build the shards of `insts`, given `seed_states` of their `seed_rows`."""
        if len(insts) != len(states):
            raise ValueError(f"{len(insts)} institutions but {len(states)} seed states")
        sizes = [self._counts[inst] for inst in insts]
        self._built.update(zip(insts, make_blob_shards(sizes, self.geometry, generators(states))))

    def __contains__(self, inst) -> bool:
        # Mapping's default would look the key up, building its shard.
        return inst in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@dataclass(frozen=True)
class CohortSpec:
    """Synthetic cohort parameters: Poisson(mean_samples) counts, the last
    `n_outliers` of them drawn at `mean_samples * outlier_scale`."""

    n_institutions: int = 23
    mean_samples: float = 30.0
    n_outliers: int = 3
    outlier_scale: float = 10.0

    def __post_init__(self):
        if self.n_institutions < 1:
            raise ValidationError("n_institutions must be >= 1")
        if not 0 <= self.n_outliers < self.n_institutions:
            raise ValidationError("n_outliers must be in [0, n_institutions)")
        if not (math.isfinite(self.mean_samples) and self.mean_samples > 0):
            raise ValidationError("mean_samples must be a positive finite real")
        if not (math.isfinite(self.outlier_scale) and self.outlier_scale >= 1):
            raise ValidationError("outlier_scale must be finite and >= 1")
        # The outliers' mean too whatever n_outliers is: numpy refuses it even for zero draws.
        outlier_mean = self.mean_samples * self.outlier_scale
        for name, mean in (("mean_samples", self.mean_samples), ("mean_samples * outlier_scale", outlier_mean)):
            if mean > _POISSON_LAM_MAX:
                raise ValidationError(f"{name} must be at most {_POISSON_LAM_MAX!r}, numpy's Poisson limit")


def generate_synthetic_cohort(
    n_institutions: int,
    mean_samples: float,
    n_outliers: int,
    outlier_scale: float,
    seed: int,
    n_classes: int = 4,
    feature_dim: int = 8,
) -> tuple[PartitionTable, LazyShards]:
    """Draw a skewed cohort, checked as a `CohortSpec`: Poisson counts plus a few large outliers.

    Counts drawn as zero are clamped to 1 so every institution can
    participate. Deterministic under `seed`. Shards are built on first
    lookup, each from its own stream keyed by the institution's position,
    so building some or none of them changes no other.
    """
    CohortSpec(n_institutions, mean_samples, n_outliers, outlier_scale)
    # The stream of seed row `(seed, _COUNT_SALT)`, seeded as the shards' streams are.
    rng = next(generators(seed_states([(seed, _COUNT_SALT)])))
    regular = rng.poisson(mean_samples, size=n_institutions - n_outliers)
    outliers = rng.poisson(mean_samples * outlier_scale, size=n_outliers)
    counts = np.maximum(np.concatenate([regular, outliers]), 1).astype(int)
    table = PartitionTable({f"inst{i:03d}": c for i, c in enumerate(counts.tolist())})
    return table, synthesize_shards(table, seed, n_classes, feature_dim)


def synthesize_shards(
    table: PartitionTable,
    seed: int,
    n_classes: int = 4,
    feature_dim: int = 8,
) -> LazyShards:
    """Synthesize features and labels for a table; only its counts are real.

    Each shard is built when it is first looked up, or when the engine
    builds a round's new shards in its one seeding pass, from its own
    stream (see `LazyShards`), so institutions that never take part cost
    nothing.
    """
    geometry = blob_geometry(n_classes, feature_dim, seed)
    # An institution with no samples can never get a shard: fail here, not
    # at its first lookup mid-run.
    if not all(table.counts.values()):
        raise ValidationError("a shard needs at least one sample")
    return LazyShards(table.counts, seed, geometry)


def load_partition_csv(path) -> PartitionTable:
    """Count `Subject_ID,Partition_ID` rows per partition id, in order of each
    partition's first row; every row is checked, subject ids are not kept."""
    try:
        # utf-8-sig also reads a file saved with a byte-order mark, as
        # spreadsheet programs save "CSV UTF-8".
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != PARTITION_HEADER:
                raise ParseError(f"expected header {','.join(PARTITION_HEADER)}", line=1, path=path)
            counts: dict[str, int] = {}
            seen: set[str] = set()
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ParseError(f"expected 2 columns, got {len(row)}", line=lineno, path=path)
                subject, partition = row[0].strip(), row[1].strip()
                if not subject:
                    raise ParseError("missing subject id", line=lineno, path=path)
                if not partition:
                    raise ParseError("missing partition id", line=lineno, path=path)
                if subject in seen:
                    raise ParseError(f"duplicate subject id {subject!r}", line=lineno, path=path)
                seen.add(subject)
                counts[partition] = counts.get(partition, 0) + 1
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    if not counts:
        raise ParseError("no data rows", path=path)
    return PartitionTable(counts)
