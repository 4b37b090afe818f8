"""Institutional data distributions: Poisson modeling, skewed synthetic
cohorts, and partition-file ingestion. Below the partition-file reader and
writer an institution is its sample count; sample ids exist only in the file
(the reader keeps 8-byte hashes of them), and its features and labels only in
the shard the engine draws for it. A plain file is counted in whole-text
passes, any other by a `csv.reader` row walk, the only ingest code that raises."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DegenerateModelError, ParseError, ValidationError
from .params import BlobGeometry, blob_geometry

_COUNT_SALT = 7011

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
) -> tuple[PartitionTable, BlobGeometry]:
    """Draw a skewed cohort, checked as a `CohortSpec`: Poisson counts plus a
    few large outliers, and the blob geometry its shards are drawn from.

    Counts drawn as zero are clamped to 1 so every institution can
    participate. Deterministic under `seed`.
    """
    CohortSpec(n_institutions, mean_samples, n_outliers, outlier_scale)
    rng = np.random.default_rng([seed, _COUNT_SALT])
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
) -> BlobGeometry:
    """The blob geometry of a table's synthetic shards; only its counts are real.

    The engine builds an institution's shard from this geometry when the
    institution first takes part, so institutions that never take part cost
    nothing. The name is kept, though no shard is built here, because the
    benchmark's tracer wraps `engine.synthesize_shards` as cohort build time.
    """
    geometry = blob_geometry(n_classes, feature_dim, seed)
    # An institution with no samples can never get a shard: fail here, not
    # when it first takes part mid-run.
    if not all(table.counts.values()):
        raise ValidationError("a shard needs at least one sample")
    return geometry


def load_partition_csv(path) -> PartitionTable:
    """Count `Subject_ID,Partition_ID` rows per partition id, in order of each
    partition's first row; every row is checked, subject ids kept only as hashes.

    Chunks of lines are counted in whole-text passes while splitting on
    newlines and commas reads what `csv.reader` reads (no `"`, no NUL, no chunk
    over `csv.field_size_limit()`), every row check passes and no two subject
    ids hash equal. Otherwise the row walk below reads the file from its start.
    It alone raises, so each error keeps its message, line and precedence."""
    if plain := _count_plain_rows(path):
        return PartitionTable(plain)
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
            # A row's errors name its first physical line; a quoted field may hold a newline.
            last = reader.line_num
            for row in reader:
                lineno, last = last + 1, reader.line_num
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
    except csv.Error as exc:  # on the line being read: a field over the limit, or a NUL before Python 3.11
        raise ParseError(str(exc), line=reader.line_num, path=path) from None
    if not counts:
        raise ParseError("no data rows", path=path)
    return PartitionTable(counts)


def _count_plain_rows(path) -> Counter[str] | None:
    """A plain partition file's counts, or None where the row walk must read it,
    as it must where two subject ids share a hash (equal ids always do)."""
    counts, hashes = Counter(), []
    try:
        # Universal newlines end a line at LF, CRLF or a lone CR, as csv does.
        with open(path, encoding="utf-8-sig") as fh:
            if tuple(map(str.strip, fh.readline().split(","))) != PARTITION_HEADER:
                return None
            # Whole lines in chunks of about 16K characters: larger chunks raise peak RSS.
            for text in iter(lambda: fh.read(1 << 14) + fh.readline(), ""):
                rows = list(filter(None, text.split("\n")))  # csv skips blank lines
                splittable = '"' not in text and "\0" not in text and len(text) <= csv.field_size_limit()
                if not splittable or text.count(",") != len(rows) or not all(map(str.__contains__, rows, repeat(","))):
                    return None
                fields = list(map(str.strip, ",".join(rows).split(",")))
                if not all(fields):
                    return None
                hashes.append(np.fromiter(map(hash, fields[::2]), np.int64, len(rows)))
                counts.update(fields[1::2])
    except UnicodeDecodeError:
        return None
    (column := np.concatenate([np.empty(0, np.int64), *hashes])).sort()
    return None if (column[1:] == column[:-1]).any() else counts
