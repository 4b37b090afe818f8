import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedpod
from fedpod.cli import write_partition_csv
from fedpod.cohort import (
    _POISSON_LAM_MAX,
    _SHARD_SALT,
    CohortSpec,
    PartitionTable,
    PoissonModel,
    fit_poisson,
    generate_synthetic_cohort,
    load_partition_csv,
    synthesize_shards,
)
from fedpod.errors import DegenerateModelError, ParseError, ValidationError
from fedpod.params import blob_geometry, make_blob_shard
from fedpod.streams import seed_states


def table_from_counts(counts):
    return PartitionTable({f"inst{i}": c for i, c in enumerate(counts)})


# ---------------------------------------------------------------- fitting


def test_fit_single_institution():
    assert fit_poisson(table_from_counts([4])).lam == 4.0


def test_fit_is_mean():
    assert fit_poisson(table_from_counts([2, 4, 6])).lam == 4.0


def test_fit_skewed_cohort():
    assert fit_poisson(table_from_counts([1, 1, 1, 97])).lam == 25.0


def test_fit_all_zero_counts_is_degenerate():
    with pytest.raises(DegenerateModelError):
        fit_poisson(table_from_counts([0, 0]))


def test_poisson_model_requires_positive_lambda():
    with pytest.raises(ValidationError):
        PoissonModel(0.0)


# ---------------------------------------------------------------- table


def test_table_validates_counts():
    with pytest.raises(ValidationError, match="at least one institution"):
        PartitionTable({})
    for bad in (-1, 2.0, True, np.int64(3)):
        with pytest.raises(ValidationError, match="non-negative ints"):
            PartitionTable({"a": 1, "b": bad})


def test_table_counts_and_total():
    source = {"inst1": 5, "inst0": 3}
    table = PartitionTable(source)
    source["inst2"] = 4
    assert list(table.counts) == ["inst1", "inst0"]
    assert table.counts == {"inst0": 3, "inst1": 5}
    assert table.total == 8
    with pytest.raises(TypeError):
        table.counts["inst0"] = 1


# ---------------------------------------------------------------- generator


def test_generator_is_deterministic():
    a_table, a_shards = generate_synthetic_cohort(6, 12.0, 1, 5.0, seed=99)
    b_table, b_shards = generate_synthetic_cohort(6, 12.0, 1, 5.0, seed=99)
    assert a_table == b_table
    for inst in a_shards:
        assert np.array_equal(a_shards[inst].features, b_shards[inst].features)


def test_generator_single_institution():
    table, shards = generate_synthetic_cohort(1, 3.0, 0, 1.0, seed=0)
    (count,) = table.counts.values()
    assert count >= 1
    assert len(shards) == 1


def test_generator_shards_align_with_table():
    table, shards = generate_synthetic_cohort(5, 8.0, 1, 4.0, seed=2)
    assert list(table.counts) == [f"inst{i:03d}" for i in range(5)]
    for inst, count in table.counts.items():
        assert len(shards[inst]) == count


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        generate_synthetic_cohort(3, 5.0, 3, 2.0, seed=0)
    with pytest.raises(ValidationError):
        generate_synthetic_cohort(3, 0.0, 0, 2.0, seed=0)
    with pytest.raises(ValidationError):
        generate_synthetic_cohort(3, 5.0, 0, 0.5, seed=0)


@pytest.mark.parametrize(
    ("mean_samples", "outlier_scale", "message"),
    [
        (float("inf"), 10.0, "mean_samples must be a positive finite real"),
        (float("nan"), 10.0, "mean_samples must be a positive finite real"),
        (30.0, float("nan"), "outlier_scale must be finite and >= 1"),
        (30.0, float("inf"), "outlier_scale must be finite and >= 1"),
    ],
)
def test_generate_rejects_a_non_finite_mean_or_scale(mean_samples, outlier_scale, message):
    with pytest.raises(ValidationError) as caught:
        generate_synthetic_cohort(5, mean_samples, 1, outlier_scale, seed=0)
    assert str(caught.value) == message


_TOO_LARGE = f"must be at most {_POISSON_LAM_MAX!r}, numpy's Poisson limit"


@pytest.mark.parametrize(
    ("mean_samples", "n_outliers", "outlier_scale", "message"),
    [
        (9.3e18, 1, 1.0, f"mean_samples {_TOO_LARGE}"),
        (1e18, 1, 100.0, f"mean_samples * outlier_scale {_TOO_LARGE}"),
        # numpy refuses the outliers' mean even for zero draws.
        (1e18, 0, 100.0, f"mean_samples * outlier_scale {_TOO_LARGE}"),
    ],
)
def test_cohort_spec_rejects_a_mean_numpy_cannot_draw(mean_samples, n_outliers, outlier_scale, message):
    with pytest.raises(ValidationError) as caught:
        CohortSpec(5, mean_samples, n_outliers, outlier_scale)
    assert str(caught.value) == message
    with pytest.raises(ValidationError) as caught:
        generate_synthetic_cohort(5, mean_samples, n_outliers, outlier_scale, seed=0)
    assert str(caught.value) == message


def test_poisson_limit_is_numpys():
    rng = np.random.default_rng(0)
    assert rng.poisson(_POISSON_LAM_MAX, size=1) > 0
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(_POISSON_LAM_MAX, np.inf), size=0)
    # Shards are built on first lookup, so a huge count costs nothing here.
    table, _ = generate_synthetic_cohort(2, 9.2e18, 1, 1.0, seed=0)
    assert min(table.counts.values()) > 9e18


def test_cohort_spec_is_one_class_everywhere():
    assert fedpod.CohortSpec is fedpod.engine.CohortSpec is CohortSpec


def test_outliers_exceed_upper_bound_across_seeds():
    # Monte Carlo oracle: with scale 10, outlier draws sit far above lam + 2*sqrt(lam).
    lam, z = 30.0, 2.0
    bound = lam + z * math.sqrt(lam)
    hits = trials = 0
    for seed in range(100):
        table, _ = generate_synthetic_cohort(23, lam, 3, 10.0, seed=seed)
        counts = list(table.counts.values())
        for count in sorted(counts)[-3:]:
            trials += 1
            hits += count > bound
    assert hits / trials > 0.99


def test_generate_then_fit_round_trips_lambda():
    # With no outliers the fitted mean converges to the generating mean.
    lam = 40.0
    for seed in (0, 1, 2):
        table, _ = generate_synthetic_cohort(200, lam, 0, 1.0, seed=seed)
        fitted = fit_poisson(table).lam
        assert abs(fitted - lam) / lam < 0.05


def test_synthesize_shards_covers_every_institution():
    table = table_from_counts([4, 2, 9])
    shards = synthesize_shards(table, seed=5)
    assert set(shards) == set(table.counts)
    for inst, count in table.counts.items():
        assert len(shards[inst]) == count


def test_synthesize_shards_rejects_an_empty_institution():
    table = PartitionTable({"a": 1, "b": 0})
    with pytest.raises(ValidationError, match="at least one sample"):
        synthesize_shards(table, seed=5)


def _eager_shards(counts, seed):
    """Every institution's shard built up front, in order, from its salted stream."""
    geometry = blob_geometry(4, 8, seed)
    return {
        inst: make_blob_shard(count, geometry, np.random.default_rng([seed, _SHARD_SALT, idx]))
        for idx, (inst, count) in enumerate(counts.items())
    }


def _assert_same_shard(a, b):
    assert len(a) == len(b)
    assert np.array_equal(a.labels, b.labels)
    assert a.features.tobytes() == b.features.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 25), min_size=1, max_size=14),
    seed=st.integers(0, 2**32 - 1),
    synthetic=st.booleans(),
    data=st.data(),
)
def test_lazy_shards_match_eager_synthesis(counts, seed, synthetic, data):
    # Any lookup order, with repeats, over any subset of institutions gives
    # the shards an eager pass over the whole table would have built.
    if synthetic:
        table, shards = generate_synthetic_cohort(len(counts), 6.0, 0, 1.0, seed=seed)
    else:
        # inst10 sorts before inst2, so position and id order differ.
        table = table_from_counts(counts)
        shards = synthesize_shards(table, seed=seed)
    assert list(shards) == list(table.counts) and len(shards) == len(table.counts)
    expected = _eager_shards(table.counts, seed)
    lookups = data.draw(st.lists(st.sampled_from(list(table.counts)), max_size=2 * len(counts)))
    for inst in lookups:
        shard = shards[inst]
        _assert_same_shard(shard, expected[inst])
        assert shards[inst] is shard
    assert "absent" not in shards
    with pytest.raises(KeyError):
        shards["absent"]


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(1, 25), min_size=1, max_size=14),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_batch_built_shards_match_eager_synthesis(counts, seed, data):
    # A round's new shards are built from states of a `seed_states` pass that
    # also seeds other streams; each equals the shard its own stream gives.
    table = table_from_counts(counts)
    shards = synthesize_shards(table, seed=seed)
    expected = _eager_shards(table.counts, seed)
    looked_up = data.draw(st.lists(st.sampled_from(list(table.counts)), unique=True))
    for inst in looked_up:
        shards[inst]
    batch = data.draw(st.lists(st.sampled_from(list(table.counts)), unique=True))
    pending, rows = shards.seed_rows(batch)
    assert pending == [inst for inst in batch if inst not in looked_up]
    other = [(seed, 1, 2, 3)] * data.draw(st.integers(0, 3))
    shards.build_seeded(pending, seed_states(other + rows)[len(other) :])
    assert shards.seed_rows(batch) == ([], [])
    for inst in table.counts:
        _assert_same_shard(shards[inst], expected[inst])


# ---------------------------------------------------------------- csv


def test_load_groups_by_partition(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("Subject_ID,Partition_ID\ns1,h2\ns2,h1\ns3,h2\n", encoding="utf-8")
    table = load_partition_csv(path)
    assert list(table.counts.items()) == [("h2", 2), ("h1", 1)]


def test_load_rejects_empty_data(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("Subject_ID,Partition_ID\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_partition_csv(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("subject,partition\ns1,h1\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_partition_csv(path)
    assert err.value.line == 1


def test_load_rejects_duplicate_subject_with_line_number(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("Subject_ID,Partition_ID\ns1,h1\ns1,h2\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_partition_csv(path)
    assert err.value.line == 3


def test_load_rejects_malformed_rows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("Subject_ID,Partition_ID\ns1,h1,extra\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_partition_csv(path)
    assert err.value.line == 2
    path.write_text("Subject_ID,Partition_ID\n,h1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_partition_csv(path)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("", "line 1: expected header Subject_ID,Partition_ID"),
        ("Subject_ID,Partition_ID\n", "no data rows"),
        ("Subject_ID,Partition_ID\ns1,h1,extra\n", "line 2: expected 2 columns, got 3"),
        ("Subject_ID,Partition_ID\n,h1\n", "line 2: missing subject id"),
        ("Subject_ID,Partition_ID\ns1, \n", "line 2: missing partition id"),
        ("Subject_ID,Partition_ID\ns1,h1\ns1,h2\n", "line 3: duplicate subject id 's1'"),
    ],
)
def test_load_errors_start_with_the_path(tmp_path, text, message):
    path = tmp_path / "p.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_partition_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_load_distribution_file_with_23_partitions(tmp_path):
    table, _ = generate_synthetic_cohort(23, 30.0, 3, 10.0, seed=1)
    path = tmp_path / "partitioning.csv"
    write_partition_csv(table, path)
    loaded = load_partition_csv(path)
    assert len(loaded.counts) == 23
    assert loaded == table


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="abcdefgh0123456789-", min_size=1, max_size=8),
        st.integers(1, 30),
        min_size=1,
        max_size=5,
    )
)
def test_partition_csv_round_trip(counts):
    table = PartitionTable(counts)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/t.csv"
        write_partition_csv(table, path)
        loaded = load_partition_csv(path)
    assert loaded == table
    assert list(loaded.counts) == sorted(counts)
    shards = synthesize_shards(loaded, seed=3)
    assert all(len(shards[inst]) == count for inst, count in counts.items())
