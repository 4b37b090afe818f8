import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedpod
from fedpod import cohort
from fedpod.cli import write_partition_csv
from fedpod.cohort import (
    _POISSON_LAM_MAX,
    CohortSpec,
    PartitionTable,
    PoissonModel,
    fit_poisson,
    generate_synthetic_cohort,
    load_partition_csv,
    synthesize_shards,
)
from fedpod.engine import _SHARD_SALT
from fedpod.errors import DegenerateModelError, ParseError, ValidationError
from fedpod.params import blob_geometry, make_blob_shard
from _helpers import stored_shards


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


def everyone_once(table, geometry, seed):
    """The training rows the engine stores for every institution of the table."""
    return stored_shards(seed, table, geometry, list(table.counts))[0]


def _assert_same_geometry(a, b):
    for name in ("centers", "scales", "class_probs"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_generator_is_deterministic():
    a_table, a_geometry = generate_synthetic_cohort(6, 12.0, 1, 5.0, seed=99)
    b_table, b_geometry = generate_synthetic_cohort(6, 12.0, 1, 5.0, seed=99)
    assert a_table == b_table
    _assert_same_geometry(a_geometry, b_geometry)
    a_shards, b_shards = everyone_once(a_table, a_geometry, 99), everyone_once(b_table, b_geometry, 99)
    for inst in a_table.counts:
        assert np.array_equal(a_shards[inst].features, b_shards[inst].features)


def test_generator_single_institution():
    table, geometry = generate_synthetic_cohort(1, 3.0, 0, 1.0, seed=0)
    (count,) = table.counts.values()
    assert count >= 1
    _assert_same_geometry(geometry, blob_geometry(4, 8, 0))
    assert len(everyone_once(table, geometry, 0)) == 1


def test_generator_shards_align_with_table():
    table, geometry = generate_synthetic_cohort(5, 8.0, 1, 4.0, seed=2)
    assert list(table.counts) == [f"inst{i:03d}" for i in range(5)]
    shards = everyone_once(table, geometry, 2)
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
    geometry = synthesize_shards(table, seed=5)
    _assert_same_geometry(geometry, blob_geometry(4, 8, 5))
    shards = everyone_once(table, geometry, 5)
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
    counts=st.lists(st.integers(1, 25), min_size=11, max_size=14),
    seed=st.integers(0, 2**32 - 1),
    synthetic=st.booleans(),
    data=st.data(),
)
def test_lazy_shards_match_eager_synthesis(counts, seed, synthetic, data):
    # Institutions stored in any order, over any subset of the table, get
    # the shards an eager pass over the whole table would have built.
    if synthetic:
        table, geometry = generate_synthetic_cohort(len(counts), 6.0, 0, 1.0, seed=seed)
    else:
        # With 11 institutions or more, inst10 sorts before inst2, so
        # position and id order differ.
        table = table_from_counts(counts)
        geometry = synthesize_shards(table, seed=seed)
    expected = _eager_shards(table.counts, seed)
    insts = data.draw(st.lists(st.sampled_from(list(table.counts)), min_size=1, unique=True))
    for inst, shard in stored_shards(seed, table, geometry, insts)[0].items():
        _assert_same_shard(shard, expected[inst])


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(1, 25), min_size=1, max_size=14),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_batch_built_shards_match_eager_synthesis(counts, seed, data):
    # One `make_blob_shards` call builds the training store from states of
    # the engine's one seeding pass, seeds of one or two words alike; each
    # institution's rows equal the shard its own stream gives.
    table = table_from_counts(counts)
    expected = _eager_shards(table.counts, seed)
    insts = data.draw(st.lists(st.sampled_from(list(table.counts)), min_size=1, unique=True))
    for inst, shard in stored_shards(seed, table, synthesize_shards(table, seed=seed), insts)[0].items():
        _assert_same_shard(shard, expected[inst])


# ---------------------------------------------------------------- csv


def test_load_groups_by_partition(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("Subject_ID,Partition_ID\ns1,h2\ns2,h1\ns3,h2\n", encoding="utf-8")
    table = load_partition_csv(path)
    assert list(table.counts.items()) == [("h2", 2), ("h1", 1)]


def test_load_reads_a_file_with_a_byte_order_mark(tmp_path):
    # Spreadsheet programs save "CSV UTF-8" with a leading U+FEFF.
    text = "Subject_ID,Partition_ID\ns1,h2\ns2,h1\ns3,h2\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert list(load_partition_csv(marked).counts.items()) == list(load_partition_csv(plain).counts.items())


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


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ('Subject_ID,Partition_ID\ns1,"a\nb"\ns1,c\n', "line 4: duplicate subject id 's1'"),
        ('Subject_ID,Partition_ID\ns1,"a\r\nb\rc"\n\ns2,c,d\n', "line 6: expected 2 columns, got 3"),
        # A row that spans lines is named by its first line.
        ('Subject_ID,Partition_ID\ns1,"a\nb"\n"s1","b\nc"\n', "line 4: duplicate subject id 's1'"),
        ('Subject_ID,Partition_ID\ns1,"a\nb"\n"\n\n",c\n', "line 4: missing subject id"),
    ],
)
def test_load_errors_name_physical_lines_after_a_quoted_newline(tmp_path, text, message):
    path = tmp_path / "p.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ParseError) as err:
        load_partition_csv(path)
    assert str(err.value) == f"{path}: {message}"
    assert err.value.line == int(message.split(":")[0].removeprefix("line "))


def test_load_reports_a_field_over_the_csv_limit_on_its_physical_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text('Subject_ID,Partition_ID\ns1,"a\nb"\ns2,' + "b" * 40 + "\n", encoding="utf-8", newline="")
    limit = csv.field_size_limit(16)
    try:
        with pytest.raises(ParseError) as err:
            load_partition_csv(path)
    finally:
        csv.field_size_limit(limit)
    assert str(err.value) == f"{path}: line 4: field larger than field limit (16)"


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
        st.text(alphabet="abcdefgh0123456789- \t\xa0", min_size=1, max_size=8),
        st.integers(1, 30),
        min_size=1,
        max_size=5,
    )
)
def test_partition_csv_round_trip(counts):
    """A table is written so that it loads back as itself, or it is refused:
    the loader strips ids, so one with surrounding whitespace is refused."""
    table = PartitionTable(counts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        if any(inst != inst.strip() for inst in counts):
            with pytest.raises(ValidationError):
                write_partition_csv(table, path)
            assert not path.exists()
            return
        write_partition_csv(table, path)
        loaded = load_partition_csv(path)
    assert loaded == table
    assert list(loaded.counts) == sorted(counts)
    shards = everyone_once(loaded, synthesize_shards(loaded, seed=3), 3)
    assert all(len(shards[inst]) == count for inst, count in counts.items())


@pytest.mark.parametrize("inst", ["", " ", " a", "a\t", "\xa0a"])
def test_write_partition_csv_refuses_ids_that_do_not_round_trip(tmp_path, inst):
    path = tmp_path / "t.csv"
    with pytest.raises(ValidationError, match="institution ids must be non-empty and have no surrounding whitespace"):
        write_partition_csv(PartitionTable({"a": 1, inst: 2}), path)
    assert not path.exists()


def test_load_reports_a_field_over_the_csv_limit(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("Subject_ID,Partition_ID\ns1,a\ns2," + "b" * 40 + "\n", encoding="utf-8")
    limit = csv.field_size_limit(16)
    try:
        with pytest.raises(ParseError) as err:
            load_partition_csv(path)
    finally:
        csv.field_size_limit(limit)
    assert str(err.value) == f"{path}: line 3: field larger than field limit (16)"
    assert err.value.line == 3


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader was called")


def test_a_written_partition_file_is_counted_without_csv(tmp_path, monkeypatch):
    table, _ = generate_synthetic_cohort(23, 30.0, 3, 10.0, seed=1)
    written = tmp_path / "written.csv"
    write_partition_csv(table, written)
    assert b"\r\n" in written.read_bytes()
    marked = tmp_path / "marked.csv"
    marked.write_text("Subject_ID,Partition_ID\ns1,h2\ns2,h1\n\ns3,h2\n", encoding="utf-8-sig")
    monkeypatch.setattr(cohort.csv, "reader", _no_csv_reader)
    assert load_partition_csv(written) == table
    assert list(load_partition_csv(marked).counts.items()) == [("h2", 2), ("h1", 1)]


def test_a_quoted_partition_file_is_read_by_csv(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    path.write_bytes(b'"Subject_ID","Partition_ID"\r\n"s1","site, a"\r\n"s2","b"\r\n"s3","site, a"\r\n')
    calls = []
    reader = csv.reader
    monkeypatch.setattr(cohort.csv, "reader", lambda fh: calls.append(fh) or reader(fh))
    assert list(load_partition_csv(path).counts.items()) == [("site, a", 2), ("b", 1)]
    assert len(calls) == 1


def _load_outcome(path):
    """The loaded counts in order, or the error's type, message and line."""
    try:
        return list(load_partition_csv(path).counts.items())
    except ParseError as err:
        return type(err), str(err), err.line


_ID = st.text(alphabet="ab1-", max_size=3)
_PAD = st.sampled_from(["", " ", "\t", "\xa0"])
_ENDING = st.sampled_from(["\n", "\r\n", "\r"])
_PLAIN_ROW = st.builds(lambda a, s, b, p: f"{a}{s}{b},{b}{p}{a}", _PAD, _ID.filter(bool), _PAD, _ID.filter(bool))
# Rows that are faults, blank, or plain only to the csv module.
_OTHER_ROW = st.one_of(
    st.builds(lambda s, p: f"{s},{p}", _ID, _ID),
    st.just(""),
    st.builds(lambda s, p: f'"{s}","{p}"', _ID, _ID),
    st.builds(lambda s, p, inner: f'{s},"{p}{inner}x"', _ID, _ID, st.sampled_from([",", "\n", "\r\n"])),
    st.builds(lambda s, p: f"{s}\0,{p}", _ID, _ID),
    st.builds(lambda s: f"{s},{'x' * 60}", _ID),
    _ID,
    st.lists(_ID, min_size=3, max_size=4).map(",".join),
    # One comma short on a line and one over on the next: as many commas as lines.
    st.builds(lambda s, t, p, q: f"{s}\n{t},{p},{q}", _ID, _ID, _ID, _ID),
)


@st.composite
def _rows(draw):
    """Plain rows with distinct subjects, and at most two other rows among them."""
    rows = draw(st.lists(st.tuples(_PLAIN_ROW, _ENDING), max_size=6, unique_by=lambda row: row[0].split(",")[0].strip()))
    for row in draw(st.lists(st.tuples(_OTHER_ROW, _ENDING), max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    return "".join(row + ending for row, ending in rows)


# About 20 KB of plain rows with subjects the drawn rows cannot repeat, so
# that rows on either side of it fall in different 8 KB decoding blocks and in
# different chunks of the whole-text pass.
_PADDING = "".join(f"pad{i:05d},p{i % 7}\r\n" for i in range(1500))


_PLAIN_FILE = dict(bom=False, header="Subject_ID,Partition_ID", padded=False, after="", bad_utf8=None, last_ending="", limit=None)


@settings(max_examples=300, deadline=None)
# Rare draws that are plain to every other check: as many commas as lines but
# one line without a comma, and two extra columns that keep the fields paired.
@example(**_PLAIN_FILE, before="s\nt,p,q\n")
@example(**_PLAIN_FILE, before="s,p,q,r\n")
@given(
    bom=st.booleans(),
    header=st.one_of(
        st.just("Subject_ID,Partition_ID"),
        st.sampled_from([" Subject_ID ,Partition_ID\t", '"Subject_ID","Partition_ID"', "s,p", ""]),
    ),
    before=_rows(),
    padded=st.booleans(),
    after=_rows(),
    bad_utf8=st.one_of(st.none(), st.sampled_from(["before", "after"])),
    last_ending=st.sampled_from(["", "\n", "\r\n"]),
    limit=st.one_of(st.none(), st.none(), st.just(50)),
)
def test_load_equals_the_row_walk(bom, header, before, padded, after, bad_utf8, last_ending, limit):
    """Whether or not the whole-text pass takes a file, the result is the
    row walk's: the same counts in order, or the same error at the same line."""
    parts = [header.encode() + b"\r\n", before.encode(), _PADDING.encode() if padded else b"", after.encode()]
    if bad_utf8 is not None:
        parts.insert(2 if bad_utf8 == "before" else 4, b"s\xff,p\n")
    data = (b"\xef\xbb\xbf" if bom else b"") + b"".join(parts) + b"zz,z" + last_ending.encode()
    old_limit = csv.field_size_limit(limit) if limit is not None else None
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            path.write_bytes(data)
            loaded = _load_outcome(path)
            with mock.patch.object(cohort, "_count_plain_rows", return_value=None):
                walked = _load_outcome(path)
    finally:
        if old_limit is not None:
            csv.field_size_limit(old_limit)
    assert loaded == walked
