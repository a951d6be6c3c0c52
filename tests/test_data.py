import errno
import hashlib
import io
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from _oracles import row_by_row_csv
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sew.data
from sew.autodiff import make_rng
from sew.data import (
    CACHE_DIR,
    Dataset,
    Standardizer,
    SyntheticSpec,
    apply_shift,
    batcher,
    generate_synthetic,
    load_csv,
    load_features,
    load_labels,
    standardize_dataset,
    write_csv,
)
from sew.errors import ConfigError, DataError, DimensionError


def small_spec(**kw):
    base = dict(latent_dim=4, d1=6, d2=5, n_samples=120, n_dev=30)
    base.update(kw)
    return SyntheticSpec(**base)


class TestModalityBatch:
    """The checks a Dataset, a whole split or one minibatch, makes when built."""

    def test_widths_must_agree(self):
        with pytest.raises(DimensionError) as exc:
            Dataset(np.zeros((3, 4)), np.zeros((2, 5)), np.zeros((1, 4)))
        assert "width" in str(exc.value)

    def test_labels_must_be_single_row(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((2, 4)))

    def test_labels_must_be_in_range(self):
        labels = np.array([[0.0, 1.5, 0.0, 0.0]])
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 4)), np.zeros((2, 4)), labels)

    def test_boundary_labels_pass(self):
        b = Dataset(np.zeros((3, 2)), np.zeros((2, 2)), [[-1.0, 1.0]])
        assert b.labels.shape[1] == 2


def test_dataset_dims():
    ds = Dataset(np.zeros((6, 10)), np.zeros((4, 10)), np.zeros((1, 10)))
    assert (ds.d1, ds.d2, ds.n) == (6, 4, 10)


def test_fingerprint_tracks_content():
    rng = make_rng(0, 70)
    m_s = rng.standard_normal((3, 8))
    m_w = rng.standard_normal((2, 8))
    labels = np.zeros((1, 8))
    a = Dataset(m_s, m_w, labels)
    b = Dataset(m_s.copy(), m_w.copy(), labels.copy())
    assert a.fingerprint() == b.fingerprint()
    m_s2 = m_s.copy()
    m_s2[0, 0] += 1e-12
    assert Dataset(m_s2, m_w, labels).fingerprint() != a.fingerprint()


class TestSyntheticSpec:
    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ConfigError):
            small_spec(n_samples=50)

    def test_rejects_weak_noise_below_strong(self):
        with pytest.raises(ConfigError):
            small_spec(noise_strong=1.0, noise_weak=0.5)

    def test_rejects_bad_info_loss(self):
        with pytest.raises(ConfigError):
            small_spec(weak_info_loss=1.5)
        with pytest.raises(ConfigError):
            small_spec(weak_info_loss=-0.1)

    def test_rejects_negative_depth(self):
        with pytest.raises(ConfigError):
            small_spec(nonlinearity=-1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            small_spec(seed=-1)

    @pytest.mark.parametrize("key, value, shown", [
        ("d1", 32.5, "32.5"), ("n_samples", 200.0, "200.0"), ("seed", True, "true"),
        ("noise_weak", "1", '"1"'), ("latent_dim", np.int64(4), repr(np.int64(4))),
    ])
    def test_python_values_follow_the_file_rule(self, key, value, shown):
        """Built in Python, a spec is checked as its `gen-data --config` file is."""
        kind = "a finite number" if key == "noise_weak" else "an integer"
        with pytest.raises(ConfigError) as exc:
            small_spec(**{key: value})
        assert str(exc.value) == f"dataset key {key!r} must be {kind}, got {shown}"


class TestGenerateSynthetic:
    def test_shapes_and_label_range(self):
        train, dev, truth = generate_synthetic(small_spec())
        assert (train.d1, train.d2, train.n) == (6, 5, 120)
        assert (dev.d1, dev.d2, dev.n) == (6, 5, 30)
        assert np.abs(train.labels).max() <= 1.0
        assert len(truth["label_weights"].ravel()) == 4

    def test_bit_identical_for_equal_specs(self):
        a, da, _ = generate_synthetic(small_spec())
        b, db, _ = generate_synthetic(small_spec())
        np.testing.assert_array_equal(a.m_s, b.m_s)
        np.testing.assert_array_equal(a.m_w, b.m_w)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(da.m_w, db.m_w)

    def test_seed_changes_data(self):
        a, _, _ = generate_synthetic(small_spec(seed=0))
        b, _, _ = generate_synthetic(small_spec(seed=1))
        assert not np.array_equal(a.m_s, b.m_s)

    def test_mask_size_follows_info_loss(self):
        _, _, truth = generate_synthetic(small_spec(weak_info_loss=0.5))
        assert len(truth["masked_coords"]) == 2
        assert sorted(truth["masked_coords"] + truth["visible_coords"]) == [0, 1, 2, 3]
        _, _, full = generate_synthetic(small_spec(weak_info_loss=0.0))
        assert full["masked_coords"] == []

    def test_train_dev_disjoint_draws(self):
        train, dev, _ = generate_synthetic(small_spec(n_samples=120, n_dev=120))
        assert not np.array_equal(train.m_s[:, :10], dev.m_s[:, :10])

    def test_depth_zero_is_linear_mixing(self):
        # with no tanh layers and no noise, strong features are an exact
        # linear image of the latent, so a linear solve recovers them
        train, _, truth = generate_synthetic(
            small_spec(nonlinearity=0, noise_strong=0.0, noise_weak=0.0, weak_info_loss=0.0))
        # labels remain tanh(w . z) regardless of depth
        assert np.abs(train.labels).max() < 1.0


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        m = make_rng(1, 70).standard_normal((3, 7))
        path = tmp_path / "feat.csv"
        write_csv(path, m)
        np.testing.assert_array_equal(load_features(path), m)

    def test_three_rows_two_cols(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        out = load_features(path)
        assert out.shape == (2, 3)  # columns are samples
        np.testing.assert_array_equal(out, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_header_autodetect(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("mfcc_0,mfcc_1\n1.0,2.0\n3.0,4.0\n")
        out = load_features(path)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out[:, 0], [1.0, 2.0])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError) as exc:
            load_features(path)
        assert ":2" in str(exc.value)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataError) as exc:
            load_features(path)
        assert ":2" in str(exc.value)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "f.csv"
        path.write_text(f"a,b\n1.0,2.0\n\n3.0,{cell}\n")
        with pytest.raises(DataError, match=r"f\.csv:4: non-finite feature cell .* in column 2"):
            load_features(path)

    def test_labels_must_be_single_column(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n")
        with pytest.raises(DataError):
            load_labels(path)

    def test_load_csv_length_mismatch_names_both(self, tmp_path):
        f, l = tmp_path / "f.csv", tmp_path / "l.csv"
        write_csv(f, np.zeros((2, 5)))
        write_csv(l, np.zeros((1, 4)))
        with pytest.raises(DataError) as exc:
            load_csv(f, l)
        msg = str(exc.value)
        assert "5" in msg and "4" in msg

    def test_load_csv_pairs_features_and_labels(self, tmp_path):
        f, l = tmp_path / "f.csv", tmp_path / "l.csv"
        feats = make_rng(2, 70).standard_normal((4, 6))
        labels = np.linspace(-0.9, 0.9, 6).reshape(1, 6)
        write_csv(f, feats)
        write_csv(l, labels)
        out_f, out_l = load_csv(f, l)
        np.testing.assert_array_equal(out_f, feats)
        np.testing.assert_array_equal(out_l, labels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_features(tmp_path / "absent.csv")


def read_outcome(reader, path):
    """(shape, bytes) of what `reader` returns, or the DataError message."""
    try:
        table = reader(path, "feature")
    except DataError as err:
        return str(err)
    return table.shape, table.tobytes()


# (file text, what the reader must say: an array shape or a message fragment)
PARITY_CASES = {
    "header": ("mfcc_0,mfcc_1\n1.0,2.0\n3.0,4.0\n", (2, 2)),
    "blank-lines": ("1.0,2.0\n\n\n3.0,4.0\n\n", (2, 2)),
    "blank-then-ragged": ("1.0,2.0\n\n\n3.0\n", "f.csv:4: ragged row, expected 2 columns, got 1"),
    "blank-then-nan": ("a,b\n1.0,2.0\n\n3.0,nan\n", "f.csv:4: non-finite feature cell nan in column 2"),
    "crlf": ("a,b\r\n1.0,2.0\r\n\r\n3.0,4.0\r\n", (2, 2)),
    "crlf-ragged": ("1.0,2.0\r\n\r\n3.0\r\n", "f.csv:3: ragged row"),
    "quoted": ('"1.0","2.0"\n3.0,"4.0"\n', (2, 2)),
    "padded": (" 1.0 ,\t2.0\n3.0\t, 4.0 \n", (2, 2)),
    "trailing-comma": ("a,b\n1.0,2.0,\n3.0,4.0,\n", "f.csv:2: non-numeric feature cell"),
    "hash-line": ("1.0,2.0\n# note\n3.0,4.0\n", "f.csv:2: non-numeric feature cell"),
    "whitespace-line": ("1.0,2.0\n  \t\n3.0,4.0\n", "f.csv:2: non-numeric feature cell"),
    "header-only": ("a,b\n", "f.csv: no numeric feature rows"),
    "empty": ("", "f.csv: no numeric feature rows"),
    "non-numeric": ("1.0,2.0\n3.0,oops\n", "f.csv:2: non-numeric feature cell"),
    "second-line-header": ("1.0,2.0\na,b\n", "f.csv:2: non-numeric feature cell"),
    "inf-before-ragged": ("1.0,inf\n3.0\n", "f.csv:2: ragged row"),
    "overflow": ("1.0,2.0\n-1e999,4.0\n", "f.csv:2: non-finite feature cell -inf in column 1"),
    "one-row": ("1.0,2.0,3.0\n", (1, 3)),
    "one-column": ("1.0\n2.0\n3.0", (3, 1)),
    # a quoted cell holding a newline: lines are physical, not rows
    "quoted-newline-ragged": ('1,2\n"3\n",4\n5\n', "f.csv:4: ragged row, expected 2 columns, got 1"),
    "quoted-newline-nan": ('a,b\n1,2\n"3\n",4\n5,nan\n', "f.csv:5: non-finite feature cell nan in column 2"),
}


class TestReaderParity:
    """The np.loadtxt reader against the row-by-row reader it replaced."""

    @pytest.mark.parametrize("text, expected", PARITY_CASES.values(), ids=PARITY_CASES.keys())
    def test_same_result_as_row_by_row_reader(self, tmp_path, text, expected):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        got = read_outcome(sew.data._read_numeric_csv, path)
        assert got == read_outcome(row_by_row_csv, path)
        if isinstance(expected, tuple):
            assert got[0] == expected
        else:
            assert expected in got

    def test_published_widths_byte_equal(self, tmp_path):
        train, dev, _ = generate_synthetic(small_spec(d1=632, d2=88, n_samples=100, n_dev=20))
        for i, matrix in enumerate((train.m_s, train.m_w, train.labels, dev.m_s, dev.m_w, dev.labels)):
            path = tmp_path / f"{i}.csv"
            write_csv(path, matrix)
            assert read_outcome(sew.data._read_numeric_csv, path) == read_outcome(row_by_row_csv, path)

    def test_repr_round_trips_byte_equal(self, tmp_path):
        tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
        edges = [0.0, -0.0, tiny, -tiny, big, -big, np.finfo(float).tiny, 1.0, -1.0]
        bits = make_rng(5, 70).integers(0, 2**64, size=60_000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([edges, bits[np.isfinite(bits)]])[:40_001]
        assert values.size == 40_001
        path = tmp_path / "l.csv"
        write_csv(path, values.reshape(1, -1))
        assert load_labels(path).tobytes() == values.tobytes()

    @pytest.mark.parametrize("text", ["1_0,2.0\n3.0,4.0\n", "\u0661,2.0\n3.0,4.0\n"],
                             ids=["underscore-digits", "arabic-indic-digit"])
    def test_digits_float_takes_but_loadtxt_refuses_are_refused(self, tmp_path, text):
        # float() reads "1_0" as 10.0 and "\u0661" as 1.0; numpy's parser
        # reads ASCII digits only, and the reader follows it
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=r"f\.csv:1: non-numeric feature cell"):
            load_features(path)

    def test_good_file_never_walks_rows(self, tmp_path, monkeypatch):
        def walk(*args):
            raise AssertionError("row walk on a good file")
        monkeypatch.setattr(sew.data, "_raise_located", walk)
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1.0,2.0\n\n3.0,4.0\n")
        assert load_features(path).shape == (2, 2)

    def test_refused_file_never_loads_through_the_row_walk(self, tmp_path, monkeypatch):
        # a file numpy refuses but the row walk would take still fails
        path = tmp_path / "f.csv"
        loadtxt = np.loadtxt

        def refuse(fname, *args, **kwargs):
            if fname == path:
                raise ValueError("refused")
            return loadtxt(fname, *args, **kwargs)
        monkeypatch.setattr(sew.data.np, "loadtxt", refuse)
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(DataError, match=r"f\.csv: unreadable feature CSV \(refused\)"):
            load_features(path)

    @pytest.mark.parametrize("raw, line", [
        (b"\xfe1.0,2.0\n3.0,4.0\n", 1),
        (b"1.0,2.0\n3.0,\xff4.0\n", 2),
        (b"1.0,2.0\n" * 5000 + b"3.0,\xe2\n", 5001),  # past the first decoded chunk
    ], ids=["line-1", "line-2", "line-5001"])
    def test_not_utf8_names_the_line(self, tmp_path, raw, line):
        path = tmp_path / "f.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=rf"f\.csv:{line}: not UTF-8 text \(byte 0x"):
            load_features(path)

    def test_bom_without_header_keeps_first_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("\ufeff1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        np.testing.assert_array_equal(load_features(path), [[1.0, 3.0], [2.0, 4.0]])

    def test_bom_with_header_skips_only_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("\ufeffarousal\n0.5\n-0.25\n", encoding="utf-8")
        np.testing.assert_array_equal(load_labels(path), [[0.5, -0.25]])

    @pytest.mark.parametrize("text", ["", "a,b\n", "\n\n", "\ufeffa,b\r\n\r\n"],
                             ids=["empty", "header-only", "blank-only", "bom-header-only"])
    def test_no_rows_raises_without_warning(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"f\.csv: no numeric feature rows"):
                load_features(path)


def cache_entries(directory: Path) -> list[str]:
    cache = directory / CACHE_DIR
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


def entry_for(path: Path) -> Path:
    """Where the table of `path`'s present content is cached."""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return path.parent / CACHE_DIR / f"{path.name}.csv1.{digest}.npy"


def npy_bytes(array, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def never_parse(monkeypatch):
    def parse(*args):
        raise AssertionError("parsed a file whose content is cached")
    monkeypatch.setattr(sew.data, "_parse_numeric_csv", parse)


def deny_writes(monkeypatch):
    """Make the data directory refuse every write as a read-only one does,
    also where chmod binds no one (a root user)."""
    def refuse(*args, **kwargs):
        raise PermissionError(errno.EACCES, "read-only directory")
    real_open = open

    def open_read_only(file, mode="r", *args, **kwargs):
        if set(mode) & set("wxa+"):
            refuse()
        return real_open(file, mode, *args, **kwargs)
    monkeypatch.setattr(Path, "mkdir", refuse)
    monkeypatch.setattr(sew.data, "open", open_read_only, raising=False)
    for name in ("replace", "unlink"):
        monkeypatch.setattr(sew.data.os, name, refuse)


class TestIngestCache:
    """Each CSV content is parsed once; later reads load the cached table."""

    @pytest.mark.parametrize("text", [
        "1.0,2.0\n3.0,4.0\n",
        "mfcc_0,mfcc_1\n1.0,2.0\n\n3.0,4.0\n",
        "\ufeff1.0,2.0\r\n3.0,4.0\r\n",
        "\ufeffa,b\n1e-320,-0.0\n",
        '" 1.5 ",\t2\n 3.0 ,"-4e2"\n',
    ], ids=["no-header", "header", "bom", "bom-header", "quoted-padded"])
    def test_hit_returns_the_bytes_of_the_parse(self, tmp_path, monkeypatch, text):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        parsed = sew.data._read_numeric_csv(path, "feature")
        assert cache_entries(tmp_path) == [entry_for(path).name]
        never_parse(monkeypatch)
        cached = sew.data._read_numeric_csv(path, "feature")
        assert (cached.shape, cached.dtype, cached.strides, cached.tobytes()) == \
            (parsed.shape, parsed.dtype, parsed.strides, parsed.tobytes())
        assert load_features(path).tobytes() == parsed.T.tobytes()

    def test_one_digit_edit_of_the_same_size_and_time_misses(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("0.25\n0.5\n")
        np.testing.assert_array_equal(load_labels(path), [[0.25, 0.5]])
        stat = path.stat()
        path.write_text("0.25\n0.7\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        np.testing.assert_array_equal(load_labels(path), [[0.25, 0.7]])
        assert cache_entries(tmp_path) == [entry_for(path).name]

    @pytest.mark.parametrize("damage", [
        lambda raw, table: raw[:len(raw) - 8],  # truncated data
        lambda raw, table: raw[:40],  # truncated header
        lambda raw, table: raw[:11] + b"(" + raw[12:],  # header that does not parse
        lambda raw, table: b"",
        lambda raw, table: npy_bytes(table.astype(np.float32)),
        lambda raw, table: npy_bytes(table.astype(">f8")),
        lambda raw, table: npy_bytes(table.ravel()),
        lambda raw, table: npy_bytes(np.asfortranarray(table)),
        lambda raw, table: npy_bytes(table[:0]),
        lambda raw, table: npy_bytes(np.where(table == 4.0, np.nan, table)),
        lambda raw, table: npy_bytes(np.where(table == 4.0, -np.inf, table)),
        lambda raw, table: npy_bytes(np.array([{"a": 1}], dtype=object), allow_pickle=True),
    ], ids=["truncated", "short-header", "bad-header", "empty", "float32", "big-endian", "1-d", "fortran",
            "no-rows", "nan", "inf", "pickle"])
    def test_bad_entry_misses_and_is_replaced(self, tmp_path, damage):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        table = sew.data._read_numeric_csv(path, "feature")
        entry = entry_for(path)
        entry.write_bytes(damage(entry.read_bytes(), table))
        assert sew.data._read_numeric_csv(path, "feature").tobytes() == table.tobytes()
        assert cache_entries(tmp_path) == [entry.name]
        assert np.load(entry).tobytes() == table.tobytes()

    @pytest.mark.parametrize("cached_before", [False, True], ids=["no-cache", "stale-entry"])
    def test_read_only_directory_loads_and_writes_nothing(self, tmp_path, monkeypatch, cached_before):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n")
        if cached_before:
            load_features(path)
        path.write_text("5.0,6.0\n")
        before = sorted((p.relative_to(tmp_path), p.read_bytes() if p.is_file() else None)
                        for p in tmp_path.rglob("*"))
        tmp_path.chmod(0o555)
        try:
            deny_writes(monkeypatch)
            np.testing.assert_array_equal(load_features(path), [[5.0], [6.0]])
            monkeypatch.undo()
        finally:
            tmp_path.chmod(0o755)
        assert sorted((p.relative_to(tmp_path), p.read_bytes() if p.is_file() else None)
                      for p in tmp_path.rglob("*")) == before

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        writes = []

        def disk_full(fh, array, **kwargs):
            writes.append(fh.name)
            fh.write(b"\x93NUMPY")
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(sew.data.np.lib.format, "write_array", disk_full)
        np.testing.assert_array_equal(load_features(path), [[1.0, 3.0], [2.0, 4.0]])
        assert len(writes) == 1 and cache_entries(tmp_path) == []
        monkeypatch.undo()
        load_features(path)
        assert cache_entries(tmp_path) == [entry_for(path).name]

    def test_replacing_a_file_leaves_one_entry_for_it(self, tmp_path):
        a, b, a2 = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "a.csv2"
        for path in (a, b, a2):
            path.write_text("1.0\n")
            load_labels(path)
        # an entry of an older format tag is an older content too
        old_tag = tmp_path / CACHE_DIR / f"a.csv.csv0.{'0' * 64}.npy"
        old_tag.write_bytes(b"")
        for value in ("0.5", "0.25", "-0.125"):
            a.write_text(f"{value}\n")
            assert load_labels(a)[0, 0] == float(value)
        assert cache_entries(tmp_path) == sorted(entry_for(p).name for p in (a, b, a2))

    def test_file_rewritten_between_hash_and_parse_is_not_cached(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n")
        parse = sew.data._parse_numeric_csv

        def rewrite_then_parse(p, what):
            path.write_text("7.0,8.0\n")
            return parse(p, what)
        monkeypatch.setattr(sew.data, "_parse_numeric_csv", rewrite_then_parse)
        np.testing.assert_array_equal(load_features(path), [[7.0], [8.0]])
        monkeypatch.undo()
        assert cache_entries(tmp_path) == []
        path.write_text("1.0,2.0\n")
        np.testing.assert_array_equal(load_features(path), [[1.0], [2.0]])

    @pytest.mark.parametrize("text", ["1.0,oops\n", "a,b\n", "1.0,nan\n", "1.0\n2.0,3.0\n", "\xff\n"])
    def test_file_that_fails_is_never_cached(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode("latin-1"))
        for _ in range(2):
            with pytest.raises(DataError):
                load_features(path)
        assert cache_entries(tmp_path) == []

    def test_file_larger_than_a_hash_chunk(self, tmp_path, monkeypatch):
        values = make_rng(6, 70).standard_normal((3, 40_000))
        path = tmp_path / "f.csv"
        write_csv(path, values)
        assert path.stat().st_size > 2 * sew.data._HASH_CHUNK
        load_features(path)
        never_parse(monkeypatch)
        assert load_features(path).tobytes() == values.tobytes()
        assert cache_entries(tmp_path) == [entry_for(path).name]


    @pytest.mark.parametrize("plant", [
        lambda table: np.tile(table, (3, 1)),  # more cells than the CSV's 16 bytes hold
        lambda table: table[::-1].copy(),  # another first row
        lambda table: np.hstack([table, table[:, :1]]),  # another column
    ], ids=["more-rows", "other-first-row", "more-columns"])
    def test_entry_that_disagrees_with_the_csv_misses_and_is_replaced(self, tmp_path, plant):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        table = sew.data._read_numeric_csv(path, "feature")
        entry = entry_for(path)
        entry.write_bytes(npy_bytes(plant(table)))
        assert sew.data._read_numeric_csv(path, "feature").tobytes() == table.tobytes()
        assert np.load(entry).tobytes() == table.tobytes()

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="no user ids")
    @pytest.mark.parametrize("foreign", ["entry", "directory"])
    def test_cache_of_another_user_is_not_read(self, tmp_path, monkeypatch, foreign):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        table = sew.data._read_numeric_csv(path, "feature")
        entry = entry_for(path)
        planted = table.copy()
        planted[1] += 1.0  # past every check but the owner's
        entry.write_bytes(npy_bytes(planted))
        real_stat = os.fstat if foreign == "entry" else os.lstat

        def owned_by_another(target):
            st = real_stat(target)
            return os.stat_result((st.st_mode, st.st_ino, st.st_dev, st.st_nlink, st.st_uid + 1, *st[5:10]))
        monkeypatch.setattr(sew.data.os, "fstat" if foreign == "entry" else "lstat", owned_by_another)
        assert sew.data._read_numeric_csv(path, "feature").tobytes() == table.tobytes()
        # an entry of another user's in one's own directory is replaced; a
        # directory of another user's is not written to
        assert (np.load(entry).tobytes() == table.tobytes()) == (foreign == "entry")

    def test_old_file_rewritten_between_hash_and_parse_is_not_cached(self, tmp_path, monkeypatch):
        # read 10 s after it was written, so its stat, not a second hash,
        # tells the rewrite, even with its time stamp put back
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n")
        stat = path.stat()
        monkeypatch.setattr(sew.data.time, "time_ns", lambda: stat.st_ctime_ns + 10**10)
        parse = sew.data._parse_numeric_csv

        def rewrite_then_parse(p, what):
            path.write_text("7.0,8.0\n")
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            return parse(p, what)
        monkeypatch.setattr(sew.data, "_parse_numeric_csv", rewrite_then_parse)
        np.testing.assert_array_equal(load_features(path), [[7.0], [8.0]])
        assert cache_entries(tmp_path) == []

    # a copy that keeps its source's time stamp (cp -p) is new by its change time
    @pytest.mark.parametrize("age_s, stamped_back_s, hashes", [(10.0, 0, 1), (0.0, 0, 2), (0.0, 10, 2)],
                             ids=["old", "new", "new-stamped-old"])
    def test_a_miss_hashes_an_old_file_once_and_a_new_one_twice(self, tmp_path, monkeypatch, age_s, stamped_back_s,
                                                                hashes):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n")
        stamp = path.stat().st_mtime_ns - stamped_back_s * 10**9
        os.utime(path, ns=(stamp, stamp))
        now = path.stat().st_ctime_ns + int(age_s * 1e9)
        monkeypatch.setattr(sew.data.time, "time_ns", lambda: now)
        calls = mock.Mock(wraps=sew.data._file_sha256)
        monkeypatch.setattr(sew.data, "_file_sha256", calls)
        load_features(path)
        assert calls.call_count == hashes
        assert cache_entries(tmp_path) == [entry_for(path).name]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), d=st.integers(1, 4), n=st.integers(1, 5))
def test_csv_round_trip_byte_equal(data, d, n):
    finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    edge = st.sampled_from([0.0, -0.0, np.finfo(float).max, -np.finfo(float).max,
                            np.finfo(float).smallest_subnormal, -np.finfo(float).smallest_subnormal])
    matrix = data.draw(arrays(np.float64, (d, n), elements=finite | edge))
    with tempfile.TemporaryDirectory() as tmp:
        feats, labels = Path(tmp) / "f.csv", Path(tmp) / "l.csv"
        write_csv(feats, matrix)
        write_csv(labels, matrix[:1])
        out = load_features(feats)
        assert out.shape == (d, n) and out.tobytes() == matrix.tobytes()
        assert load_labels(labels).tobytes() == matrix[:1].tobytes()


def shift_offset(shift_seconds, frame_step_seconds, n=100):
    """The offset apply_shift takes, read as n minus the width it returns."""
    _, labels = apply_shift(np.zeros((1, n)), np.zeros((1, n)), shift_seconds, frame_step_seconds)
    return n - labels.shape[1]


class TestShift:
    def test_offset_arithmetic(self):
        assert shift_offset(2.4, 0.04) == 60
        assert shift_offset(0.0, 0.04) == 0
        assert shift_offset(0.08, 0.04) == 2

    def test_non_divisible_shift_rejected(self):
        with pytest.raises(ConfigError):
            shift_offset(0.05, 0.04)

    def test_bad_frame_step(self):
        with pytest.raises(ConfigError):
            shift_offset(1.0, 0.0)
        with pytest.raises(ConfigError):
            shift_offset(-1.0, 0.04)

    def test_shift_pairs_feature_t_with_label_t_plus_offset(self):
        labels = np.arange(100, dtype=float).reshape(1, 100) / 100.0
        _, shifted = apply_shift(np.zeros((1, 100)), labels, 2.4, 0.04)
        assert 100 - shifted.shape[1] == 60
        assert shifted.shape == (1, 40)
        # feature frame t now sits against label frame t + 60
        np.testing.assert_array_equal(shifted[0], labels[0, 60:])

    def test_zero_shift_is_identity(self):
        labels = np.linspace(-1, 1, 10).reshape(1, 10)
        _, shifted = apply_shift(np.zeros((1, 10)), labels, 0.0, 0.04)
        assert 10 - shifted.shape[1] == 0
        np.testing.assert_array_equal(shifted, labels)

    def test_apply_shift_trims_features(self):
        feats = np.arange(300, dtype=float).reshape(3, 100)
        labels = np.zeros((1, 100))
        out_f, out_l = apply_shift(feats, labels, 2.4, 0.04)
        assert out_f.shape == (3, 40)
        assert out_l.shape == (1, 40)
        np.testing.assert_array_equal(out_f, feats[:, :40])

    def test_shift_longer_than_sequence(self):
        labels = np.zeros((1, 50))
        with pytest.raises(DataError):
            apply_shift(np.zeros((1, 50)), labels, 2.4, 0.04)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 120), offset=st.integers(0, 150), rows=st.integers(1, 3),
       step=st.sampled_from([0.01, 0.04, 0.1, 0.5]))
def test_apply_shift_keeps_n_minus_offset_aligned_columns(n, offset, rows, step):
    feats = np.arange(rows * n, dtype=float).reshape(rows, n)
    labels = np.arange(n, dtype=float).reshape(1, n)
    if offset >= n:
        with pytest.raises(DataError):
            apply_shift(feats, labels, offset * step, step)
        return
    out_f, out_l = apply_shift(feats, labels, offset * step, step)
    assert out_f.shape == (rows, n - offset) and out_l.shape == (1, n - offset)
    # feature frame t pairs with label frame t + offset
    np.testing.assert_array_equal(out_f, feats[:, :n - offset])
    np.testing.assert_array_equal(out_l, labels[:, offset:])


class TestStandardizer:
    def test_zero_mean_unit_variance(self):
        x = make_rng(3, 70).standard_normal((4, 200)) * 5.0 + 2.0
        out = Standardizer.fit(x).apply(x)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-12)

    def test_constant_dimension_survives(self):
        x = np.vstack([np.full(10, 3.0), np.arange(10, dtype=float)])
        out = Standardizer.fit(x).apply(x)
        np.testing.assert_array_equal(out[0], np.zeros(10))

    def test_dim_mismatch(self):
        s = Standardizer.fit(np.zeros((3, 4)))
        with pytest.raises(DimensionError):
            s.apply(np.zeros((2, 4)))

    def test_dataset_standardization_uses_train_stats(self):
        train, dev, _ = generate_synthetic(small_spec())
        train_std, dev_std, scaler_s, _ = standardize_dataset(train, dev)
        np.testing.assert_allclose(train_std.m_s.mean(axis=1), 0.0, atol=1e-12)
        # dev is scaled with train statistics, so it is close but not exact
        assert np.abs(dev_std.m_s.mean(axis=1)).max() > 1e-12
        np.testing.assert_array_equal(dev_std.m_s, scaler_s.apply(dev.m_s))
        np.testing.assert_array_equal(train_std.labels, train.labels)

    def test_train_split_is_column_major_and_batches_keep_their_bytes(self):
        train, dev, _ = generate_synthetic(small_spec())
        train_std, dev_std, scaler_s, scaler_w = standardize_dataset(train, dev)
        for m in (train_std.m_s, train_std.m_w):
            assert m.flags.f_contiguous and not m.flags.c_contiguous
        for m in (dev_std.m_s, dev_std.m_w):
            assert m.flags.c_contiguous
        row_major = Dataset(scaler_s.apply(train.m_s), scaler_w.apply(train.m_w), train.labels)
        assert train_std.m_s.tobytes("F") == row_major.m_s.tobytes("F")
        pairs = zip(batcher(train_std, 32, make_rng(5)), batcher(row_major, 32, make_rng(5)))
        for a, b in pairs:
            for x, y in ((a.m_s, b.m_s), (a.m_w, b.m_w), (a.labels, b.labels)):
                assert x.flags.f_contiguous == y.flags.f_contiguous and x.tobytes("A") == y.tobytes("A")


class TestBatcher:
    def make_dataset(self, n):
        rng = make_rng(4, 70)
        return Dataset(
            rng.standard_normal((3, n)),
            rng.standard_normal((2, n)),
            rng.uniform(-1, 1, (1, n)),
        )

    def test_covers_dataset_in_two_batches(self):
        ds = self.make_dataset(64)
        batches = list(batcher(ds, 32, rng=make_rng(0)))
        assert [b.labels.shape[1] for b in batches] == [32, 32]

    def test_no_shuffle_preserves_order(self):
        ds = self.make_dataset(10)
        batches = list(batcher(ds, 5, rng=make_rng(0), shuffle=False))
        np.testing.assert_array_equal(batches[0].m_s, ds.m_s[:, :5])
        np.testing.assert_array_equal(batches[1].labels, ds.labels[:, 5:])

    def test_same_seed_same_batches(self):
        ds = self.make_dataset(30)
        a = list(batcher(ds, 8, rng=make_rng(7)))
        b = list(batcher(ds, 8, rng=make_rng(7)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.m_w, y.m_w)

    def test_generator_rng_advances_across_epochs(self):
        ds = self.make_dataset(30)
        rng = make_rng(7)
        first = list(batcher(ds, 8, rng=rng))
        second = list(batcher(ds, 8, rng=rng))
        assert not np.array_equal(first[0].m_s, second[0].m_s)

    def test_shuffled_epoch_is_a_permutation(self):
        ds = self.make_dataset(40)
        cols = np.concatenate([b.m_s for b in batcher(ds, 8, rng=make_rng(3))], axis=1)
        assert cols.shape == (3, 40)
        np.testing.assert_allclose(np.sort(cols[0]), np.sort(ds.m_s[0]), atol=0)

    def test_trailing_singleton_dropped(self):
        ds = self.make_dataset(65)
        batches = list(batcher(ds, 32, rng=make_rng(0)))
        assert [b.labels.shape[1] for b in batches] == [32, 32]

    def test_trailing_pair_kept(self):
        ds = self.make_dataset(34)
        batches = list(batcher(ds, 32, rng=make_rng(0)))
        assert [b.labels.shape[1] for b in batches] == [32, 2]

    def test_batches_are_not_checked_again(self, monkeypatch):
        # the split was checked when it was built; its slices need no
        # second finiteness or label-range pass
        ds = self.make_dataset(20)
        checked = []
        monkeypatch.setattr(sew.data, "as_matrix", lambda *a: checked.append(a) or a[0])
        batches = list(batcher(ds, 8, rng=make_rng(0)))
        assert checked == [] and [b.n for b in batches] == [8, 8, 4]
        assert all(isinstance(b, Dataset) for b in batches)

    def test_batch_size_validation(self):
        ds = self.make_dataset(10)
        with pytest.raises(ConfigError):
            list(batcher(ds, 1, rng=make_rng(0)))

    def test_empty_dataset(self):
        ds = Dataset(np.zeros((3, 0)), np.zeros((2, 0)), np.zeros((1, 0)))
        with pytest.raises(DataError):
            list(batcher(ds, 4, rng=make_rng(0)))
