"""Fuzzing of three input surfaces: model files, specs built in Python and
dataset directories.

The property is the same for all: a call either succeeds or raises a
SewError, never another exception. Every test is derandomized and bounded
(hypothesis with a fixed example count), so the suite stays deterministic
and finishes in a few seconds.
"""

import contextlib
import io
import json
import math
import signal
import tempfile
import tracemalloc
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sew.data
from sew import cli
from sew.data import CACHE_DIR, Standardizer, SyntheticSpec
from sew.errors import SewError
from sew.networks import GruRegressorSpec, MlpSpec, assemble_sew, load_model, save_model
from sew.presets import desk_config
from sew.training import SewConfig

_FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


def _model_bytes(deployment: bool) -> bytes:
    config = desk_config(latent_dim=3, k=2, d1=5, d2=4, w_encoder=MlpSpec((3, 3)), s_encoder=MlpSpec((3,)),
                         s_decoder1=MlpSpec((5,)), s_decoder2=MlpSpec((5,)),
                         regressor=GruRegressorSpec(num_layers=2, hidden=3))
    model = assemble_sew(config, d1=5, d2=4, seed=0)
    rng = np.random.default_rng(0)
    model.scaler_weak = Standardizer.fit(rng.standard_normal((4, 10)))
    model.scaler_strong = Standardizer.fit(rng.standard_normal((5, 10)))
    buf = io.BytesIO()
    save_model(model, buf, deployment=deployment)
    return buf.getvalue()


_FILES = {kind: _model_bytes(kind == "deployment") for kind in ("training", "deployment")}


def _members(kind: str) -> dict:
    with zipfile.ZipFile(io.BytesIO(_FILES[kind])) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def _zipped(members: dict) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, payload in members.items():
            zf.writestr(name, payload)
    return buf.getvalue()


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise TimeoutError in the block once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _load_and_serve(payload: bytes) -> None:
    """load_model, then predict on a few frames of the width it read; any
    SewError is an accepted outcome."""
    try:
        model = load_model(io.BytesIO(payload))
        model.predict(np.linspace(-2.0, 2.0, model.d2 * 3).reshape(model.d2, 3))
    except SewError:
        pass


# JSON values of every kind, and widths and counts far too large to
# allocate: a width read from meta.json allocates nothing before the
# member of that width is read and refutes it, and a layer count above the
# file's member count is refused before a layer is built
_HUGE = [10**7, 2**40, 2**62, 10**30]
_JSON_VALUES = st.sampled_from([None, True, False, 0, -1, 1, 2, 7, 2.5, -0.0, "", "mlp", "x", [], [1], [2, "a"],
                                [[3]], {}, {"a": 1}, {"hidden": 2}, *_HUGE, [_HUGE[0]], [3, _HUGE[1]]])


def _meta_paths(meta, prefix=()):
    """Every key path in a meta.json object, containers first."""
    items = meta.items() if isinstance(meta, dict) else enumerate(meta) if isinstance(meta, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _meta_paths(value, prefix + (key,))


@_FUZZ
@given(kind=st.sampled_from(sorted(_FILES)), pick=st.integers(0, 10**6), delete=st.booleans(), value=_JSON_VALUES)
@example(kind="deployment", pick=4, delete=False, value=10**7)  # blocks.regressor.num_layers
@example(kind="training", pick=2, delete=False, value=10**30)  # blocks.regressor.hidden
def test_meta_values_retyped_or_deleted(kind, pick, delete, value):
    members = _members(kind)
    meta = json.loads(members["meta.json"])
    paths = list(_meta_paths(meta))
    *parents, key = paths[pick % len(paths)]
    holder = meta
    for p in parents:
        holder = holder[p]
    if delete:
        del holder[key]
    else:
        holder[key] = value
    members["meta.json"] = json.dumps(meta).encode()
    tracemalloc.start()
    try:
        with _time_limit(10.0):
            _load_and_serve(_zipped(members))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"{'.'.join(map(str, parents + [key]))} = {value!r}: peak {peak / 1e6:.1f} MB"


@_FUZZ
@given(kind=st.sampled_from(sorted(_FILES)), member=st.integers(0, 100), at=st.integers(0, 10**6),
       flip=st.integers(1, 255), truncate=st.booleans())
def test_member_bytes_flipped_or_truncated(kind, member, at, flip, truncate):
    members = _members(kind)
    names = sorted(members)
    name = names[member % len(names)]
    raw = bytearray(members[name])
    at %= len(raw)
    if truncate:
        del raw[at:]
    else:
        raw[at] ^= flip
    members[name] = bytes(raw)
    _load_and_serve(_zipped(members))


_DTYPES = ["<f4", "<f2", "<i8", "|u1", "|b1", "<c16", "<U6", "|S6", "<M8[s]", "<m8[s]", "|V8",
           [("a", "<f8")], [("a", "<f4"), ("b", "<i2")]]


# a cast that drops data (complex to real) is an error here, not a warning
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@_FUZZ
@given(kind=st.sampled_from(sorted(_FILES)), member=st.integers(0, 100), dtype=st.sampled_from(range(len(_DTYPES))),
       reshape=st.sampled_from(["none", "transpose", "flat", "scalar", "drop_row", "extra_axis", "empty"]),
       fortran=st.booleans())
def test_arrays_saved_with_the_wrong_dtype_or_shape(kind, member, dtype, reshape, fortran):
    members = _members(kind)
    names = sorted(n for n in members if n.endswith(".npy"))
    name = names[member % len(names)]
    array = np.lib.format.read_array(io.BytesIO(members[name]))
    array = {"none": lambda a: a, "transpose": lambda a: a.T, "flat": np.ravel, "scalar": lambda a: a.flat[0],
             "drop_row": lambda a: a[1:], "extra_axis": lambda a: a[None], "empty": lambda a: a[:0]}[reshape](array)
    with np.errstate(all="ignore"):
        array = np.array(array, dtype=np.dtype(_DTYPES[dtype]), order="F" if fortran else "C")
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, allow_pickle=False)
    members[name] = buf.getvalue()
    _load_and_serve(_zipped(members))


# --- specs built in Python --------------------------------------------------

# values of the wrong shape for some field: scalars where a list belongs,
# lists and objects where a number belongs, numpy scalars and arrays, and
# objects JSON has no form for
_WRONG = [5, -1, 0, 2.5, math.nan, math.inf, "16", "", None, True, [], [3], [[3]], [3.0], (3,), {}, {"hidden": 2},
          {1: 2}, {1: 2, "a": 3}, np.int64(3), np.float64(2.0), np.array([3]), np.array(3), object(), b"3",
          MlpSpec((3,)), GruRegressorSpec()]

_VALID = {
    MlpSpec: dict(layer_sizes=(3, 2)),
    GruRegressorSpec: dict(num_layers=2, hidden=3),
    SyntheticSpec: dict(),
    SewConfig: desk_config().__dict__,
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cls=st.sampled_from(list(_VALID)), field=st.integers(0, 100), value=st.sampled_from(range(len(_WRONG))),
       unknown=st.booleans())
@example(cls=MlpSpec, field=0, value=0, unknown=False)  # MlpSpec(5)
@example(cls=GruRegressorSpec, field=0, value=0, unknown=True)  # an unknown keyword
def test_specs_built_from_python_values_of_the_wrong_shape(cls, field, value, unknown):
    kwargs = dict(_VALID[cls])
    names = sorted(f for f in cls.__dataclass_fields__)
    key = "width" if unknown else names[field % len(names)]
    kwargs[key] = _WRONG[value]
    try:
        cls(**kwargs)
    except SewError:
        pass


@pytest.mark.parametrize("build, message", [
    (lambda: MlpSpec(5), "layer_sizes must be a list of integers, got 5"),
    (lambda: MlpSpec(None), "layer_sizes must be a list of integers, got None"),
    (lambda: GruRegressorSpec(width=3), "unknown regressor key(s): width"),
    (lambda: SyntheticSpec(d1=32, size=3), "unknown dataset key(s): size"),
    (lambda: desk_config(regressor={1: 2}), "unknown regressor key(s): 1"),
])
def test_wrong_shape_errors_name_the_field(build, message):
    with pytest.raises(SewError) as exc:
        build()
    assert str(exc.value) == message


# --- dataset directories ----------------------------------------------------

def _desk_dir() -> dict:
    """The files of a small `sew gen-data` directory, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "data"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["gen-data", "--out", str(out), "--seed", "3", "--d1", "4", "--d2", "3", "--n-train", "100",
                      "--n-dev", "12"])
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


_DIR = _desk_dir()
# bytes that each break a rule of the accepted format, or keep to it
_INSERTS = [b",", b"\n", b"\r\n", b'"', b" ", b"\t", b"#", b"nan", b"inf", b"-", b"e999", b"1e-400", b"1_0",
            b"\xff", b"\xef\xbb\xbf", b"\xd9\xa1", b"\x00", b"0", b"a,b\n", b"\n\n"]


def _load_outcome(data_dir: Path, split: str, shift_seconds):
    """The arrays `_load_split` returns, with their layout, or the message
    of the SewError it raises."""
    try:
        with _time_limit(10.0):
            ds = cli._load_split(data_dir, split, shift_seconds, 0.04)
    except SewError as err:
        return str(err)
    return [(a.shape, a.dtype.str, a.strides, a.tobytes()) for a in (ds.m_s, ds.m_w, ds.labels)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_DIR)), edit=st.sampled_from(["insert", "delete", "truncate", "retype"]),
       at=st.integers(0, 10**6), span=st.integers(1, 40), insert=st.sampled_from(range(len(_INSERTS))),
       value=_JSON_VALUES, split=st.sampled_from(["train", "dev"]), shift=st.sampled_from([None, 0.0, 0.04, 0.2]))
def test_dataset_dirs_mutated_load_cold_then_warm(name, edit, at, span, insert, value, split, shift):
    files = dict(_DIR)
    raw = files[name]
    at %= len(raw) + 1
    if edit == "insert":
        raw = raw[:at] + _INSERTS[insert] * (1 + span % 3) + raw[at:]
    elif edit == "delete":
        raw = raw[:at] + raw[at + span:]
    elif edit == "truncate":
        raw = raw[:at]
    elif name == "dataset.json":  # retype one value, or the whole object
        meta = json.loads(raw)
        paths = list(_meta_paths(meta))
        pick = at % (len(paths) + 1)
        if pick == len(paths):
            meta = value
        else:
            *parents, key = paths[pick]
            holder = meta
            for p in parents:
                holder = holder[p]
            holder[key] = value
        raw = json.dumps(meta).encode()
    files[name] = raw
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp)
        for fname, payload in files.items():
            (data_dir / fname).write_bytes(payload)
        cold = _load_outcome(data_dir, split, shift)
        with mock.patch.object(sew.data, "_parse_numeric_csv", wraps=sew.data._parse_numeric_csv) as parse:
            warm = _load_outcome(data_dir, split, shift)
        assert warm == cold
        # a load that succeeded cached its three tables, and the next one parses none
        assert isinstance(cold, str) or (parse.call_count == 0 and len(list((data_dir / CACHE_DIR).iterdir())) == 3)
