"""Model blocks and assembly: MLP encoders/decoders, the regressor R, the
combined transfer model, and (de)serialization.

R is a stack of gated layers, each one GRU step from a zero hidden state,
h = sigmoid(W_z x + b_z) * tanh(W_h x + b_h), under a linear output layer.
Unlike the paper's GRU it runs over no time axis: every frame is scored
on its own, so the recurrent weights and the reset gate never act and are
not kept.

Conventions: features live in columns (a block maps in_dim x batch to
out_dim x batch); weights are out_dim x in_dim; biases are column vectors.

A block's `forward` takes the ops it runs as the keyword `ops`, a
namespace holding `affine`, `tanh_affine` and `gated`: the autodiff module
by default, which builds one graph node per layer over Nodes for training,
or `autodiff.array_ops`, which runs the same arithmetic on plain arrays
and builds nothing. `SewModel.deployment_forward` (serving, the dev pass)
uses the latter; both give the same bytes. `ops` is keyword-only, so a
wrapper that names a call from its positional arguments (as
perfbench/tracing.py does) sees (block, x) either way.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, Node, as_2d, make_rng, uniform_init
from .data import Standardizer
from .errors import ConfigError, DimensionError, ExportError, NumericError

# 2: the regressor's layers hold no recurrent or reset-gate weights. A
# format-1 file's extra members are never read; they never moved an output.
FORMAT_VERSION = 2
_READABLE_FORMATS = (1, 2)


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths of one encoder or decoder; tanh between layers only."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if not sizes:
            raise ConfigError("MlpSpec needs at least one layer")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"layer widths must be >= 1, got {sizes}")

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class GruRegressorSpec:
    num_layers: int = 4
    hidden: int = 120
    output: int = 1

    def __post_init__(self):
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        # the field is kept so that model files keep their bytes
        if self.output != 1:
            raise ConfigError(f"regressor.output must be 1 (one label row), got {self.output}")


def _param(rows: int, cols: int, fan_in: int, rng) -> Node:
    if rng is None:
        return Node(np.zeros((rows, cols)))
    return Node(uniform_init(rows, cols, fan_in, rng))


class Linear:
    """y = W x + b. Weight uniform in +-1/sqrt(in_dim), bias zero."""

    def __init__(self, in_dim: int, out_dim: int, rng):
        self.weight = _param(out_dim, in_dim, in_dim, rng)
        self.bias = Node(np.zeros((out_dim, 1)))

    def forward(self, x, *, ops=ad):
        return ops.affine(self.weight, x, self.bias)

    def named_parameters(self, prefix: str):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


class Mlp:
    TYPE = "mlp"  # its "type" in a model file
    SPEC = MlpSpec

    def __init__(self, spec: MlpSpec, input_dim: int, rng):
        if input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {input_dim}")
        self.spec = spec
        self.input_dim = int(input_dim)
        dims = (self.input_dim,) + spec.layer_sizes
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(len(spec.layer_sizes))]

    @property
    def output_dim(self) -> int:
        return self.spec.output_dim

    def forward(self, x, *, ops=ad):
        for layer in self.layers[:-1]:
            x = ops.tanh_affine(layer.weight, x, layer.bias)
        return self.layers[-1].forward(x, ops=ops)

    def named_parameters(self, prefix: str):
        out = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.named_parameters(f"{prefix}.layers.{i}"))
        return out


def _discard(rows: int, cols: int, fan_in: int, rng) -> None:
    """Advance `rng` past one weight draw that nothing keeps."""
    if rng is not None:
        uniform_init(rows, cols, fan_in, rng)


class GatedLayer:
    """One GRU step from a zero hidden state: with h = 0 the recurrent
    weights U_z, U_r, U_h and the whole reset gate drop out, leaving

    h = sigmoid(W_z x + b_z) * tanh(W_h x + b_h)
    """

    def __init__(self, in_dim: int, hidden: int, rng):
        # the draw order of a full GRU cell (W_z, U_z, W_r, U_r, W_h, U_h)
        # is part of the determinism contract: the dropped weights are
        # still drawn, so every weight drawn after them starts unchanged
        self.w_z = _param(hidden, in_dim, in_dim, rng)
        _discard(hidden, hidden, hidden, rng)
        _discard(hidden, in_dim, in_dim, rng)
        _discard(hidden, hidden, hidden, rng)
        self.w_h = _param(hidden, in_dim, in_dim, rng)
        _discard(hidden, hidden, hidden, rng)
        self.b_z = Node(np.zeros((hidden, 1)))
        self.b_h = Node(np.zeros((hidden, 1)))

    def forward(self, x, *, ops=ad):
        return ops.gated(self.w_z, self.b_z, self.w_h, self.b_h, x)

    def named_parameters(self, prefix: str):
        return [
            (f"{prefix}.w_z", self.w_z), (f"{prefix}.b_z", self.b_z),
            (f"{prefix}.w_h", self.w_h), (f"{prefix}.b_h", self.b_h),
        ]


class GruRegressor:
    """Stacked gated layers (each one GRU step from a zero hidden state)
    feeding one linear output layer."""

    TYPE = "gru_regressor"
    SPEC = GruRegressorSpec

    def __init__(self, spec: GruRegressorSpec, input_dim: int, rng):
        self.spec = spec
        self.input_dim = int(input_dim)
        self.cells = []
        in_dim = self.input_dim
        for _ in range(spec.num_layers):
            self.cells.append(GatedLayer(in_dim, spec.hidden, rng))
            in_dim = spec.hidden
        self.out = Linear(spec.hidden, spec.output, rng)

    def forward(self, x, *, ops=ad):
        for cell in self.cells:
            x = cell.forward(x, ops=ops)
        return self.out.forward(x, ops=ops)

    def named_parameters(self, prefix: str):
        out = []
        for i, cell in enumerate(self.cells):
            out.extend(cell.named_parameters(f"{prefix}.cells.{i}"))
        out.extend(self.out.named_parameters(f"{prefix}.out"))
        return out


# block -> (init stream, SewConfig field of its input width, of its output
# width, its class), in parameter and model-file order: R is the gated
# stack and ends at its one label row, the other four are MLPs. Fixed
# streams start e.g. the weak encoder identically in every block set built
# from one seed.
BLOCKS = {
    "w_encoder": (1, "d2", "latent_dim", Mlp),
    "s_decoder1": (2, "latent_dim", "d1", Mlp),
    "s_encoder": (3, "d1", "latent_dim", Mlp),
    "s_decoder2": (4, "latent_dim", "d1", Mlp),
    "regressor": (5, "latent_dim", None, GruRegressor),
}
# the blocks a deployment export keeps: predict runs W_E then R
DEPLOYED = ("w_encoder", "regressor")
# feature scaler -> the SewConfig width it standardizes, in model-file
# order; a deployment keeps the one predict applies, on d2
SCALERS = {"scaler_weak": "d2", "scaler_strong": "d1"}


class SewModel:
    """The assembled transfer model.

    Blocks the run does not train are None. Feature scalers are
    attached by the trainer; the weak-side scaler travels with deployment
    exports so predict() reproduces training-time evaluation exactly.
    """

    def __init__(self, latent_dim: int, d1: int, d2: int, w_encoder, regressor,
                 s_decoder1=None, s_encoder=None, s_decoder2=None):
        self.latent_dim, self.d1, self.d2 = int(latent_dim), int(d1), int(d2)
        self.w_encoder, self.regressor = w_encoder, regressor
        self.s_decoder1, self.s_encoder, self.s_decoder2 = s_decoder1, s_encoder, s_decoder2
        self.scaler_strong: Standardizer | None = None
        self.scaler_weak: Standardizer | None = None

    def blocks(self):
        """(name, block) of each built block, in `BLOCKS` order."""
        return [(name, getattr(self, name)) for name in BLOCKS if getattr(self, name) is not None]

    def named_parameters(self):
        out = []
        for name, block in self.blocks():
            out.extend(block.named_parameters(name))
        return out

    def deployment_forward(self, m_w: Node) -> Node:
        """W_E then R, the only path that exists after export, run on the
        parameters' arrays: no graph, and a constant with no parents out.
        Its values are not inspected."""
        if m_w.value.shape[0] != self.w_encoder.input_dim:
            raise DimensionError(f"expected {self.w_encoder.input_dim}-d weaker features, "
                                 f"got {m_w.value.shape[0]} rows")
        latent = self.w_encoder.forward(m_w.value, ops=ad.array_ops)
        return ad.unchecked_constant(self.regressor.forward(latent, ops=ad.array_ops))

    def predict(self, m_w) -> Matrix:
        """Predict labels from raw (unstandardized) weaker-modality features.

        Finiteness is checked once on the way in, on the standardized frame
        the model reads, and once on the way out: NumericError if either
        holds NaN or Inf.
        """
        m_w = as_2d(m_w, "m_w")
        if m_w.shape[0] != self.d2:
            raise DimensionError(f"expected {self.d2}-d weaker features, got {m_w.shape[0]} rows")
        if self.scaler_weak is not None:
            m_w = self.scaler_weak.apply(m_w)
        out = self.deployment_forward(ad.constant(m_w, "m_w")).value
        if not np.isfinite(out).all():
            raise NumericError("predict: the model output holds NaN or Inf")
        return out


def assemble_sew(config, d1: int, d2: int, seed: int) -> SewModel:
    """Build the blocks `config.blocks` names, each on its `BLOCKS` init
    stream and input width (d1 and d2 from the arguments).

    config is a validated SewConfig (its widths are checked there, not
    here): it supplies latent_dim, the block set, and the block
    specs (MlpSpec; GruRegressorSpec for the regressor).
    """
    widths = {"latent_dim": int(config.latent_dim), "d1": d1, "d2": d2}
    built = {}
    for name in config.blocks:
        stream, source, _, cls = BLOCKS[name]
        built[name] = cls(getattr(config, name), widths[source], make_rng(seed, stream))
    return SewModel(widths["latent_dim"], d1, d2, **built)


# --- serialization ---------------------------------------------------------
# A model file is a stored (uncompressed) zip of .npy members plus meta.json.
# Zip entry timestamps are pinned so identical models give identical bytes.

_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _write_member(zf: zipfile.ZipFile, name: str, payload: bytes) -> None:
    info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
    info.compress_type = zipfile.ZIP_STORED
    zf.writestr(info, payload)


def _npy_bytes(arr: Matrix) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr), allow_pickle=False)
    return buf.getvalue()


def _block_meta(name: str, block) -> dict:
    return {"type": BLOCKS[name][3].TYPE, **asdict(block.spec), "input_dim": block.input_dim}


def save_model(model: SewModel, path, deployment: bool = False) -> None:
    """Write the model to `path`; deployment=True keeps only W_E and R."""
    if deployment and any(getattr(model, name) is None for name in DEPLOYED):
        raise ExportError("deployment export needs both the weak encoder and the regressor")
    kept = [(name, block) for name, block in model.blocks() if not deployment or name in DEPLOYED]
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "deployment" if deployment else "training",
        "latent_dim": model.latent_dim,
        "d1": model.d1,
        "d2": model.d2,
        "blocks": {name: _block_meta(name, block) for name, block in kept},
        "scalers": [],
    }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        arrays = []
        for name, block in kept:
            arrays.extend(block.named_parameters(name))
        for sname, width in SCALERS.items():
            scaler = getattr(model, sname)
            if scaler is None or (deployment and width != "d2"):
                continue
            meta["scalers"].append(sname)
            arrays.append((f"{sname}.mean", scaler.mean))
            arrays.append((f"{sname}.scale", scaler.scale))
        _write_member(zf, "meta.json", json.dumps(meta, sort_keys=True, indent=1).encode())
        for pname, param in arrays:
            value = param.value if isinstance(param, Node) else param
            _write_member(zf, pname + ".npy", _npy_bytes(value))


def _read_npy(zf: zipfile.ZipFile, path, name: str) -> Matrix:
    """A member as a finite float64 array; anything else names the member."""
    try:
        with zf.open(name) as fh:
            stored = np.lib.format.read_array(io.BytesIO(fh.read()), allow_pickle=False)
        stored = np.asarray(stored, dtype=np.float64)
    except KeyError:
        raise ExportError(f"{path}: model file lacks member {name}") from None
    except (zipfile.BadZipFile, ValueError, TypeError) as err:
        raise ExportError(f"{path}: member {name} is unreadable ({err})") from None
    if not np.isfinite(stored).all():
        raise ExportError(f"{path}: member {name} holds NaN or Inf")
    return stored


def _meta_int(path, key: str, value):
    """A meta.json width or count, or a list of them: JSON integers, as in a config."""
    if type(value) is list:
        return [_meta_int(path, f"{key}[{i}]", v) for i, v in enumerate(value)]
    if type(value) is not int:
        raise ExportError(f"{path}: meta.json {key} must be an integer, got {json.dumps(value)}")
    return value


def _rebuild_block(path, name: str, info):
    """An all-zero block `name` of the shape `info`, its meta.json entry,
    describes. `BLOCKS` gives its class; a stored "type" that disagrees is
    refused."""
    key, cls = f"blocks.{name}", BLOCKS[name][3]
    if not isinstance(info, dict):
        raise ExportError(f"{path}: meta.json {key} must be a JSON object, got {info!r}")
    if info["type"] != cls.TYPE:
        raise ExportError(f"{path}: meta.json {key}.type must be {json.dumps(cls.TYPE)}, "
                          f"got {json.dumps(info['type'])}")
    spec = cls.SPEC(**{f.name: _meta_int(path, f"{key}.{f.name}", info[f.name]) for f in fields(cls.SPEC)})
    return cls(spec, _meta_int(path, f"{key}.input_dim", info["input_dim"]), None)


def load_model(path) -> SewModel:
    """Read a model file. Its parameters are constants (their grad is None),
    so an optimizer refuses them."""
    try:
        zf = zipfile.ZipFile(path, "r")
    except zipfile.BadZipFile:
        raise ExportError(f"{path}: not a model file (not a zip archive)") from None
    with zf:
        try:
            meta = json.loads(zf.read("meta.json"))
        except KeyError:
            raise ExportError(f"{path}: not a model file (missing meta.json)") from None
        except ValueError as err:
            raise ExportError(f"{path}: meta.json is not valid JSON ({err})") from None
        if not isinstance(meta, dict):
            raise ExportError(f"{path}: meta.json must be a JSON object")
        version = meta.get("format_version")
        if type(version) is not int or version not in _READABLE_FORMATS:
            raise ExportError(f"{path}: unsupported model format {version!r}")
        try:
            blocks = meta["blocks"]
            if not isinstance(blocks, dict):
                raise ExportError(f"{path}: meta.json 'blocks' must be a JSON object, got {blocks!r}")
            for required in DEPLOYED:
                if blocks.get(required) is None:
                    raise KeyError(required)
            widths = {key: _meta_int(path, key, meta[key]) for key in ("latent_dim", "d1", "d2")}
            built = {name: _rebuild_block(path, name, blocks[name]) for name in BLOCKS if blocks.get(name) is not None}
            # an "ablation" key, which older files hold, is not read
            model = SewModel(**widths, **built)
            scalers = list(meta["scalers"])
        except KeyError as err:
            raise ExportError(f"{path}: meta.json lacks required key {err.args[0]!r}") from None
        except (TypeError, ValueError, ConfigError) as err:
            raise ExportError(f"{path}: meta.json is malformed ({err})") from None
        # every width against the field `BLOCKS` and `SCALERS` name for it
        for name, block in model.blocks():
            _, source, target, _ = BLOCKS[name]
            if block.input_dim != widths[source]:
                raise ExportError(f"{path}: meta.json {source} is {widths[source]}, "
                                  f"but blocks.{name}.input_dim is {block.input_dim}")
            if target and block.output_dim != widths[target]:
                raise ExportError(f"{path}: meta.json {target} is {widths[target]}, "
                                  f"but blocks.{name} ends at {block.output_dim}")
        for pname, param in model.named_parameters():
            stored = _read_npy(zf, path, pname + ".npy")
            if stored.shape != param.value.shape:
                raise ExportError(f"{path}: parameter {pname} has shape {stored.shape}, expected {param.value.shape}")
            param.value = stored
            param.grad = None
        for sname in scalers:
            if not isinstance(sname, str) or sname not in SCALERS:
                raise ExportError(f"{path}: unknown scaler {sname!r} in meta.json")
            scaler = Standardizer(_read_npy(zf, path, sname + ".mean.npy"), _read_npy(zf, path, sname + ".scale.npy"))
            if not (scaler.scale > 0).all():
                raise ExportError(f"{path}: member {sname}.scale.npy holds a scale <= 0")
            field = SCALERS[sname]
            if not scaler.mean.shape == scaler.scale.shape == (widths[field], 1):
                raise ExportError(f"{path}: meta.json {field} is {widths[field]}, but the {sname} members "
                                  f"have shapes {scaler.mean.shape} and {scaler.scale.shape}")
            setattr(model, sname, scaler)
    return model
