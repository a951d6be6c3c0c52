"""Model blocks and assembly: MLP encoders/decoders, the regressor R, the
combined transfer model, and (de)serialization.

R is a stack of gated layers, each one GRU step from a zero hidden state,
h = sigmoid(W_z x + b_z) * tanh(W_h x + b_h), under a linear output layer.
Unlike the paper's GRU it runs over no time axis: every frame is scored
on its own, so the recurrent weights and the reset gate never act and are
not kept.

Conventions: features live in columns (a block maps in_dim x batch to
out_dim x batch); weights are out_dim x in_dim; biases are column vectors.

A block's `forward` takes the ops it runs as the keyword `ops`: the
autodiff module by default, which builds a graph over Nodes for training,
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
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, Node, as_2d, make_rng, uniform_init
from .data import Standardizer
from .errors import ConfigError, DimensionError, ExportError, NumericError

# 2: the regressor's layers hold no recurrent or reset-gate weights. A
# format-1 file's extra members are never read; they never moved an output.
FORMAT_VERSION = 2
_READABLE_FORMATS = (1, 2)

# fixed init streams so e.g. the weak encoder starts identically across
# ablation variants built from the same seed
_BLOCK_STREAMS = {
    "w_encoder": 1,
    "s_decoder1": 2,
    "s_encoder": 3,
    "s_decoder2": 4,
    "regressor": 5,
}


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
            x = ops.tanh(layer.forward(x, ops=ops))
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
        z = ops.sigmoid(ops.affine(self.w_z, x, self.b_z))
        cand = ops.tanh(ops.affine(self.w_h, x, self.b_h))
        return ops.elementwise_mul(z, cand)

    def named_parameters(self, prefix: str):
        return [
            (f"{prefix}.w_z", self.w_z), (f"{prefix}.b_z", self.b_z),
            (f"{prefix}.w_h", self.w_h), (f"{prefix}.b_h", self.b_h),
        ]


class GruRegressor:
    """Stacked gated layers (each one GRU step from a zero hidden state)
    feeding one linear output layer."""

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


class SewModel:
    """The assembled transfer model.

    Blocks the run does not train are None. Feature scalers are
    attached by the trainer; the weak-side scaler travels with deployment
    exports so predict() reproduces training-time evaluation exactly.
    """

    def __init__(
        self,
        latent_dim: int,
        d1: int,
        d2: int,
        ablation: str,
        w_encoder: Mlp,
        regressor: GruRegressor,
        s_decoder1: Mlp | None = None,
        s_encoder: Mlp | None = None,
        s_decoder2: Mlp | None = None,
    ):
        self.latent_dim = int(latent_dim)
        self.d1 = int(d1)
        self.d2 = int(d2)
        self.ablation = ablation
        self.w_encoder = w_encoder
        self.regressor = regressor
        self.s_decoder1 = s_decoder1
        self.s_encoder = s_encoder
        self.s_decoder2 = s_decoder2
        self.scaler_strong: Standardizer | None = None
        self.scaler_weak: Standardizer | None = None

    def blocks(self):
        pairs = [
            ("w_encoder", self.w_encoder),
            ("s_decoder1", self.s_decoder1),
            ("s_encoder", self.s_encoder),
            ("s_decoder2", self.s_decoder2),
            ("regressor", self.regressor),
        ]
        return [(name, block) for name, block in pairs if block is not None]

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
    """Build the blocks `config.blocks` names, with one init stream per block.

    config is a validated SewConfig (its widths are checked there, not
    here): it supplies latent_dim, ablation, the block set, and the block
    specs (w_encoder, s_decoder1, s_encoder, s_decoder2: MlpSpec;
    regressor: GruRegressorSpec). Per-block streams keep shared blocks
    bit-identical across block sets.
    """
    latent = int(config.latent_dim)
    in_dims = {"w_encoder": d2, "s_encoder": d1, "s_decoder1": latent, "s_decoder2": latent}
    mlps = {name: Mlp(getattr(config, name), in_dims[name], make_rng(seed, _BLOCK_STREAMS[name]))
            for name in config.blocks & in_dims.keys()}
    regressor = GruRegressor(config.regressor, latent, make_rng(seed, _BLOCK_STREAMS["regressor"]))
    return SewModel(latent, d1, d2, config.ablation, regressor=regressor, **mlps)


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


def _block_meta(block) -> dict:
    if isinstance(block, Mlp):
        return {"type": "mlp", "layer_sizes": list(block.spec.layer_sizes), "input_dim": block.input_dim}
    return {
        "type": "gru_regressor",
        "num_layers": block.spec.num_layers,
        "hidden": block.spec.hidden,
        "output": block.spec.output,
        "input_dim": block.input_dim,
    }


def save_model(model: SewModel, path, deployment: bool = False) -> None:
    """Write the model to `path`; deployment=True keeps only W_E and R."""
    if deployment and (model.w_encoder is None or model.regressor is None):
        raise ExportError("deployment export needs both the weak encoder and the regressor")
    kept = [("w_encoder", model.w_encoder), ("regressor", model.regressor)] if deployment else model.blocks()
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "deployment" if deployment else "training",
        "latent_dim": model.latent_dim,
        "d1": model.d1,
        "d2": model.d2,
        "ablation": model.ablation,
        "blocks": {name: _block_meta(block) for name, block in kept},
        "scalers": [],
    }
    scalers = [("scaler_weak", model.scaler_weak)]
    if not deployment:
        scalers.append(("scaler_strong", model.scaler_strong))
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        arrays = []
        for name, block in kept:
            arrays.extend(block.named_parameters(name))
        for sname, scaler in scalers:
            if scaler is None:
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


def _rebuild_block(path, info):
    """An all-zero block of the shape `info` (one entry of meta.json's
    "blocks") describes."""
    if not isinstance(info, dict):
        raise ExportError(f"{path}: a meta.json block entry must be a JSON object, got {info!r}")
    if info["type"] == "mlp":
        return Mlp(MlpSpec(tuple(info["layer_sizes"])), info["input_dim"], None)
    if info["type"] == "gru_regressor":
        spec = GruRegressorSpec(info["num_layers"], info["hidden"], info["output"])
        return GruRegressor(spec, info["input_dim"], None)
    raise ExportError(f"{path}: unknown block type {info['type']!r}")


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
        if meta.get("format_version") not in _READABLE_FORMATS:
            raise ExportError(f"{path}: unsupported model format {meta.get('format_version')!r}")
        try:
            blocks = meta["blocks"]
            if not isinstance(blocks, dict):
                raise ExportError(f"{path}: meta.json 'blocks' must be a JSON object, got {blocks!r}")
            for required in ("w_encoder", "regressor"):
                if blocks.get(required) is None:
                    raise KeyError(required)
            built = {name: _rebuild_block(path, blocks[name]) for name in _BLOCK_STREAMS
                     if blocks.get(name) is not None}
            model = SewModel(meta["latent_dim"], meta["d1"], meta["d2"], meta["ablation"], **built)
            scalers = meta["scalers"]
        except KeyError as err:
            raise ExportError(f"{path}: meta.json lacks required key {err.args[0]!r}") from None
        except (TypeError, ValueError, ConfigError) as err:
            raise ExportError(f"{path}: meta.json is malformed ({err})") from None
        # the widths predict chains: d2 -> W_E -> R
        w_in, w_out, r_in = model.w_encoder.input_dim, model.w_encoder.output_dim, model.regressor.input_dim
        if w_in != model.d2:
            raise ExportError(f"{path}: meta.json d2 is {model.d2}, but blocks.w_encoder.input_dim is {w_in}")
        if r_in != w_out:
            raise ExportError(f"{path}: meta.json blocks.regressor.input_dim is {r_in}, "
                              f"but blocks.w_encoder ends at {w_out}")
        for pname, param in model.named_parameters():
            stored = _read_npy(zf, path, pname + ".npy")
            if stored.shape != param.value.shape:
                raise ExportError(f"{path}: parameter {pname} has shape {stored.shape}, expected {param.value.shape}")
            param.value = stored
            param.grad = None
        for sname in scalers:
            if sname not in ("scaler_weak", "scaler_strong"):
                raise ExportError(f"{path}: unknown scaler {sname!r} in meta.json")
            scaler = Standardizer(_read_npy(zf, path, sname + ".mean.npy"), _read_npy(zf, path, sname + ".scale.npy"))
            if not (scaler.scale > 0).all():
                raise ExportError(f"{path}: member {sname}.scale.npy holds a scale <= 0")
            setattr(model, sname, scaler)
    return model
