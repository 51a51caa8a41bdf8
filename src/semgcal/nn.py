"""The two network architectures, their parameter container and serialization.

Both networks share the same skeleton: a feature extractor (conv blocks or
fully connected blocks, each convolution/linear -> batch norm -> leaky ReLU
-> dropout), followed by a gesture head and a domain head. The domain head is
reached through a gradient-reversal node so that domain-adversarial training
can push the features toward session invariance.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import struct
import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, ParameterError, SemgCalError, ShapeError, UsageError

EVAL_BATCH = 1024  # rows per eval-mode forward pass

# Spectrogram ConvNet block layout: channels per block, all 3x3 valid
# convolutions without bias (the batch norm absorbs it). With the 11-gesture
# head this comes to exactly 206 548 learnable parameters.
CONVNET_CHANNELS = (32, 54, 94, 167)
CONVNET_KERNEL = (3, 3)
CONVNET_INPUT_SHAPE = (4, 10, 24)

TSD_INPUT_DIM = 385
TSD_HIDDEN = (200, 200, 200)

# The container ends in a CRC32 of everything after the magic.
_MAGIC = b"SEMGNET2"


class Conv2d:
    def __init__(self, name, in_c, out_c, kh, kw, rng, dtype):
        bound = 1.0 / np.sqrt(in_c * kh * kw)
        self.name = name
        self.w = Tensor(rng.uniform(-bound, bound, (out_c, in_c, kh, kw)).astype(dtype), requires_grad=True)

    def params(self):
        return [(f"{self.name}.w", self.w)]

    def __call__(self, x, ctx):
        return ad.conv2d(x, self.w)


class Linear:
    def __init__(self, name, in_f, out_f, rng, dtype):
        bound = 1.0 / np.sqrt(in_f)
        self.name = name
        self.w = Tensor(rng.uniform(-bound, bound, (out_f, in_f)).astype(dtype), requires_grad=True)
        self.b = Tensor(rng.uniform(-bound, bound, out_f).astype(dtype), requires_grad=True)

    def params(self):
        return [(f"{self.name}.w", self.w), (f"{self.name}.b", self.b)]

    def __call__(self, x, ctx):
        return ad.linear(x, self.w, self.b)


class BatchNorm:
    def __init__(self, name, num_features, dtype):
        self.name = name
        self.gamma = Tensor(np.ones(num_features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)

    def params(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def stats(self):
        return [(f"{self.name}.running_mean", self.running_mean),
                (f"{self.name}.running_var", self.running_var)]

    def set_stats(self, mean, var):
        self.running_mean = np.asarray(mean, dtype=self.running_mean.dtype).copy()
        self.running_var = np.asarray(var, dtype=self.running_var.dtype).copy()

    def __call__(self, x, ctx):
        return ad.batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                             training=ctx.training)


class LeakyReLU:
    def params(self):
        return []

    def __call__(self, x, ctx):
        return ad.leaky_relu(x)


class Dropout:
    def params(self):
        return []

    def __call__(self, x, ctx):
        if not ctx.training or ctx.rng is None:
            return x
        return ad.dropout(x, ctx.rng)


class GlobalAvgPool:
    def params(self):
        return []

    def __call__(self, x, ctx):
        return ad.global_avg_pool(x)


class _Ctx:
    __slots__ = ("training", "rng")

    def __init__(self, training, rng):
        self.training = training
        self.rng = rng


class Network:
    """Parameter set of one classifier: feature extractor plus two heads.

    Holds every trainable tensor under a unique name, the batch-norm running
    statistics, and a training-mode flag. Instances are mutated only by their
    owning training loop; a trained network is safe to share for inference.
    """

    def __init__(self, kind, num_gestures, feature_layers, gesture_head, domain_head, input_shape):
        self.kind = kind
        self.num_gestures = num_gestures
        self.feature_layers = feature_layers
        self.gesture_head = gesture_head
        self.domain_head = domain_head
        self.input_shape = tuple(input_shape)
        self.training = False

    # -- parameter access ---------------------------------------------------
    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for layer in self.feature_layers:
            for name, t in layer.params():
                if name in out:
                    raise UsageError(f"duplicate parameter name {name}")
                out[name] = t
        for name, t in self.gesture_head.params():
            out[name] = t
        if self.domain_head is not None:
            for name, t in self.domain_head.params():
                out[name] = t
        return out

    def bn_layers(self) -> list[BatchNorm]:
        return [l for l in self.feature_layers if isinstance(l, BatchNorm)]

    def named_stats(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for bn in self.bn_layers():
            for name, arr in bn.stats():
                out[name] = arr
        return out

    def num_parameters(self) -> int:
        return sum(t.data.size for t in self.named_parameters().values())

    def zero_grad(self):
        for t in self.named_parameters().values():
            t.zero_grad()

    def train(self, mode: bool = True):
        self.training = mode
        return self

    def eval(self):
        return self.train(False)

    def clone(self) -> "Network":
        return copy.deepcopy(self)

    # -- forward ------------------------------------------------------------
    def layer_input(self, x) -> Tensor:
        """`x` checked against the input shape and laid out for the first
        feature layer: image batches (N, C, H, W) become the channel-major
        (C, N, H, W) the conv stack keeps up to its global average pool."""
        t = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
        if tuple(t.data.shape[1:]) != self.input_shape:
            raise ShapeError(f"expected input shape (N, {self.input_shape}), got {t.data.shape}")
        return ad._channel_major(t) if t.data.ndim == 4 else t

    def features(self, x, rng=None) -> Tensor:
        t = self.layer_input(x)
        ctx = _Ctx(self.training, rng)
        for layer in self.feature_layers:
            t = layer(t, ctx)
        return t

    def logits(self, x, rng=None) -> Tensor:
        """The gesture head's logits."""
        return self.head_logits(self.features(x, rng=rng), "gesture")

    def head_logits(self, feats: Tensor, head: str, grl_lambda: float | None = None) -> Tensor:
        """`head` ("gesture" or "domain") over `feats`; the domain head reads
        them through a gradient reversal of `grl_lambda` when one is given."""
        if head == "gesture":
            layer = self.gesture_head
        elif head == "domain":
            if self.domain_head is None:
                raise UsageError("this network has no domain head")
            layer = self.domain_head
            if grl_lambda is not None:
                feats = ad.gradient_reversal(feats, grl_lambda)
        else:
            raise UsageError(f"unknown head {head!r}")
        return layer(feats, _Ctx(self.training, None))

    @contextlib.contextmanager
    def evaluating(self):
        """Eval mode for the length of the block; the training flag is
        restored on exit, also when the block raises."""
        was_training = self.training
        self.training = False
        try:
            yield self
        finally:
            self.training = was_training

    def eval_logits(self, x) -> np.ndarray:
        """Eval-mode gesture logits, computed off the tape in batches of
        `EVAL_BATCH` rows. Zero rows give a (0, num_gestures) float32 array."""
        if len(x) == 0:
            self.layer_input(x)  # the shape check every batch gets
            return np.zeros((0, self.num_gestures), dtype=np.float32)
        with self.evaluating(), ad.no_grad():
            return np.concatenate([self.logits(x[lo : lo + EVAL_BATCH]).data
                                   for lo in range(0, len(x), EVAL_BATCH)])

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode gesture softmax rows of `eval_logits`."""
        return ad.softmax_rows(self.eval_logits(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_probs(x), axis=1)

    # -- state export -------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: t.data for name, t in self.named_parameters().items()}
        arrays.update(self.named_stats())
        return arrays

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        params = self.named_parameters()
        stats_names = set(self.named_stats())
        for name, t in params.items():
            if name not in arrays:
                raise UsageError(f"missing parameter {name} in state")
            if arrays[name].shape != t.data.shape:
                raise ShapeError(f"shape mismatch for {name}")
            t.data = arrays[name].astype(t.data.dtype).copy()
        for bn in self.bn_layers():
            mean_name, var_name = (n for n, _ in bn.stats())
            bn.set_stats(arrays[mean_name], arrays[var_name])
        extra = set(arrays) - set(params) - stats_names
        if extra:
            raise UsageError(f"unexpected tensors in state: {sorted(extra)}")


def build_spectrogram_convnet(num_gestures: int, seed: int = 0) -> Network:
    """Four conv blocks (conv -> BN -> leaky ReLU -> dropout), global average
    pooling, then an 11-way (or 7-way) gesture head and a 2-way domain head."""
    if num_gestures not in (7, 11):
        raise ParameterError(f"num_gestures must be 7 or 11, got {num_gestures}")
    rng = np.random.default_rng(seed)
    layers = []
    in_c = CONVNET_INPUT_SHAPE[0]
    kh, kw = CONVNET_KERNEL
    for i, out_c in enumerate(CONVNET_CHANNELS):
        layers.append(Conv2d(f"b{i}.conv", in_c, out_c, kh, kw, rng, np.float32))
        layers.append(BatchNorm(f"b{i}.bn", out_c, np.float32))
        layers.append(LeakyReLU())
        layers.append(Dropout())
        in_c = out_c
    layers.append(GlobalAvgPool())
    gesture = Linear("gesture_head", in_c, num_gestures, rng, np.float32)
    domain = Linear("domain_head", in_c, 2, rng, np.float32)
    return Network("spectrogram_convnet", num_gestures, layers, gesture, domain, CONVNET_INPUT_SHAPE)


def build_tsd_dnn(num_gestures: int, seed: int = 0) -> Network:
    """Three 200-wide fully connected blocks (linear -> BN -> leaky ReLU(0.1)
    -> dropout) over the 385-value TSD vector, plus the two heads."""
    if num_gestures not in (7, 11):
        raise ParameterError(f"num_gestures must be 7 or 11, got {num_gestures}")
    rng = np.random.default_rng(seed)
    layers = []
    in_f = TSD_INPUT_DIM
    for i, width in enumerate(TSD_HIDDEN):
        layers.append(Linear(f"fc{i}", in_f, width, rng, np.float32))
        layers.append(BatchNorm(f"fc{i}.bn", width, np.float32))
        layers.append(LeakyReLU())
        layers.append(Dropout())
        in_f = width
    gesture = Linear("gesture_head", in_f, num_gestures, rng, np.float32)
    domain = Linear("domain_head", in_f, 2, rng, np.float32)
    return Network("tsd_dnn", num_gestures, layers, gesture, domain, (TSD_INPUT_DIM,))


_BUILDERS = {
    "spectrogram_convnet": build_spectrogram_convnet,
    "tsd_dnn": build_tsd_dnn,
}


def save_network(model: Network, path) -> None:
    """Versioned binary container: named tensors as little-endian float32.

    Layout: the magic `SEMGNET2`, the metadata and tensors, then a
    little-endian CRC32 (`zlib.crc32`) of every byte between the magic and
    the checksum.
    """
    buf = io.BytesIO()
    meta = {"kind": model.kind, "num_gestures": model.num_gestures}
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    buf.write(struct.pack("<I", len(meta_bytes)))
    buf.write(meta_bytes)
    arrays = model.state_arrays()
    buf.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        raw = np.ascontiguousarray(arr, dtype="<f4")
        name_b = name.encode()
        buf.write(struct.pack("<H", len(name_b)))
        buf.write(name_b)
        buf.write(struct.pack("<B", raw.ndim))
        buf.write(struct.pack(f"<{raw.ndim}I", *raw.shape))
        buf.write(raw.tobytes())
    body = buf.getvalue()
    with open(path, "wb") as fh:
        fh.write(_MAGIC + body + struct.pack("<I", zlib.crc32(body)))


def load_network(path) -> Network:
    """Read a `save_network` container.

    A container whose checksum does not match its contents raises DataError,
    as does a missing, truncated or corrupt file; a file that does not start
    with the `SEMGNET2` magic (an older `SEMGNET1` file included) raises
    UsageError.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read network {path}: {exc}") from exc
    if blob[: len(_MAGIC)] != _MAGIC:
        raise UsageError(f"{path}: not a network container")
    body = blob[len(_MAGIC) :]
    if len(body) < 4 or struct.unpack("<I", body[-4:])[0] != zlib.crc32(body[:-4]):
        raise DataError(f"{path}: network container fails its checksum")
    body = body[:-4]
    try:
        return _parse_network(body)
    except SemgCalError:
        raise
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: corrupt network container ({exc!r})") from exc


def _parse_network(blob: bytes) -> Network:
    off = 0
    (meta_len,) = struct.unpack_from("<I", blob, off)
    off += 4
    meta = json.loads(blob[off : off + meta_len])
    off += meta_len
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off : off + name_len].decode()
        off += name_len
        (ndim,) = struct.unpack_from("<B", blob, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}I", blob, off)
        off += 4 * ndim
        size = math.prod(shape)
        if off + 4 * size > len(blob):
            raise ValueError(f"tensor {name!r} runs past the end of the file")
        arr = np.frombuffer(blob, dtype="<f4", count=size, offset=off).reshape(shape)
        off += 4 * size
        arrays[name] = arr.copy()
    if off != len(blob):
        raise ValueError(f"{len(blob) - off} trailing bytes")
    model = _BUILDERS[meta["kind"]](meta["num_gestures"])
    model.load_state_arrays(arrays)
    return model
