"""Operator surrogate for the kernel solver: branch-trunk network.

The network maps m samples of the coupling estimate c_hat to the two
gain kernels at the nodes of the triangular kernel mesh.  A branch
stack embeds the samples into a latent vector g, a trunk stack embeds
a node (x, xi) into f, and each output head is the weighted inner
product sum_i alpha_i g_i f_i.  NeuralKernelSource serves the loop;
training and scoring form the same products batch by batch.
Everything is float64 numpy: dense layers with tanh hidden units,
analytic backprop, and an adaptive-moment optimizer, so training is
reproducible bit-for-bit from (seed, config).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from arzno.kernels import (
    KernelPair,
    TriMesh,
    _ku_and_ratio,
    _kv_from_edge,
    _tril_layout,
)
from arzno.model import LinearizedParams

__all__ = [
    "ModelFormatError",
    "DeepONetModel",
    "TrainConfig",
    "KernelDataset",
    "as_kernel_dataset",
    "mesh_queries",
    "init_model",
    "loss_and_grads",
    "train",
    "eval_accuracy",
    "save_model",
    "load_model",
    "NeuralKernelSource",
]

_MAGIC = b"AZNO"
_VERSION = 1


class ModelFormatError(ValueError):
    """Raised for malformed, truncated, or mismatched model files."""


def _layer_sizes(m: int, hidden: tuple[int, ...], b: int) -> list[int]:
    return [m, *hidden, b]


def _expected_shapes(
    m: int, hidden: tuple[int, ...], b: int
) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {"head": (2, b)}
    for prefix, first in (("branch", m), ("trunk", 2)):
        sizes = _layer_sizes(first, hidden, b)
        for layer, (din, dout) in enumerate(zip(sizes[:-1], sizes[1:])):
            shapes[f"{prefix}_w{layer}"] = (din, dout)
            shapes[f"{prefix}_b{layer}"] = (dout,)
    return shapes


@dataclass
class DeepONetModel:
    """Parameters and structure of the kernel surrogate.

    Attributes:
        m: branch input size (samples of c_hat on the mesh edge grid).
        b: latent width (number of basis pairs).
        hidden: hidden layer widths, shared by branch and trunk.
        c_scale: input normalization; the branch sees c_hat / c_scale.
        params: weight dict; keys {branch,trunk}_{w,b}{layer} and "head"
            with head[0] the Ku coefficients and head[1] the Kv ones.
    """

    m: int
    b: int
    hidden: tuple[int, ...]
    c_scale: float
    params: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.m < 1 or self.b < 1 or not self.hidden:
            raise ValueError("m, b must be positive and hidden non-empty")
        if self.c_scale <= 0:
            raise ValueError("c_scale must be positive")
        expected = _expected_shapes(self.m, tuple(self.hidden), self.b)
        if set(self.params) != set(expected):
            raise ValueError("parameter keys do not match the architecture")
        for key, shape in expected.items():
            arr = np.asarray(self.params[key], dtype=float)
            if arr.shape != shape:
                raise ValueError(f"parameter {key} must have shape {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"parameter {key} contains non-finite values")
            self.params[key] = arr


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings: first-order adaptive-moment method."""

    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 200
    val_split: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("lr, batch_size, epochs must be positive")
        if not 0.0 < self.val_split < 1.0:
            raise ValueError("val_split must lie in (0, 1)")


@dataclass(frozen=True)
class KernelDataset:
    """Stacked training arrays on a shared mesh, holding what records hold.

    ku holds Ku's lower-triangle node values in row-major tril order,
    matching the serialized kernel records, and ratio each record's
    lam r / mu from its header.  Kv is not held: training and scoring
    rebuild it from the edge of Ku for the rows in use, bit-identical
    to the solver's; the kv property rebuilds it for the whole set.
    """

    mesh_n: int
    c: np.ndarray
    ku: np.ndarray
    ratio: np.ndarray

    def __post_init__(self) -> None:
        n_tri = self.mesh_n * (self.mesh_n + 1) // 2
        c = np.asarray(self.c, dtype=float)
        ku = np.asarray(self.ku, dtype=float)
        ratio = np.asarray(self.ratio, dtype=float)
        if c.ndim != 2 or ku.shape != (c.shape[0], n_tri) or ratio.shape != c.shape[:1]:
            raise ValueError("dataset arrays are inconsistent with the mesh")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "ku", ku)
        object.__setattr__(self, "ratio", ratio)

    def __len__(self) -> int:
        return self.c.shape[0]

    @property
    def kv(self) -> np.ndarray:
        """Kv of every record, rebuilt from the edge of Ku (read-only)."""
        kv = _kv_from_edge(self.ku, self.ratio[:, None], self.mesh_n)
        kv.setflags(write=False)
        return kv


def as_kernel_dataset(
    data: KernelDataset | Iterable[tuple[np.ndarray, KernelPair]],
) -> KernelDataset:
    """Stack (c_samples, KernelPair) pairs; pass a KernelDataset through.

    Raises:
        ValueError: pairs on different meshes, c_samples off the edge
            grid, no pairs, or a pair whose Kv is not the edge trace of
            its Ku (a surrogate pair, say), which the set cannot hold.
    """
    if isinstance(data, KernelDataset):
        return data
    cs: list[np.ndarray] = []
    kus: list[np.ndarray] = []
    ratios: list[float] = []
    mesh_n: int | None = None
    for c_samples, kp in data:
        if mesh_n is None:
            mesh_n = kp.mesh.n
        elif kp.mesh.n != mesh_n:
            raise ValueError("all pairs must share one mesh")
        c_samples = np.asarray(c_samples, dtype=float)
        if c_samples.shape != (mesh_n,):
            raise ValueError("c_samples must live on the mesh edge grid")
        ku, ratio = _ku_and_ratio(kp)
        cs.append(c_samples)
        kus.append(ku)
        ratios.append(ratio)
    if mesh_n is None:
        raise ValueError("dataset is empty")
    return KernelDataset(
        mesh_n=mesh_n, c=np.stack(cs), ku=np.stack(kus), ratio=np.array(ratios)
    )


class _Workspace:
    """Scratch arrays reused across calls instead of reallocated.

    Each name keeps one (rows, cols) float64 buffer, grown when a call
    asks for more rows; a call for fewer rows (a short last batch) gets
    a view of the leading rows.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def __call__(self, name: str, rows: int, cols: int) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape[0] < rows or buf.shape[1] != cols:
            buf = self._bufs[name] = np.empty((rows, cols))
        return buf[:rows]


def _gather(
    data: KernelDataset, rows: np.ndarray, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c, Ku and Kv of the given records, in ws buffers.

    Kv is ratio * Ku(x - xi, 0), the product _kv_from_edge forms.
    """
    nb, n_tri = rows.size, data.ku.shape[1]
    c = np.take(data.c, rows, axis=0, out=ws("c", nb, data.c.shape[1]), mode="clip")
    yu = np.take(data.ku, rows, axis=0, out=ws("yu", nb, n_tri), mode="clip")
    edge = _tril_layout(data.mesh_n)[2]
    yv = np.take(yu, edge, axis=1, out=ws("yv", nb, n_tri), mode="clip")
    yv *= data.ratio[rows][:, None]
    return c, yu, yv


def mesh_queries(mesh: TriMesh) -> np.ndarray:
    """Triangle node coordinates (x, xi) in row-major tril order."""
    ii, jj = np.tril_indices(mesh.n)
    return np.column_stack([mesh.x[ii], mesh.x[jj]])


def init_model(
    m: int = 41,
    b: int = 32,
    hidden: tuple[int, ...] = (64, 64),
    seed: int = 0,
    c_scale: float = 0.02,
) -> DeepONetModel:
    """Fresh model with uniform Glorot weights and zero biases.

    The draw order is fixed (branch stack, trunk stack, head) so a seed
    pins every parameter byte.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for prefix, first in (("branch", m), ("trunk", 2)):
        sizes = _layer_sizes(first, tuple(hidden), b)
        for layer, (din, dout) in enumerate(zip(sizes[:-1], sizes[1:])):
            limit = np.sqrt(6.0 / (din + dout))
            params[f"{prefix}_w{layer}"] = rng.uniform(-limit, limit, (din, dout))
            params[f"{prefix}_b{layer}"] = np.zeros(dout)
    limit = np.sqrt(6.0 / (2 * b))
    params["head"] = rng.uniform(-limit, limit, (2, b))
    return DeepONetModel(
        m=m, b=b, hidden=tuple(hidden), c_scale=c_scale, params=params
    )


def _forward_stack(
    params: dict[str, np.ndarray],
    prefix: str,
    x: np.ndarray,
    n_hidden: int,
    ws: _Workspace | None = None,
) -> list[np.ndarray]:
    """Activations of one stack, input first; layer outputs go to ws
    when given (x then must be a 2-D batch), else to fresh arrays."""
    acts = [x]
    for layer in range(n_hidden + 1):
        w = params[f"{prefix}_w{layer}"]
        out = None if ws is None else ws(f"{prefix}{layer}", x.shape[0], w.shape[1])
        z = np.matmul(acts[-1], w, out=out)
        z += params[f"{prefix}_b{layer}"]
        if layer < n_hidden:
            np.tanh(z, out=z)
        acts.append(z)
    return acts


def _backward_stack(
    params: dict[str, np.ndarray],
    prefix: str,
    acts: list[np.ndarray],
    d_out: np.ndarray,
    grads: dict[str, np.ndarray],
    ws: _Workspace,
) -> None:
    n_hidden = len(acts) - 2
    d = d_out
    for layer in range(n_hidden, -1, -1):
        grads[f"{prefix}_w{layer}"] = acts[layer].T @ d
        grads[f"{prefix}_b{layer}"] = d.sum(axis=0)
        if layer > 0:
            # d <- (d W^T) * (1 - a^2), a the tanh output feeding the layer.
            a = acts[layer]
            w = params[f"{prefix}_w{layer}"]
            d = np.matmul(d, w.T, out=ws(f"{prefix}_d{layer}", *a.shape))
            slope = np.multiply(a, a, out=ws(f"{prefix}_s{layer}", *a.shape))
            np.subtract(1.0, slope, out=slope)
            d *= slope


def loss_and_grads(
    model: DeepONetModel,
    c_batch: np.ndarray,
    yu: np.ndarray,
    yv: np.ndarray,
    queries: np.ndarray,
    ws: _Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared error over both heads and its parameter gradients.

    The trunk is evaluated once for the shared query set; predictions
    for the whole batch are formed by the latent inner products.  The
    loss is sum over heads of mean((pred - target)^2).  Activations,
    residuals and back-propagated deltas go to ws when given (train
    passes one, so a step allocates no large array); the gradients are
    fresh arrays either way.
    """
    ws = _Workspace() if ws is None else ws
    params = model.params
    n_hidden = len(model.hidden)
    x = np.divide(c_batch, model.c_scale, out=ws("x", *c_batch.shape))
    b_acts = _forward_stack(params, "branch", x, n_hidden, ws)
    t_acts = _forward_stack(params, "trunk", queries, n_hidden, ws)
    lat_g = b_acts[-1]
    lat_f = t_acts[-1]
    head = params["head"]
    denom = yu.size
    resid = ws("resid", *yu.shape)
    square = ws("square", *yu.shape)
    sums, tgs, d_branch = [], [], []
    # One head at a time through one residual buffer: its gradient terms
    # are taken before the next head's residual overwrites it.
    for k, y in enumerate((yu, yv)):
        f = np.multiply(lat_f, head[k], out=ws(f"f{k}", *lat_f.shape))
        np.matmul(lat_g, f.T, out=resid)
        resid -= y
        sums.append(np.sum(np.multiply(resid, resid, out=square)))
        resid *= 2.0 / denom
        tgs.append(np.matmul(resid.T, lat_g, out=ws(f"tg{k}", *lat_f.shape)))
        d_branch.append(np.matmul(resid, f, out=ws(f"db{k}", *lat_g.shape)))
    loss = (sums[0] + sums[1]) / denom
    scratch = ws("tq", *lat_f.shape)
    grads: dict[str, np.ndarray] = {
        "head": np.stack(
            [np.multiply(tg, lat_f, out=scratch).sum(axis=0) for tg in tgs]
        )
    }
    d_branch[0] += d_branch[1]
    _backward_stack(params, "branch", b_acts, d_branch[0], grads, ws)
    d_trunk = np.multiply(tgs[0], head[0], out=ws("dt", *lat_f.shape))
    d_trunk += np.multiply(tgs[1], head[1], out=scratch)
    _backward_stack(params, "trunk", t_acts, d_trunk, grads, ws)
    return float(loss), grads


def _predict_chunked(
    model: DeepONetModel,
    data: KernelDataset,
    rows: np.ndarray,
    queries: np.ndarray,
    ws: _Workspace,
    chunk: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream (targets, predictions) over the given records of data.

    The trunk is evaluated once; then, per chunk of rows, the branch
    pass and each head's latent product yield one (targets,
    predictions) pair, Ku's before Kv's, both (rows in chunk, nodes)
    views of ws buffers that the next pair overwrites.  Kv targets are
    rebuilt from the edge of Ku, so no whole-set array is formed.
    """
    n_hidden = len(model.hidden)
    lat_f = _forward_stack(model.params, "trunk", queries, n_hidden, ws)[-1]
    head = model.params["head"]
    fs = [np.multiply(lat_f, head[k], out=ws(f"f{k}", *lat_f.shape)) for k in (0, 1)]
    for start in range(0, rows.size, chunk):
        c, yu, yv = _gather(data, rows[start : start + chunk], ws)
        x = np.divide(c, model.c_scale, out=ws("x", *c.shape))
        lat_g = _forward_stack(model.params, "branch", x, n_hidden, ws)[-1]
        for f, y in zip(fs, (yu, yv)):
            yield y, np.matmul(lat_g, f.T, out=ws("resid", *y.shape))


def _val_metrics(
    model: DeepONetModel,
    data: KernelDataset,
    rows: np.ndarray,
    queries: np.ndarray,
    ws: _Workspace,
    chunk: int,
) -> tuple[float, float]:
    """(mse, relative error) of the given records, summed chunk by chunk."""
    res = ref = 0.0
    for y, p in _predict_chunked(model, data, rows, queries, ws, chunk):
        square = ws("square", *y.shape)
        p -= y
        res += np.sum(np.multiply(p, p, out=square))
        ref += np.sum(np.multiply(y, y, out=square))
    mse = float(res / (rows.size * queries.shape[0]))
    rel = float(np.sqrt(res / ref)) if ref > 0 else np.inf
    return mse, rel


def train(
    data: KernelDataset | Iterable[tuple[np.ndarray, KernelPair]],
    cfg: TrainConfig,
    model: DeepONetModel | None = None,
    val_data: KernelDataset | Iterable[tuple[np.ndarray, KernelPair]] | None = None,
) -> tuple[DeepONetModel, list[dict[str, float]]]:
    """Fit the surrogate by mini-batch gradient descent with Adam moments.

    Args:
        data: training pairs or stacked arrays.
        cfg: optimizer settings.
        model: model to continue training; a fresh default architecture
            is created when omitted, with c_scale set to the largest
            input magnitude in the data.
        val_data: held-out pairs scored once per epoch.  When omitted, a
            val_split fraction of data is carved off (at least one
            record, unless the dataset has a single record, which is
            then used for both roles).

    Returns:
        (best-validation model, per-epoch history).  History entries
        carry epoch, train_mse, val_mse, val_rel.
    """
    data = as_kernel_dataset(data)
    if len(data) == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    if model is None:
        c_scale = float(np.max(np.abs(data.c)))
        if c_scale <= 0:
            c_scale = 0.02
        model = init_model(m=data.c.shape[1], seed=cfg.seed, c_scale=c_scale)
    if data.c.shape[1] != model.m:
        raise ValueError("dataset sample count does not match model.m")

    mesh = TriMesh(data.mesh_n)
    queries = mesh_queries(mesh)

    # Records are addressed through index arrays, so neither part of a
    # carved-off split is copied.
    if val_data is not None:
        val = as_kernel_dataset(val_data)
        if val.mesh_n != data.mesh_n:
            raise ValueError("validation mesh differs from training mesh")
        tr, va = np.arange(len(data)), np.arange(len(val))
    else:
        val = data
        n_val = int(round(len(data) * cfg.val_split))
        if n_val == 0 or n_val == len(data):
            tr = va = np.arange(len(data))
        else:
            perm = rng.permutation(len(data))
            va, tr = perm[:n_val], perm[n_val:]

    moments = {
        "m": {k: np.zeros_like(p) for k, p in model.params.items()},
        "v": {k: np.zeros_like(p) for k, p in model.params.items()},
    }
    step = 0
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    history: list[dict[str, float]] = []
    best_val = np.inf
    best_params = {k: p.copy() for k, p in model.params.items()}
    # Batches and validation chunks share one workspace, released on return.
    ws = _Workspace()

    n_train = tr.size
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n_train)
        running = 0.0
        for start in range(0, n_train, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            c_b, yu_b, yv_b = _gather(data, tr[idx], ws)
            loss, grads = loss_and_grads(model, c_b, yu_b, yv_b, queries, ws)
            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            for key, grad in grads.items():
                m_k = moments["m"][key]
                v_k = moments["v"][key]
                m_k += (1.0 - beta1) * (grad - m_k)
                v_k += (1.0 - beta2) * (grad * grad - v_k)
                model.params[key] -= cfg.lr * (m_k / bc1) / (
                    np.sqrt(v_k / bc2) + eps
                )
            running += loss * idx.size
        train_mse = running / n_train
        if not np.isfinite(train_mse):
            raise ArithmeticError(f"training diverged at epoch {epoch}")
        val_mse, val_rel = _val_metrics(model, val, va, queries, ws, cfg.batch_size)
        history.append(
            {
                "epoch": float(epoch),
                "train_mse": float(train_mse),
                "val_mse": val_mse,
                "val_rel": val_rel,
            }
        )
        if val_mse < best_val:
            best_val = val_mse
            best_params = {k: p.copy() for k, p in model.params.items()}
    model.params = best_params
    return model, history


def eval_accuracy(
    model: DeepONetModel,
    data: KernelDataset | Iterable[tuple[np.ndarray, KernelPair]],
) -> dict[str, float]:
    """Absolute-error report per head over a test set.

    Returns max and mean absolute node errors for Ku and Kv, streamed
    over chunks of the default batch size.
    """
    data = as_kernel_dataset(data)
    if len(data) == 0:
        raise ValueError("dataset is empty")
    queries = mesh_queries(TriMesh(data.mesh_n))
    rows = np.arange(len(data))
    worst, total = [0.0, 0.0], [0.0, 0.0]
    chunks = _predict_chunked(
        model, data, rows, queries, _Workspace(), TrainConfig().batch_size
    )
    for k, (y, p) in enumerate(chunks):
        err = np.abs(np.subtract(p, y, out=p), out=p)
        worst[k % 2] = max(worst[k % 2], float(err.max()))
        total[k % 2] += float(err.sum())
    size = rows.size * queries.shape[0]
    return {
        "ku_max": worst[0],
        "ku_mean": total[0] / size,
        "kv_max": worst[1],
        "kv_mean": total[1] / size,
    }


def save_model(model: DeepONetModel, path: str | Path) -> None:
    """Serialize to the flat binary format (little-endian float64 blocks)."""
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack(
        "<IIII", _VERSION, model.m, model.b, len(model.hidden)
    )
    buf += struct.pack(f"<{len(model.hidden)}I", *model.hidden)
    buf += struct.pack("<d", model.c_scale)
    buf += struct.pack("<I", len(model.params))
    for key in sorted(model.params):
        arr = np.ascontiguousarray(model.params[key], dtype="<f8")
        name = key.encode()
        buf += struct.pack("<H", len(name))
        buf += name
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += arr.tobytes()
    Path(path).write_bytes(bytes(buf))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise ModelFormatError("model file is truncated")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_model(path: str | Path) -> DeepONetModel:
    """Read a model saved by save_model; validates structure strictly."""
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != _MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    version, m, b, n_hidden = reader.unpack("<IIII")
    if version != _VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    if n_hidden == 0 or n_hidden > 64:
        raise ModelFormatError("implausible hidden layer count")
    hidden = reader.unpack(f"<{n_hidden}I")
    (c_scale,) = reader.unpack("<d")
    (n_params,) = reader.unpack("<I")
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = reader.unpack("<H")
        try:
            name = reader.take(name_len).decode()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"parameter name is not UTF-8: {exc}") from exc
        (ndim,) = reader.unpack("<B")
        shape = reader.unpack(f"<{ndim}I")
        size = int(np.prod(shape)) if ndim else 1
        payload = reader.take(8 * size)
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    if reader.pos != len(reader.data):
        raise ModelFormatError("trailing bytes after the last parameter block")
    try:
        return DeepONetModel(
            m=m, b=b, hidden=tuple(int(h) for h in hidden),
            c_scale=c_scale, params=params,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


class NeuralKernelSource:
    """Kernel acquisition through the trained surrogate.

    The trunk basis over the mesh nodes is fixed after training, so it
    is evaluated once here; each acquisition is then a single branch
    pass plus two latent matrix-vector products.
    """

    def __init__(self, model: DeepONetModel, mesh: TriMesh, lp: LinearizedParams):
        if model.m != mesh.n:
            raise ValueError(
                "model branch size does not match the mesh edge grid"
            )
        self.model = model
        self.mesh = mesh
        self.lp = lp
        n_hidden = len(model.hidden)
        lat_f = _forward_stack(
            model.params, "trunk", mesh_queries(mesh), n_hidden
        )[-1]
        head = model.params["head"]
        # Both heads stacked into one matrix: a single latent product per
        # acquisition keeps dispatch overhead off the control loop's
        # critical path.
        self._f_all = np.ascontiguousarray(
            np.vstack([lat_f * head[0], lat_f * head[1]])
        )
        # The branch layers as (W, b) pairs, so an acquisition runs
        # _forward_stack's arithmetic without its parameter lookups.
        self._branch = [
            (model.params[f"branch_w{layer}"], model.params[f"branch_b{layer}"])
            for layer in range(n_hidden + 1)
        ]
        # Flat positions of both heads' lower triangles in one (2, n, n)
        # buffer, Ku's first.
        n = mesh.n
        ii, jj = np.tril_indices(n)
        flat = ii * n + jj
        self._flat = np.concatenate([flat, flat + n * n])

    def acquire(self, c_mesh: np.ndarray) -> KernelPair:
        c_mesh = np.asarray(c_mesh, dtype=float)
        if c_mesh.shape != (self.mesh.n,):
            raise ValueError("c_mesh must live on the mesh edge grid")
        h = c_mesh / self.model.c_scale
        *hidden, (w_out, b_out) = self._branch
        for w, b in hidden:
            h = np.tanh(h @ w + b)
        n = self.mesh.n
        out = np.zeros(2 * n * n)
        out[self._flat] = self._f_all @ (h @ w_out + b_out)
        ku, kv = out.reshape(2, n, n)
        return KernelPair._trusted(
            self.mesh, ku, kv, self.lp.lam_n, self.lp.mu_n, self.lp.r
        )
