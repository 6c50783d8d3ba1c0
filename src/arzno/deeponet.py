"""Operator surrogate for the kernel solver: a POD DeepONet.

A branch MLP maps m samples of the coupling estimate c_hat to the
coefficients of the gain kernel Ku on a fixed trunk, the training Ku's
mean and leading b POD modes (Lu et al., arXiv 2111.05512), fitted once
in train and stored with the model.  Only Ku is predicted: Kv is, as in
every KernelPair and corpus record, the edge trace (lam r / mu)
Ku(x - xi, 0), derived from it.
NeuralKernelSource serves the loop.  Everything is float64 numpy with
analytic backprop and an adaptive-moment optimizer, so training is
reproducible bit-for-bit from (seed, config) at a fixed BLAS thread
count.  BLAS products can also round a row differently with the number
of rows multiplied (with OpenBLAS, below about 37 rows at b = 32), so
moving a record between a short and a full chunk or batch may move the
model by rounding.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from arzno.kernels import KernelPair, TriMesh, _kv_from_edge
from arzno.model import LinearizedParams

__all__ = [
    "ModelFormatError",
    "DeepONetModel",
    "TrainConfig",
    "KernelDataset",
    "init_model",
    "loss_and_grads",
    "train",
    "eval_accuracy",
    "save_model",
    "load_model",
    "NeuralKernelSource",
]

_MAGIC = b"AZNO"
_VERSION = 2


class ModelFormatError(ValueError):
    """Raised for malformed, truncated, or mismatched model files."""


@dataclass
class DeepONetModel:
    """Parameters and structure of the kernel surrogate.

    Attributes:
        m: branch input size, the samples of c_hat on the mesh edge grid:
            Ku has m (m + 1) / 2 nodes, in row-major tril order.
        b: number of POD modes, the branch's output width.
        hidden: hidden layer widths of the branch.
        c_scale: input normalization; the branch sees c_hat / c_scale.
        params: the trained branch_{w,b}{layer}, and the basis: "mean"
            (Ku's training mean) and "modes" ((b, nodes), orthonormal
            rows); Ku is mean + a @ modes for the branch output a.
    """

    m: int
    b: int
    hidden: tuple[int, ...]
    c_scale: float
    params: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.m < 1 or self.b < 1 or not self.hidden:
            raise ValueError("m, b must be positive and hidden non-empty")
        n_tri = self.m * (self.m + 1) // 2
        if self.b > n_tri:
            raise ValueError("b must not exceed the m (m + 1) / 2 kernel nodes")
        if not self.c_scale > 0:
            raise ValueError("c_scale must be positive")
        expected = {"mean": (n_tri,), "modes": (self.b, n_tri)}
        sizes = [self.m, *self.hidden, self.b]
        for layer, (din, dout) in enumerate(zip(sizes[:-1], sizes[1:])):
            expected[f"branch_w{layer}"] = (din, dout)
            expected[f"branch_b{layer}"] = (dout,)
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
        if not self.lr > 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("lr, batch_size, epochs must be positive")
        if not 0.0 < self.val_split < 1.0:
            raise ValueError("val_split must lie in (0, 1)")


@dataclass(frozen=True)
class KernelDataset:
    """Stacked training arrays on a shared mesh, holding what records hold.

    ku holds Ku's lower-triangle node values in row-major tril order,
    matching the serialized kernel records, and ratio each record's
    lam r / mu from its header.  Kv is not held: it is the edge trace of
    Ku, _kv_from_edge(ku, ratio[:, None], mesh_n), bit-identical to the
    solver's; training and scoring use the edge of Ku for the rows in use.
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
    """c and Ku of the given records, in ws buffers, and their lam r / mu."""
    nb = rows.size
    c = np.take(data.c, rows, axis=0, out=ws("c", nb, data.c.shape[1]), mode="clip")
    yu = np.take(data.ku, rows, axis=0, out=ws("yu", nb, data.ku.shape[1]), mode="clip")
    return c, yu, data.ratio[rows]


@lru_cache(maxsize=None)
def _edge(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tril positions of the edge nodes (d, 0), and the n - d nodes on
    each line x - xi = d dx, whose Kv is (lam r / mu) Ku(d dx, 0)."""
    d = np.arange(n)
    edge = (d * (d + 1) // 2, (n - d).astype(float))
    for arr in edge:
        arr.setflags(write=False)
    return edge


def _fit_basis(
    data: KernelDataset, rows: np.ndarray, b: int, chunk: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and b leading POD modes of the given records' Ku.

    The Gram matrix is taken on the short side of the centred (records,
    nodes) matrix, the nodes' summed chunk by chunk.  One QR makes the
    modes orthonormal where snapshot modes are not (energy at rounding
    level, or b past the data's rank), and each mode's largest |entry| is
    made positive, so that a seeded fit is byte-reproducible.
    """
    n_tri = data.ku.shape[1]
    starts = range(0, rows.size, chunk)
    mean = sum(data.ku[rows[s : s + chunk]].sum(axis=0) for s in starts) / rows.size

    def centred(s: int) -> np.ndarray:
        return data.ku[rows[s : s + chunk]] - mean

    if rows.size <= n_tri:
        yc = data.ku[rows]
        yc -= mean
        gram = yc @ yc.T
        del yc  # eigh's workspace is the peak; the modes are summed by chunk
        vecs = np.linalg.eigh(gram)[1][:, ::-1][:, :b]
        raw = sum(vecs[s : s + chunk].T @ centred(s) for s in starts)
    else:
        gram = np.zeros((n_tri, n_tri))
        for s in starts:
            y = centred(s)
            gram += y.T @ y
        raw = np.linalg.eigh(gram)[1][:, ::-1][:, :b].T
    modes = np.zeros((n_tri, b))
    modes[:, : raw.shape[0]] = raw.T
    modes = np.linalg.qr(modes)[0].T
    modes *= np.sign(modes[np.arange(b), np.argmax(np.abs(modes), axis=1)])[:, None]
    return mean, np.ascontiguousarray(modes)


def init_model(
    m: int = 41,
    b: int = 32,
    hidden: tuple[int, ...] = (64, 64),
    seed: int = 0,
    c_scale: float = 0.02,
) -> DeepONetModel:
    """Fresh model with uniform Glorot branch weights and zero biases.

    The draw order is fixed (layer by layer) so a seed pins every
    parameter byte.  The basis is a placeholder, a zero mean and the
    first b unit node vectors as modes, until train fits it.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    sizes = [m, *hidden, b]
    for layer, (din, dout) in enumerate(zip(sizes[:-1], sizes[1:])):
        limit = np.sqrt(6.0 / (din + dout))
        params[f"branch_w{layer}"] = rng.uniform(-limit, limit, (din, dout))
        params[f"branch_b{layer}"] = np.zeros(dout)
    n_tri = m * (m + 1) // 2
    params["mean"] = np.zeros(n_tri)
    params["modes"] = np.eye(b, n_tri)
    return DeepONetModel(
        m=m, b=b, hidden=tuple(hidden), c_scale=c_scale, params=params
    )


def _forward_stack(
    params: dict[str, np.ndarray],
    x: np.ndarray,
    n_hidden: int,
    ws: _Workspace | None = None,
) -> list[np.ndarray]:
    """Activations of the branch, input first; layer outputs go to ws
    when given (x then must be a 2-D batch), else to fresh arrays."""
    acts = [x]
    for layer in range(n_hidden + 1):
        w = params[f"branch_w{layer}"]
        out = None if ws is None else ws(f"branch{layer}", x.shape[0], w.shape[1])
        z = np.matmul(acts[-1], w, out=out)
        z += params[f"branch_b{layer}"]
        if layer < n_hidden:
            np.tanh(z, out=z)
        acts.append(z)
    return acts


def _backward_stack(
    params: dict[str, np.ndarray],
    acts: list[np.ndarray],
    d_out: np.ndarray,
    grads: dict[str, np.ndarray],
    ws: _Workspace,
) -> None:
    n_hidden = len(acts) - 2
    d = d_out
    for layer in range(n_hidden, -1, -1):
        grads[f"branch_w{layer}"] = acts[layer].T @ d
        grads[f"branch_b{layer}"] = d.sum(axis=0)
        if layer > 0:
            # d <- (d W^T) * (1 - a^2), a the tanh output feeding the layer.
            a = acts[layer]
            w = params[f"branch_w{layer}"]
            d = np.matmul(d, w.T, out=ws(f"branch_d{layer}", *a.shape))
            slope = np.multiply(a, a, out=ws(f"branch_s{layer}", *a.shape))
            np.subtract(1.0, slope, out=slope)
            d *= slope


def _targets(
    model: DeepONetModel, yu: np.ndarray, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """POD targets t = (y - mean) Phi^T of the Ku rows yu, in ws, and
    their out-of-basis energy r = ||y - mean - t Phi||^2, one per row."""
    mean, modes = model.params["mean"], model.params["modes"]
    t = np.matmul(yu, modes.T, out=ws("t", yu.shape[0], model.b))
    t -= modes @ mean
    res = np.matmul(t, modes, out=ws("res", *yu.shape))
    res += mean
    res -= yu
    return t, np.einsum("ij,ij->i", res, res)


class _PodTargets:
    """Some records' POD targets, computed once per fit.

    A record's loss terms need only its (t, r) from _targets, b + 1
    floats, and Ku's m edge values, gathered per batch; so once the basis
    is fitted a batch never reads the records' Ku triangles.  The
    targets are computed in chunks of `chunk` rows in the order of rows,
    and ref is the records' node power of both heads, the denominator of
    the relative error.
    """

    def __init__(
        self, model: DeepONetModel, data: KernelDataset, rows: np.ndarray, chunk: int
    ):
        self.data, self.rows = data, rows
        self.t = np.empty((rows.size, model.b))
        self.r = np.empty(rows.size)
        edge, count = _edge(data.mesh_n)
        ws = _Workspace()  # its (chunk, nodes) buffers go when the cache is built
        ref = 0.0
        for start in range(0, rows.size, chunk):
            _, yu, ratio = _gather(data, rows[start : start + chunk], ws)
            part = slice(start, start + yu.shape[0])
            self.t[part], self.r[part] = _targets(model, yu, ws)
            ref += np.vdot(yu, yu) + (ratio * ratio) @ (yu[:, edge] ** 2) @ count
        self.ref = float(ref)

    def batch(
        self, pos: np.ndarray, ws: _Workspace
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """c, Ku's edge values and lam r / mu of the records at positions
        pos of rows, and their (t, r); c and t in ws buffers."""
        rows = self.rows[pos]
        c = np.take(self.data.c, rows, axis=0,
                    out=ws("c", pos.size, self.data.c.shape[1]), mode="clip")
        t = np.take(self.t, pos, axis=0, out=ws("tb", pos.size, self.t.shape[1]),
                    mode="clip")
        yu_edge = self.data.ku[rows[:, None], _edge(self.data.mesh_n)[0]]
        return c, yu_edge, self.data.ratio[rows], (t, self.r[pos])


def _residuals(
    model: DeepONetModel,
    c: np.ndarray,
    yu_edge: np.ndarray,
    ratio: np.ndarray,
    targets: tuple[np.ndarray, np.ndarray],
    ws: _Workspace,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, float]:
    """Branch activations, a - t, Ku's edge residual e, and the squared
    node residuals of both heads summed over the batch.

    With orthonormal modes Phi, branch output a, y = Ku and (t, r) its
    targets, ||mean + a Phi - y||^2 = ||a - t||^2 + r, and Kv's is
    (lam r / mu)^2 sum_d (n - d) e_d^2, so no (records, nodes) array is
    read or formed.  t is overwritten with a - t.
    """
    p = model.params
    t, r = targets
    x = np.divide(c, model.c_scale, out=ws("x", *c.shape))
    acts = _forward_stack(p, x, len(model.hidden), ws)
    edge, count = _edge(model.m)
    e = np.matmul(acts[-1], p["modes"][:, edge], out=ws("e", c.shape[0], model.m))
    e -= yu_edge - p["mean"][edge]
    da = np.subtract(acts[-1], t, out=t)
    power = np.sum(r) + (ratio * ratio) @ (e * e) @ count + np.vdot(da, da)
    return acts, da, e, float(power)


def loss_and_grads(
    model: DeepONetModel,
    c_batch: np.ndarray,
    yu: np.ndarray,
    ratio: np.ndarray,
    ws: _Workspace | None = None,
    targets: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared node error over both heads and its branch gradients.

    yu holds the batch's Ku targets in row-major tril order and ratio
    their lam r / mu; Kv, predicted and target, is the edge trace of Ku.
    The loss is sum over heads of mean((pred - target)^2).  When targets,
    the rows' (t, r) from _targets, is given, yu holds only Ku's edge
    columns _edge(m)[0] (train passes its per-fit cache; t is
    overwritten).  Activations and deltas go to ws when given (train
    passes one, so a step allocates no large array); the gradients are
    fresh arrays.
    """
    ws = _Workspace() if ws is None else ws
    edge, count = _edge(model.m)
    if targets is None:
        targets = _targets(model, yu, ws)
        yu = yu[:, edge]
    acts, da, e, power = _residuals(model, c_batch, yu, ratio, targets, ws)
    denom = c_batch.shape[0] * model.params["mean"].size
    e *= (ratio * ratio)[:, None] * count
    d_out = np.matmul(e, model.params["modes"][:, edge].T, out=ws("dout", *da.shape))
    d_out += da
    d_out *= 2.0 / denom
    grads: dict[str, np.ndarray] = {}
    _backward_stack(model.params, acts, d_out, grads, ws)
    return power / denom, grads


def _val_metrics(
    model: DeepONetModel,
    data: KernelDataset,
    rows: np.ndarray,
    ws: _Workspace,
    chunk: int,
    targets: _PodTargets | None = None,
) -> tuple[float, float]:
    """(mse, relative error) of the given records, summed chunk by chunk
    from their targets (computed here when not given)."""
    if targets is None:
        targets = _PodTargets(model, data, rows, chunk)
    pos = np.arange(rows.size)
    res = 0.0
    for start in range(0, rows.size, chunk):
        batch = targets.batch(pos[start : start + chunk], ws)
        res += _residuals(model, *batch, ws)[3]
    mse = float(res / (rows.size * data.ku.shape[1]))
    rel = float(np.sqrt(res / targets.ref)) if targets.ref > 0 else np.inf
    return mse, rel


def train(
    data: KernelDataset,
    cfg: TrainConfig,
    model: DeepONetModel,
    val_data: KernelDataset | None = None,
) -> tuple[DeepONetModel, list[dict[str, float]]]:
    """Fit the basis, then the branch by mini-batch descent with Adam moments.

    Each record's POD targets are computed once, after the basis fit;
    the epochs then read only the records' c, targets, ratio and Ku edge.

    Args:
        data: the training records.
        cfg: optimizer settings.
        model: the model to train, trained in place, as init_model makes
            it; its basis is replaced by the one fitted to the training
            records, and its branch arrays become views of one vector.
        val_data: held-out records scored once per epoch.  When omitted, a
            val_split fraction of data is carved off (at least one
            record, unless the dataset has a single record, which is
            then used for both roles).

    Returns:
        (best-validation model, per-epoch history).  History entries
        carry epoch, train_mse, val_mse, val_rel and epoch_s, the wall
        seconds of the epoch with its scoring.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    if data.c.shape[1] != model.m or data.mesh_n != model.m:
        raise ValueError("dataset sample count does not match model.m")

    # Records are addressed through index arrays, so neither part of a
    # carved-off split is copied.
    if val_data is not None:
        if val_data.mesh_n != data.mesh_n:
            raise ValueError("validation mesh differs from training mesh")
        val, tr, va = val_data, np.arange(len(data)), np.arange(len(val_data))
    else:
        val = data
        n_val = int(round(len(data) * cfg.val_split))
        if n_val == 0 or n_val == len(data):
            tr = va = np.arange(len(data))
        else:
            perm = rng.permutation(len(data))
            va, tr = perm[:n_val], perm[n_val:]

    model.params["mean"], model.params["modes"] = _fit_basis(
        data, tr, model.b, cfg.batch_size
    )
    fit = _PodTargets(model, data, tr, cfg.batch_size)
    scored = fit if va is tr else _PodTargets(model, val, va, cfg.batch_size)

    # Adam runs on one vector that the branch arrays view, with moments m, v.
    trained = [k for k in model.params if k.startswith("branch_")]
    flat = np.concatenate([model.params[k].ravel() for k in trained])
    ends = np.cumsum([model.params[k].size for k in trained])
    for key, part in zip(trained, np.split(flat, ends[:-1])):
        model.params[key] = part.reshape(model.params[key].shape)
    grad, m, v = np.empty_like(flat), np.zeros_like(flat), np.zeros_like(flat)
    step = 0
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    history: list[dict[str, float]] = []
    best_val = np.inf
    best = flat.copy()
    # Batches and validation chunks share one workspace, released on return.
    ws = _Workspace()

    n_train = tr.size
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(n_train)
        running = 0.0
        for start in range(0, n_train, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            c_b, edge_b, ratio_b, targets = fit.batch(idx, ws)
            loss, grads = loss_and_grads(model, c_b, edge_b, ratio_b, ws, targets)
            np.concatenate([grads[k].ravel() for k in trained], out=grad)
            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            m += (1.0 - beta1) * (grad - m)
            v += (1.0 - beta2) * (grad * grad - v)
            flat -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
            running += loss * idx.size
        train_mse = running / n_train
        if not np.isfinite(train_mse):
            raise ArithmeticError(f"training diverged at epoch {epoch}")
        val_mse, val_rel = _val_metrics(model, val, va, ws, cfg.batch_size, scored)
        history.append(
            {
                "epoch": float(epoch),
                "train_mse": float(train_mse),
                "val_mse": val_mse,
                "val_rel": val_rel,
                "epoch_s": time.perf_counter() - t0,
            }
        )
        if val_mse < best_val:
            best_val = val_mse
            best[:] = flat
    flat[:] = best
    return model, history


def eval_accuracy(model: DeepONetModel, data: KernelDataset) -> dict[str, float]:
    """Absolute-error report per head over a test set of records.

    Returns max and mean absolute node errors for Ku and Kv, streamed
    over chunks of the default batch size; Kv's are the edge trace of
    Ku's, scaled by |lam r / mu|.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    rows = np.arange(len(data))
    ws = _Workspace()
    worst, total = [0.0, 0.0], [0.0, 0.0]
    chunk = TrainConfig().batch_size
    for start in range(0, rows.size, chunk):
        c, yu, ratio = _gather(data, rows[start : start + chunk], ws)
        x = np.divide(c, model.c_scale, out=ws("x", *c.shape))
        a = _forward_stack(model.params, x, len(model.hidden), ws)[-1]
        err = np.matmul(a, model.params["modes"], out=ws("err", *yu.shape))
        err += model.params["mean"]
        err -= yu
        np.abs(err, out=err)
        err_v = _kv_from_edge(err, np.abs(ratio)[:, None], data.mesh_n)
        for k, e in enumerate((err, err_v)):
            worst[k] = max(worst[k], float(e.max()))
            total[k] += float(e.sum())
    size = rows.size * data.ku.shape[1]
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
    if version == 1:
        raise ModelFormatError(
            "model format version 1 (branch-trunk) is retired; retrain the model"
        )
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

    Each acquisition is one branch pass and one product with the modes,
    which give Ku's triangle; the pair derives Kv from its edge as a
    solved pair does, so a surrogate pair is stored and read like one.
    """

    def __init__(self, model: DeepONetModel, mesh: TriMesh, lp: LinearizedParams):
        if model.m != mesh.n:
            raise ValueError(
                "model branch size does not match the mesh edge grid"
            )
        self.model = model
        self.mesh = mesh
        self.lp = lp
        # The branch layers as (W, b) pairs, so an acquisition runs
        # _forward_stack's arithmetic without its parameter lookups.
        self._branch = [
            (model.params[f"branch_w{layer}"], model.params[f"branch_b{layer}"])
            for layer in range(len(model.hidden) + 1)
        ]

    def acquire(self, c_mesh: np.ndarray) -> KernelPair:
        c_mesh = np.asarray(c_mesh, dtype=float)
        if c_mesh.shape != (self.mesh.n,):
            raise ValueError("c_mesh must live on the mesh edge grid")
        h = c_mesh / self.model.c_scale
        *hidden, (w_out, b_out) = self._branch
        for w, b in hidden:
            h = np.tanh(h @ w + b)
        params = self.model.params
        ku_tri = (h @ w_out + b_out) @ params["modes"]
        ku_tri += params["mean"]
        return KernelPair(self.mesh, ku_tri, self.lp.lam_n, self.lp.mu_n, self.lp.r)
