"""The lean training path against the allocating one it replaced.

The reference functions below are the bodies of loss_and_grads,
_val_metrics, eval_accuracy and train from before the training set went
Ku-only: they hold Kv for every record, allocate every temporary, score
validation through whole-set prediction and residual matrices, and copy
a carved-off split.  Seeded training must give the same model bytes
either way, and the scores must agree to rounding.  The memory guards
check that validation and evaluation stream: their traced peak must not
grow with the number of records scored.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from arzno.deeponet import (
    KernelDataset,
    NeuralKernelSource,
    TrainConfig,
    _Workspace,
    _gather,
    as_kernel_dataset,
    eval_accuracy,
    init_model,
    loss_and_grads,
    mesh_queries,
    save_model,
    train,
)
from arzno.kernels import KernelPair, TriMesh, solve_kernels

# -- reference bodies --------------------------------------------------------


def _ref_forward_stack(params, prefix, x, n_hidden):
    acts = [x]
    for layer in range(n_hidden):
        z = acts[-1] @ params[f"{prefix}_w{layer}"] + params[f"{prefix}_b{layer}"]
        acts.append(np.tanh(z))
    acts.append(
        acts[-1] @ params[f"{prefix}_w{n_hidden}"] + params[f"{prefix}_b{n_hidden}"]
    )
    return acts


def _ref_backward_stack(params, prefix, acts, d_out, grads):
    n_hidden = len(acts) - 2
    d = d_out
    for layer in range(n_hidden, -1, -1):
        grads[f"{prefix}_w{layer}"] = acts[layer].T @ d
        grads[f"{prefix}_b{layer}"] = d.sum(axis=0)
        if layer > 0:
            d = (d @ params[f"{prefix}_w{layer}"].T) * (1.0 - acts[layer] ** 2)


def _ref_loss_and_grads(model, c_batch, yu, yv, queries):
    params = model.params
    n_hidden = len(model.hidden)
    b_acts = _ref_forward_stack(params, "branch", c_batch / model.c_scale, n_hidden)
    t_acts = _ref_forward_stack(params, "trunk", queries, n_hidden)
    lat_g = b_acts[-1]
    lat_f = t_acts[-1]
    head = params["head"]
    fu = lat_f * head[0]
    fv = lat_f * head[1]
    pu = lat_g @ fu.T
    pv = lat_g @ fv.T
    ru = pu - yu
    rv = pv - yv
    denom = ru.size
    loss = (np.sum(ru * ru) + np.sum(rv * rv)) / denom
    dpu = (2.0 / denom) * ru
    dpv = (2.0 / denom) * rv
    tgu = dpu.T @ lat_g
    tgv = dpv.T @ lat_g
    grads = {
        "head": np.stack([(tgu * lat_f).sum(axis=0), (tgv * lat_f).sum(axis=0)])
    }
    _ref_backward_stack(params, "branch", b_acts, dpu @ fu + dpv @ fv, grads)
    _ref_backward_stack(params, "trunk", t_acts, tgu * head[0] + tgv * head[1], grads)
    return float(loss), grads


def _ref_predict_chunked(model, c, queries, chunk=1024):
    n_hidden = len(model.hidden)
    lat_f = _ref_forward_stack(model.params, "trunk", queries, n_hidden)[-1]
    head = model.params["head"]
    fu = lat_f * head[0]
    fv = lat_f * head[1]
    pu = np.empty((c.shape[0], queries.shape[0]))
    pv = np.empty_like(pu)
    for start in range(0, c.shape[0], chunk):
        sl = slice(start, start + chunk)
        lat_g = _ref_forward_stack(
            model.params, "branch", c[sl] / model.c_scale, n_hidden
        )[-1]
        pu[sl] = lat_g @ fu.T
        pv[sl] = lat_g @ fv.T
    return pu, pv


def _ref_val_metrics(model, c, yu, yv, queries):
    pu, pv = _ref_predict_chunked(model, c, queries)
    ru = pu - yu
    rv = pv - yv
    mse = float((np.sum(ru * ru) + np.sum(rv * rv)) / ru.size)
    ref = float(np.sum(yu * yu) + np.sum(yv * yv))
    rel = float(np.sqrt((np.sum(ru * ru) + np.sum(rv * rv)) / ref)) if ref > 0 else np.inf
    return mse, rel


def _ref_eval_accuracy(model, c, ku, kv, mesh_n):
    queries = mesh_queries(TriMesh(mesh_n))
    pu, pv = _ref_predict_chunked(model, c, queries)
    err_u = np.abs(pu - ku)
    err_v = np.abs(pv - kv)
    return {
        "ku_max": float(err_u.max()),
        "ku_mean": float(err_u.mean()),
        "kv_max": float(err_v.max()),
        "kv_mean": float(err_v.mean()),
    }


def _ref_train(arrays, cfg, model, val_arrays=None):
    """train() before the change, on (c, ku, kv, mesh_n) stacks."""
    c, ku, kv, mesh_n = arrays
    rng = np.random.default_rng(cfg.seed)
    queries = mesh_queries(TriMesh(mesh_n))
    if val_arrays is not None:
        c_tr, yu_tr, yv_tr = c, ku, kv
        c_va, yu_va, yv_va = val_arrays[:3]
    else:
        n_val = int(round(len(c) * cfg.val_split))
        if n_val == 0 or n_val == len(c):
            c_tr, yu_tr, yv_tr = c, ku, kv
            c_va, yu_va, yv_va = c, ku, kv
        else:
            perm = rng.permutation(len(c))
            va, tr = perm[:n_val], perm[n_val:]
            c_tr, yu_tr, yv_tr = c[tr], ku[tr], kv[tr]
            c_va, yu_va, yv_va = c[va], ku[va], kv[va]

    moments = {
        "m": {k: np.zeros_like(p) for k, p in model.params.items()},
        "v": {k: np.zeros_like(p) for k, p in model.params.items()},
    }
    step = 0
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    history = []
    best_val = np.inf
    best_params = {k: p.copy() for k, p in model.params.items()}
    n_train = c_tr.shape[0]
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n_train)
        running = 0.0
        for start in range(0, n_train, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            loss, grads = _ref_loss_and_grads(
                model, c_tr[idx], yu_tr[idx], yv_tr[idx], queries
            )
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
        val_mse, val_rel = _ref_val_metrics(model, c_va, yu_va, yv_va, queries)
        history.append(
            {
                "epoch": float(epoch),
                "train_mse": float(running / n_train),
                "val_mse": val_mse,
                "val_rel": val_rel,
            }
        )
        if val_mse < best_val:
            best_val = val_mse
            best_params = {k: p.copy() for k, p in model.params.items()}
    model.params = best_params
    return model, history


# -- data --------------------------------------------------------------------


def _pairs(lp, mesh, count, seed):
    """Solver pairs for perturbed relaxation-like couplings.

    The reflection r varies too, so every record has its own lam r / mu
    and a Kv rebuilt with another record's ratio would show.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        tau = rng.uniform(50.0, 70.0)
        c = -np.exp(-rng.uniform(0.5, 1.5) * mesh.x) / tau
        lp_k = replace(lp, r=lp.r * rng.uniform(0.8, 1.2))
        out.append((c, solve_kernels(c, lp_k, mesh, c_bound=0.02)))
    return out


def _old_arrays(pairs):
    """(c, ku, kv, n) as the two-head set held them: Kv straight from the pair."""
    n = pairs[0][1].mesh.n
    ii, jj = np.tril_indices(n)
    return (
        np.stack([c for c, _ in pairs]),
        np.stack([kp.ku[ii, jj] for _, kp in pairs]),
        np.stack([kp.kv[ii, jj] for _, kp in pairs]),
        n,
    )


@pytest.fixture(scope="module")
def sets(lp):
    mesh = TriMesh(11)
    return {"train": _pairs(lp, mesh, 23, 0), "val": _pairs(lp, mesh, 7, 1)}


def _model_bytes(model, tmp_path, name):
    path = tmp_path / name
    save_model(model, path)
    return path.read_bytes()


def _assert_history_close(new, old):
    assert len(new) == len(old)
    for h_new, h_old in zip(new, old):
        assert h_new["epoch"] == h_old["epoch"]
        # Training steps are bit-identical; only validation sums regroup.
        assert h_new["train_mse"] == h_old["train_mse"]
        for key in ("val_mse", "val_rel"):
            assert h_new[key] == pytest.approx(h_old[key], rel=1e-12, abs=0.0)


# -- equivalence -------------------------------------------------------------


@pytest.mark.parametrize(
    "split, batch_size",
    [("val_data", 5), ("val_data", 23), ("carve-off", 5), ("carve-off", 6)],
    ids=["val-data-short-last-batch", "val-data-one-batch",
         "carve-off-short-last-batch", "carve-off-even-batches"],
)
def test_training_matches_two_head_reference(sets, tmp_path, split, batch_size):
    # 23 training records, or 18 once val_split 0.2 carves off 5; 7
    # validation records in chunks of the batch size.
    cfg = TrainConfig(lr=3e-3, batch_size=batch_size, epochs=12, val_split=0.2, seed=5)
    data = as_kernel_dataset(sets["train"])
    old = _old_arrays(sets["train"])
    val_pairs = sets["val"] if split == "val_data" else None
    val_old = _old_arrays(sets["val"]) if split == "val_data" else None

    def fresh():
        return init_model(m=11, b=8, hidden=(16, 12), seed=2,
                          c_scale=float(np.max(np.abs(data.c))))

    model, history = train(data, cfg, model=fresh(), val_data=val_pairs)
    ref_model, ref_history = _ref_train(old, cfg, fresh(), val_old)
    assert _model_bytes(model, tmp_path, "new.bin") == _model_bytes(
        ref_model, tmp_path, "ref.bin"
    )
    _assert_history_close(history, ref_history)
    # The best epoch is the reference's, not a near-tie flipped by rounding.
    val = [h["val_mse"] for h in history]
    ref_val = [h["val_mse"] for h in ref_history]
    assert int(np.argmin(val)) == int(np.argmin(ref_val))

    report = eval_accuracy(model, sets["val"])
    ref_report = _ref_eval_accuracy(ref_model, *_old_arrays(sets["val"]))
    for key, value in ref_report.items():
        assert report[key] == pytest.approx(value, rel=1e-12, abs=0.0)


def test_loss_and_grads_matches_reference_with_and_without_workspace(sets):
    data = as_kernel_dataset(sets["train"])
    c, ku, kv, n = _old_arrays(sets["train"])
    queries = mesh_queries(TriMesh(n))
    model = init_model(m=n, b=8, hidden=(16, 12), seed=4, c_scale=0.02)
    ws = _Workspace()
    # A full batch, then a shorter one through views of the same buffers.
    for rows in (slice(0, 9), slice(9, 13)):
        ref_loss, ref_grads = _ref_loss_and_grads(
            model, c[rows], ku[rows], kv[rows], queries
        )
        for workspace in (None, ws):
            loss, grads = loss_and_grads(
                model, c[rows], ku[rows], data.kv[rows], queries, workspace
            )
            assert loss == ref_loss
            assert set(grads) == set(ref_grads)
            for key, grad in grads.items():
                assert np.array_equal(grad, ref_grads[key]), key


def test_derived_kv_is_the_solver_kv(sets):
    data = as_kernel_dataset(sets["train"])
    _, ku, kv, _ = _old_arrays(sets["train"])
    assert np.unique(data.ratio).size == len(data)
    assert np.array_equal(data.ku, ku)
    assert np.array_equal(data.kv, kv)
    assert not data.kv.flags.writeable
    # Batches gathered into one workspace: a full batch, then a short one.
    ws = _Workspace()
    rows = np.random.default_rng(0).permutation(len(data))
    for sel in (rows[:9], rows[9:13]):
        c_b, yu_b, yv_b = _gather(data, sel, ws)
        assert np.array_equal(c_b, data.c[sel])
        assert np.array_equal(yu_b, ku[sel])
        assert np.array_equal(yv_b, kv[sel])


# -- the Ku-only set refuses pairs whose Kv it would lose ----------------------


def test_as_kernel_dataset_rejects_underived_kv(lp, sets):
    kp = sets["train"][0][1]
    kv = kp.kv.copy()
    kv[7, 3] = np.nextafter(kv[7, 3], np.inf)
    nudged = KernelPair(mesh=kp.mesh, ku=kp.ku, kv=kv,
                        lam_n=kp.lam_n, mu_n=kp.mu_n, r=kp.r)
    with pytest.raises(ValueError, match="edge trace"):
        as_kernel_dataset([sets["train"][1], (sets["train"][0][0], nudged)])
    source = NeuralKernelSource(init_model(m=11, b=8, hidden=(16,)), kp.mesh, lp)
    c = sets["train"][0][0]
    with pytest.raises(ValueError, match="edge trace"):
        as_kernel_dataset([(c, source.acquire(c))])
    with pytest.raises(ValueError, match="edge trace"):
        train([(c, source.acquire(c))], TrainConfig(epochs=1))


# -- memory guards -------------------------------------------------------------

# Slack on the traced peaks: index arrays of a few thousand records and
# small per-chunk arrays, far below one whole-set (records, nodes) matrix.
_SLACK = 64 * 1024


def _synthetic(records, mesh_n, seed):
    rng = np.random.default_rng(seed)
    n_tri = mesh_n * (mesh_n + 1) // 2
    return KernelDataset(
        mesh_n=mesh_n,
        c=rng.uniform(-0.02, 0.0, (records, mesh_n)),
        ku=rng.normal(0.0, 0.01, (records, n_tri)),
        ratio=rng.uniform(0.5, 0.6, records),
    )


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, out


def test_validation_peak_does_not_grow_with_validation_records():
    """Doubling the validation records leaves train's peak where it was.

    The sets are built before tracing starts, so the added Ku bytes
    themselves are outside the peak, and the two-head path's whole-set
    prediction and residual matrices (four times the added Ku bytes)
    would show in full.
    """
    mesh_n = 21
    data = _synthetic(96, mesh_n, 0)
    cfg = TrainConfig(lr=1e-3, batch_size=32, epochs=1, seed=0)
    peaks = []
    for records in (400, 800):
        val = _synthetic(records, mesh_n, 1)
        model = init_model(m=mesh_n, b=8, hidden=(16, 16), seed=0, c_scale=0.02)
        peaks.append(_traced_peak(train, data, cfg, model=model, val_data=val)[0])
    assert peaks[1] - peaks[0] <= _SLACK, peaks


def test_carve_off_peak_does_not_grow_with_records():
    """A carved-off split is addressed through index arrays (8 bytes a
    record), not copied: doubling the set leaves the peak of train
    within the slack, where copying the two parts would add the whole
    added set."""
    mesh_n = 21
    cfg = TrainConfig(lr=1e-3, batch_size=32, epochs=1, val_split=0.25, seed=0)
    peaks = []
    for records in (400, 800):
        data = _synthetic(records, mesh_n, 4)
        model = init_model(m=mesh_n, b=8, hidden=(16, 16), seed=0, c_scale=0.02)
        peaks.append(_traced_peak(train, data, cfg, model=model)[0])
    assert peaks[1] - peaks[0] <= _SLACK, peaks


def test_eval_peak_does_not_grow_with_test_records():
    mesh_n = 21
    model = init_model(m=mesh_n, b=8, hidden=(16, 16), seed=0, c_scale=0.02)
    peaks = [
        _traced_peak(eval_accuracy, model, _synthetic(records, mesh_n, 2))[0]
        for records in (600, 1200)
    ]
    assert peaks[1] - peaks[0] <= _SLACK, peaks


def test_training_workspace_is_released_on_return():
    mesh_n = 21
    data = _synthetic(200, mesh_n, 3)
    model = init_model(m=mesh_n, b=8, hidden=(16, 16), seed=0, c_scale=0.02)
    params_bytes = sum(p.nbytes for p in model.params.values())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model, history = train(data, TrainConfig(batch_size=64, epochs=2), model=model)
        peak = tracemalloc.get_traced_memory()[1] - before
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # The workspace holds several (64, nodes) buffers while training runs;
    # afterwards only the best parameters and the history remain.
    assert peak > 4 * 64 * data.ku.shape[1] * 8
    assert kept <= params_bytes + _SLACK, kept
    assert len(history) == 2
