"""The coefficient-space training path against node-space references.

Training and scoring never form a batch's (records, nodes) prediction:
the loss comes from the branch coefficients through the POD identity,
and Kv's share from Ku's edge residual.  Each record's POD targets are
computed once per fit, so an epoch reads no Ku triangle.  The references
below form both heads' node-space predictions the plain way, with Kv the
edge trace of Ku; the loss, the cached targets, the validation scores
and the accuracy report must agree with them to rounding, and training
must take the steps of a loop that projects each batch's Ku itself.  The memory guards check that validation and
evaluation stream: their traced peak must not grow with the number of
records scored.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from arzno.deeponet import (
    KernelDataset,
    NeuralKernelSource,
    TrainConfig,
    _PodTargets,
    _Workspace,
    _fit_basis,
    _gather,
    _val_metrics,
    eval_accuracy,
    init_model,
    loss_and_grads,
    train,
)
from arzno.kernels import TriMesh, _kv_from_edge, solve_kernels

# -- node-space references ---------------------------------------------------


def _ref_residuals(model, data, rows):
    """Both heads' node residuals of the given records, (records, nodes) each."""
    a = np.asarray(data.c[rows] / model.c_scale)
    n_hidden = len(model.hidden)
    for layer in range(n_hidden + 1):
        a = a @ model.params[f"branch_w{layer}"] + model.params[f"branch_b{layer}"]
        if layer < n_hidden:
            a = np.tanh(a)
    pu = model.params["mean"] + a @ model.params["modes"]
    ratio = data.ratio[rows][:, None]
    pv = _kv_from_edge(pu, ratio, data.mesh_n)
    return pu - data.ku[rows], pv - _kv_from_edge(data.ku[rows], ratio, data.mesh_n)


def _ref_scores(model, data, rows):
    ru, rv = _ref_residuals(model, data, rows)
    res = np.sum(ru * ru) + np.sum(rv * rv)
    kv = _kv_from_edge(data.ku[rows], data.ratio[rows][:, None], data.mesh_n)
    ref = np.sum(data.ku[rows] ** 2) + np.sum(kv**2)
    return float(res / ru.size), float(np.sqrt(res / ref))


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
    """(c, ku, kv, n) straight from the pairs, Kv as the solver built it."""
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


@pytest.fixture(scope="module")
def records(sets, stack_pairs):
    """sets, each stacked into a KernelDataset."""
    return {name: stack_pairs(pairs) for name, pairs in sets.items()}


# -- equivalence -------------------------------------------------------------


@pytest.fixture(scope="module")
def fitted(records):
    """A model trained briefly on records["train"], so its basis is
    fitted, and its history."""
    data = records["train"]
    model = init_model(m=11, b=8, hidden=(16, 12), seed=2,
                       c_scale=float(np.max(np.abs(data.c))))
    cfg = TrainConfig(lr=3e-3, batch_size=5, epochs=12, seed=5)
    return train(data, cfg, model=model, val_data=records["val"])


def test_loss_and_grads_matches_reference_with_and_without_workspace(records, fitted):
    model, _ = fitted
    data = records["train"]
    ws = _Workspace()
    # A full batch, then a shorter one through views of the same buffers.
    for rows in (np.arange(9), np.arange(9, 13)):
        ru, rv = _ref_residuals(model, data, rows)
        ref_loss = (np.sum(ru * ru) + np.sum(rv * rv)) / ru.size
        args = (model, data.c[rows], data.ku[rows], data.ratio[rows])
        loss, grads = loss_and_grads(*args)
        assert loss == pytest.approx(ref_loss, rel=1e-10, abs=0.0)
        loss_ws, grads_ws = loss_and_grads(*args, ws)
        assert loss_ws == loss
        assert set(grads_ws) == set(grads)
        for key, grad in grads.items():
            assert np.array_equal(grads_ws[key], grad), key


@pytest.mark.parametrize("chunk", [5, 7], ids=["short-last-chunk", "one-chunk"])
def test_scores_match_node_space_reference(records, fitted, chunk):
    model, history = fitted
    val = records["val"]
    rows = np.arange(len(val))
    mse, rel = _val_metrics(model, val, rows, _Workspace(), chunk)
    ref_mse, ref_rel = _ref_scores(model, val, rows)
    assert mse == pytest.approx(ref_mse, rel=1e-10, abs=0.0)
    assert rel == pytest.approx(ref_rel, rel=1e-10, abs=0.0)
    # train returns its best-validation epoch's model.
    assert min(h["val_mse"] for h in history) == pytest.approx(ref_mse, rel=1e-10)

    ru, rv = _ref_residuals(model, val, rows)
    report = eval_accuracy(model, val)
    for key, err in (("ku", np.abs(ru)), ("kv", np.abs(rv))):
        assert report[f"{key}_max"] == pytest.approx(err.max(), rel=1e-12, abs=0.0)
        assert report[f"{key}_mean"] == pytest.approx(err.mean(), rel=1e-12, abs=0.0)


def test_cached_targets_reproduce_node_space_scores_and_loss(records, fitted):
    model, _ = fitted
    val = records["val"]
    rows = np.arange(len(val))
    # A full chunk of four records, then a short one of three.
    targets = _PodTargets(model, val, rows, 4)
    mean, modes = model.params["mean"], model.params["modes"]
    t_ref = (val.ku - mean) @ modes.T
    r_ref = np.sum((val.ku - mean - t_ref @ modes) ** 2, axis=1)
    np.testing.assert_allclose(targets.t, t_ref, rtol=0.0,
                               atol=1e-12 * np.abs(t_ref).max())
    np.testing.assert_allclose(targets.r, r_ref, rtol=1e-10, atol=0.0)
    kv = _kv_from_edge(val.ku, val.ratio[:, None], val.mesh_n)
    assert targets.ref == pytest.approx(np.sum(val.ku**2) + np.sum(kv**2), rel=1e-12)

    mse, rel = _val_metrics(model, val, rows, _Workspace(), 4, targets)
    ref_mse, ref_rel = _ref_scores(model, val, rows)
    assert mse == pytest.approx(ref_mse, rel=1e-10, abs=0.0)
    assert rel == pytest.approx(ref_rel, rel=1e-10, abs=0.0)

    # A batch of the first chunk's records: the loss from their cached
    # targets and Ku edge is the node-space loss, and the gradients are
    # those of the same records' whole Ku rows.
    pos = np.arange(4)
    c_b, edge_b, ratio_b, cached = targets.batch(pos, _Workspace())
    # Ku's edge values: the nodes (d, 0), at tril positions d (d + 1) / 2.
    assert np.array_equal(edge_b, val.ku[:4][:, [0, 1, 3, 6, 10, 15, 21, 28, 36, 45, 55]])
    loss, grads = loss_and_grads(model, c_b, edge_b, ratio_b, _Workspace(), cached)
    ru, rv = _ref_residuals(model, val, pos)
    assert loss == pytest.approx((np.sum(ru * ru) + np.sum(rv * rv)) / ru.size,
                                 rel=1e-10, abs=0.0)
    _, whole = loss_and_grads(model, val.c[pos], val.ku[pos], val.ratio[pos])
    for key, grad in whole.items():
        assert np.array_equal(grads[key], grad), key


def _per_batch_train(data, cfg, model, val):
    """The parent algorithm of train: each step gathers its batch's whole
    Ku rows and projects them onto the modes, and Adam updates each
    branch array on its own.  The validation records are scored in node
    space."""
    rng = np.random.default_rng(cfg.seed)
    tr = np.arange(len(data))
    model.params["mean"], model.params["modes"] = _fit_basis(
        data, tr, model.b, cfg.batch_size
    )
    keys = [k for k in model.params if k.startswith("branch_")]
    m = {k: np.zeros_like(model.params[k]) for k in keys}
    v = {k: np.zeros_like(model.params[k]) for k in keys}
    step, best_val, best, losses = 0, np.inf, None, []
    for _ in range(cfg.epochs):
        perm = rng.permutation(tr.size)
        running = 0.0
        for start in range(0, tr.size, cfg.batch_size):
            rows = tr[perm[start : start + cfg.batch_size]]
            loss, grads = loss_and_grads(model, data.c[rows], data.ku[rows], data.ratio[rows])
            step += 1
            for k in keys:
                m[k] += (1.0 - 0.9) * (grads[k] - m[k])
                v[k] += (1.0 - 0.999) * (grads[k] * grads[k] - v[k])
                model.params[k] -= cfg.lr * (m[k] / (1.0 - 0.9**step)) / (
                    np.sqrt(v[k] / (1.0 - 0.999**step)) + 1e-8
                )
            running += loss * rows.size
        losses.append(running / tr.size)
        val_mse = _ref_scores(model, val, np.arange(len(val)))[0]
        if val_mse < best_val:
            best_val, best = val_mse, {k: model.params[k].copy() for k in keys}
    model.params.update(best)
    return model, losses


def test_train_takes_the_steps_of_the_per_batch_node_space_loop():
    # Every batch has 64 rows, as does every chunk of the cached targets,
    # so each record's targets round as in its batch's own projection.
    mesh_n = 21
    data, val = _synthetic(192, mesh_n, 5), _synthetic(100, mesh_n, 6)
    cfg = TrainConfig(lr=3e-3, batch_size=64, epochs=6, seed=7)

    def fresh():
        return init_model(m=mesh_n, b=8, hidden=(16, 12), seed=3, c_scale=0.02)

    model, history = train(data, cfg, fresh(), val_data=val)
    ref, losses = _per_batch_train(data, cfg, fresh(), val)
    for key, value in ref.params.items():
        assert np.array_equal(model.params[key], value), key
    for h, loss in zip(history, losses):
        assert h["train_mse"] == pytest.approx(loss, rel=1e-12, abs=0.0)


def test_derived_kv_is_the_solver_kv(sets, records):
    data = records["train"]
    _, ku, kv, n = _old_arrays(sets["train"])
    assert np.unique(data.ratio).size == len(data)
    assert np.array_equal(data.ku, ku)
    assert np.array_equal(_kv_from_edge(data.ku, data.ratio[:, None], n), kv)
    # Batches gathered into one workspace: a full batch, then a short one.
    ws = _Workspace()
    rows = np.random.default_rng(0).permutation(len(data))
    for sel in (rows[:9], rows[9:13]):
        c_b, yu_b, ratio_b = _gather(data, sel, ws)
        assert np.array_equal(c_b, data.c[sel])
        assert np.array_equal(yu_b, ku[sel])
        assert np.array_equal(_kv_from_edge(yu_b, ratio_b[:, None], n), kv[sel])


# -- the Ku-only set holds surrogate pairs as it holds solved ones -------------


def test_kernel_dataset_holds_surrogate_pairs(lp, sets, stack_pairs):
    # A surrogate pair, like a solved one, is Ku's triangle with Kv its
    # edge trace: the set holds its pairs and trains on them.
    kp = sets["train"][0][1]
    model = init_model(m=11, b=8, hidden=(16,))
    source = NeuralKernelSource(model, kp.mesh, lp)
    c = sets["train"][0][0]
    pair = source.acquire(c)
    data = stack_pairs([sets["train"][1], (c, pair)])
    assert np.array_equal(data.ku[1], pair.ku[np.tril_indices(11)])
    assert np.array_equal(_kv_from_edge(data.ku[1], data.ratio[1], 11),
                          pair.kv[np.tril_indices(11)])
    train(stack_pairs([(c, pair)]), TrainConfig(epochs=1), model)


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
    themselves are outside the peak, and a whole-set prediction or
    residual matrix (the added Ku bytes each) would show in full.
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
    # While training runs it holds the basis fit's centred records and
    # Gram matrix, then the workspace's (64, nodes) batch buffers;
    # afterwards only the best parameters, the basis and the history remain.
    assert peak > 4 * 64 * data.ku.shape[1] * 8
    assert kept <= params_bytes + _SLACK, kept
    assert len(history) == 2
