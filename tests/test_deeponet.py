"""Tests for the POD kernel surrogate, its basis fit and its training loop."""

import hashlib
import struct

import numpy as np
import pytest

from arzno.deeponet import (
    DeepONetModel,
    KernelDataset,
    ModelFormatError,
    NeuralKernelSource,
    TrainConfig,
    _fit_basis,
    _forward_stack,
    _layers,
    eval_accuracy,
    init_model,
    load_model,
    loss_and_grads,
    save_model,
    train,
)
from arzno.kernels import TriMesh, _kv_from_edge, solve_kernels


def _coupling_profile(tau: float, x: np.ndarray) -> np.ndarray:
    # Exponential relaxation coupling with rate set by the travel time.
    kappa = 600.0 / (tau * 10.0)
    return -np.exp(-kappa * x) / tau


def _solved_pairs(lp, mesh: TriMesh, taus) -> list[tuple[np.ndarray, object]]:
    out = []
    for tau in taus:
        c = _coupling_profile(tau, mesh.x)
        out.append((c, solve_kernels(c, lp, mesh, c_bound=0.02)))
    return out


def _seeded_model(data: KernelDataset, seed: int):
    """The default architecture for data, its inputs scaled by their
    largest magnitude."""
    return init_model(m=data.mesh_n, seed=seed, c_scale=float(np.max(np.abs(data.c))))


def _naive_stack(params, x, n_hidden):
    a = np.asarray(x, dtype=float)
    for layer in range(n_hidden):
        a = np.tanh(a @ params[f"branch_w{layer}"] + params[f"branch_b{layer}"])
    return a @ params[f"branch_w{n_hidden}"] + params[f"branch_b{n_hidden}"]


def _random_basis(model, seed):
    # An orthonormal basis and a nonzero mean, as train would fit them.
    rng = np.random.default_rng(seed)
    n_tri = model.params["mean"].size
    model.params["mean"] = rng.normal(0.0, 0.01, n_tri)
    model.params["modes"] = np.linalg.qr(rng.standard_normal((n_tri, model.b)))[0].T
    return model


def test_forward_matches_naive_inner_product(lp):
    # The surrogate's forward pass, as the loop acquires it, is at every
    # mesh node the mean plus the branch-weighted sum of the modes,
    # written out term by term; Kv at (x, xi) is lam r / mu times Ku at
    # the edge node (x - xi, 0).
    mesh = TriMesh(8)
    model = _random_basis(init_model(m=8, b=3, hidden=(5,), seed=11, c_scale=0.5), 0)
    rng = np.random.default_rng(0)
    c = rng.uniform(-0.4, 0.4, 8)
    kp = NeuralKernelSource(model, mesh, lp).acquire(c)
    a = _naive_stack(model.params, c / model.c_scale, 1)
    mean, modes = model.params["mean"], model.params["modes"]
    ratio = lp.lam_n * lp.r / lp.mu_n
    for node, (i, j) in enumerate(zip(*np.tril_indices(8))):
        want_u = mean[node] + sum(a[k] * modes[k, node] for k in range(3))
        d = i - j
        edge = d * (d + 1) // 2
        want_v = ratio * (mean[edge] + sum(a[k] * modes[k, edge] for k in range(3)))
        assert kp.ku[i, j] == pytest.approx(want_u, rel=1e-12)
        assert kp.kv[i, j] == pytest.approx(want_v, rel=1e-12)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(5)
    model = _random_basis(init_model(m=8, b=4, hidden=(6,), seed=7, c_scale=0.02), 1)
    n_tri = 8 * 9 // 2
    c_batch = rng.uniform(-0.02, 0.0, (3, 8))
    yu = rng.standard_normal((3, n_tri))
    ratio = rng.uniform(0.4, 0.7, 3)

    _, grads = loss_and_grads(model, c_batch, yu, ratio)
    assert set(grads) == {k for k in model.params if k.startswith("branch_")}

    def loss_at() -> float:
        return loss_and_grads(model, c_batch, yu, ratio)[0]

    for key, grad in grads.items():
        arr = model.params[key]
        num = np.empty_like(arr)
        flat = arr.reshape(-1)
        num_flat = num.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            h = 1e-6 * max(1.0, abs(keep))
            flat[idx] = keep + h
            hi = loss_at()
            flat[idx] = keep - h
            lo = loss_at()
            flat[idx] = keep
            num_flat[idx] = (hi - lo) / (2.0 * h)
        np.testing.assert_allclose(
            num, grad, rtol=1e-5, atol=1e-8, err_msg=key
        )


@pytest.mark.parametrize("records", [20, 60], ids=["record-gram", "node-gram"])
def test_fit_basis_is_the_svd_basis(records):
    # Fewer records than the 36 nodes of a mesh-8 Ku take the records'
    # Gram matrix, more take the nodes', summed in chunks of 7: both give
    # the leading right singular vectors of the centred set, orthonormal
    # and with each mode's largest |entry| positive.
    rng = np.random.default_rng(records)
    n_tri, b = 36, 5
    scales = 2.0 ** -np.arange(12)
    ku = rng.standard_normal((records, 12)) * scales @ rng.standard_normal((12, n_tri))
    data = KernelDataset(mesh_n=8, c=np.zeros((records, 8)), ku=ku + 0.3,
                         ratio=np.ones(records))
    rows = rng.permutation(records)
    mean, modes = _fit_basis(data, rows, b, 7)
    np.testing.assert_allclose(mean, data.ku.mean(axis=0), rtol=1e-12)
    want = np.linalg.svd(data.ku - mean, full_matrices=False)[2][:b]
    want *= np.sign(want[np.arange(b), np.argmax(np.abs(want), axis=1)])[:, None]
    np.testing.assert_allclose(modes, want, atol=1e-9)
    np.testing.assert_allclose(modes @ modes.T, np.eye(b), atol=1e-14)
    assert np.all(modes[np.arange(b), np.argmax(np.abs(modes), axis=1)] > 0)


def test_fit_basis_completes_modes_past_the_rank():
    # Two records leave one direction of variance; the other modes still
    # come back orthonormal, and the fit is deterministic.
    rng = np.random.default_rng(2)
    data = KernelDataset(mesh_n=8, c=np.zeros((2, 8)),
                         ku=rng.standard_normal((2, 36)), ratio=np.ones(2))
    mean, modes = _fit_basis(data, np.arange(2), 30, 256)
    np.testing.assert_allclose(modes @ modes.T, np.eye(30), atol=1e-14)
    again = _fit_basis(data, np.arange(2), 30, 256)
    assert np.array_equal(mean, again[0]) and np.array_equal(modes, again[1])


def test_memorizes_solver_kernels(lp, stack_pairs):
    # The surrogate must be able to drive the fit error of a handful of
    # solved kernel pairs to the noise floor; this exercises the forward pass,
    # backprop, and the optimizer together against real labels.
    mesh = TriMesh(9)
    data = stack_pairs(_solved_pairs(lp, mesh, (52.0, 60.0, 70.0)))
    model = init_model(
        m=9, b=8, hidden=(24, 24), seed=0, c_scale=float(np.max(np.abs(data.c)))
    )
    cfg = TrainConfig(lr=3e-3, batch_size=4, epochs=1500, val_split=0.5, seed=0)
    model, history = train(data, cfg, model=model, val_data=data)
    assert min(h["val_mse"] for h in history) <= 1e-5
    report = eval_accuracy(model, data)
    assert report["ku_mean"] <= 5e-3
    assert report["kv_mean"] <= 5e-3


def test_training_is_reproducible_bytewise(lp, tmp_path, stack_pairs):
    mesh = TriMesh(9)
    data = stack_pairs(_solved_pairs(lp, mesh, (52.0, 63.0, 68.0)))
    cfg = TrainConfig(lr=1e-3, batch_size=2, epochs=5, val_split=0.34, seed=3)
    digests = []
    for run in range(2):
        model, _ = train(data, cfg, _seeded_model(data, cfg.seed))
        path = tmp_path / f"run{run}.bin"
        save_model(model, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]

    other_cfg = TrainConfig(lr=1e-3, batch_size=2, epochs=5, val_split=0.34, seed=4)
    other, _ = train(data, other_cfg, _seeded_model(data, other_cfg.seed))
    save_model(other, tmp_path / "other.bin")
    assert (
        hashlib.sha256((tmp_path / "other.bin").read_bytes()).hexdigest()
        != digests[0]
    )


def test_init_model_is_seed_deterministic():
    a = init_model(m=5, b=3, hidden=(4,), seed=1)
    b = init_model(m=5, b=3, hidden=(4,), seed=1)
    c = init_model(m=5, b=3, hidden=(4,), seed=2)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_save_load_round_trip_is_exact(tmp_path):
    model = init_model(m=7, b=5, hidden=(6, 4), seed=9, c_scale=0.013)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert (back.m, back.b, back.hidden) == (7, 5, (6, 4))
    assert back.c_scale == model.c_scale
    for key in model.params:
        np.testing.assert_array_equal(back.params[key], model.params[key])
    save_model(back, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_load_rejects_malformed_files(tmp_path):
    model = init_model(m=4, b=2, hidden=(3,), seed=0)
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(bad)

    bad.write_bytes(blob[:20])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(bad)

    bad.write_bytes(blob + b"x")
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(bad)

    bad.write_bytes(b"AZNO" + struct.pack("<IIII", 3, 4, 2, 1))
    with pytest.raises(ModelFormatError, match="version 3"):
        load_model(bad)

    # A branch-trunk model of format version 1 must be retrained.
    bad.write_bytes(b"AZNO" + struct.pack("<IIII", 1, 4, 2, 1))
    with pytest.raises(ModelFormatError, match="retrain"):
        load_model(bad)

    bad.write_bytes(b"AZNO" + struct.pack("<IIII", 2, 4, 2, 0))
    with pytest.raises(ModelFormatError, match="hidden"):
        load_model(bad)

    bad.write_bytes(b"AZNO" + struct.pack("<IIII", 2, 4, 2, 65))
    with pytest.raises(ModelFormatError, match="hidden"):
        load_model(bad)


def test_neural_source_matches_forward(lp):
    # Both heads at all mesh nodes at once, against the naive branch and
    # the solver's Kv rule.
    mesh = TriMesh(12)
    model = _random_basis(init_model(m=12, b=6, hidden=(8, 8), seed=2, c_scale=0.02), 3)
    source = NeuralKernelSource(model, mesh, lp)
    rng = np.random.default_rng(1)
    c = rng.uniform(-0.02, 0.0, 12)
    kp = source.acquire(c)
    a = _naive_stack(model.params, c / model.c_scale, 2)
    want_u = model.params["mean"] + a @ model.params["modes"]
    want_v = _kv_from_edge(want_u, lp.lam_n * lp.r / lp.mu_n, 12)
    ii, jj = np.tril_indices(12)
    for arr, want in ((kp.ku, want_u), (kp.kv, want_v)):
        np.testing.assert_allclose(arr[ii, jj], want, rtol=1e-12, atol=1e-15)
        assert np.all(arr[np.triu_indices(12, k=1)] == 0.0)
    assert kp.mesh is mesh


@pytest.mark.parametrize("hidden", [(8,), (16, 12, 8)], ids=["one-layer", "three-layer"])
def test_neural_source_pairs_are_the_stacked_prediction(lp, hidden):
    # The acquisition runs the branch from cached layers and scatters both
    # heads through one buffer; its pairs must equal, bit for bit, the
    # branch evaluated from the parameter dict times the modes plus the
    # mean, with Kv the edge trace _kv_from_edge builds, so that the
    # pair passes the corpus's Kv check.
    n = 13
    mesh = TriMesh(n)
    model = _random_basis(init_model(m=n, b=5, hidden=hidden, seed=4, c_scale=0.02), 4)
    source = NeuralKernelSource(model, mesh, lp)
    ii, jj = np.tril_indices(n)
    upper = np.triu_indices(n, k=1)
    rng = np.random.default_rng(8)
    for _ in range(5):
        c = rng.uniform(-0.02, 0.02, n)
        a = _forward_stack(_layers(model), c / model.c_scale)[-1]
        pred_u = a @ model.params["modes"] + model.params["mean"]
        pred_v = _kv_from_edge(pred_u, lp.lam_n * lp.r / lp.mu_n, n)
        kp = source.acquire(c)
        for arr, pred in ((kp.ku, pred_u), (kp.kv, pred_v)):
            assert arr.shape == (n, n) and arr.dtype == np.float64
            assert np.array_equal(arr[ii, jj], pred)
            assert np.all(arr[upper] == 0.0)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        assert (kp.lam_n, kp.mu_n, kp.r) == (lp.lam_n, lp.mu_n, lp.r)
        assert np.array_equal(kp.ku_tri, pred_u)
        assert not np.shares_memory(kp.ku, source.acquire(c).ku)


def test_neural_source_validates_sizes(lp):
    model = init_model(m=8, b=4, hidden=(6,), seed=0)
    with pytest.raises(ValueError, match="branch size"):
        NeuralKernelSource(model, TriMesh(12), lp)
    source = NeuralKernelSource(model, TriMesh(8), lp)
    with pytest.raises(ValueError, match="edge grid"):
        source.acquire(np.zeros(9))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lr": 0.0},
        {"batch_size": 0},
        {"epochs": 0},
        {"val_split": 0.0},
        {"val_split": 1.0},
        {"lr": float("nan")},
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


def test_model_validation():
    good = init_model(m=4, b=2, hidden=(3,), seed=0)
    with pytest.raises(ValueError, match="c_scale"):
        DeepONetModel(m=4, b=2, hidden=(3,), c_scale=0.0,
                      params=dict(good.params))
    missing = dict(good.params)
    missing.pop("modes")
    with pytest.raises(ValueError, match="keys"):
        DeepONetModel(m=4, b=2, hidden=(3,), c_scale=0.02, params=missing)
    warped = dict(good.params)
    warped["modes"] = np.zeros((3, 10))
    with pytest.raises(ValueError, match="shape"):
        DeepONetModel(m=4, b=2, hidden=(3,), c_scale=0.02, params=warped)
    poisoned = dict(good.params)
    poisoned["mean"] = np.full(10, np.nan)
    with pytest.raises(ValueError, match="finite"):
        DeepONetModel(m=4, b=2, hidden=(3,), c_scale=0.02, params=poisoned)
    # A 4-node mesh has 10 triangle nodes: no more than 10 modes.
    with pytest.raises(ValueError, match="kernel nodes"):
        init_model(m=4, b=11, hidden=(3,))
    assert init_model(m=4, b=10, hidden=(3,)).params["modes"].shape == (10, 10)


def test_dataset_stacking_and_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        KernelDataset(mesh_n=9, c=np.zeros((2, 9)),
                      ku=np.zeros((2, 10)), ratio=np.zeros(2))
    with pytest.raises(ValueError, match="inconsistent"):
        KernelDataset(mesh_n=9, c=np.zeros((2, 9)),
                      ku=np.zeros((2, 45)), ratio=np.zeros(3))


def test_train_rejects_mismatched_model(lp, stack_pairs):
    data = stack_pairs(_solved_pairs(lp, TriMesh(9), (60.0,)))
    model = init_model(m=8, b=2, hidden=(3,), seed=0)
    with pytest.raises(ValueError, match="model.m"):
        train(data, TrainConfig(epochs=1), model=model)


def test_train_rejects_mesh_mismatch_in_validation(lp, stack_pairs):
    data9 = stack_pairs(_solved_pairs(lp, TriMesh(9), (60.0,)))
    data10 = stack_pairs(_solved_pairs(lp, TriMesh(10), (60.0,)))
    with pytest.raises(ValueError, match="validation mesh"):
        train(data9, TrainConfig(epochs=1), _seeded_model(data9, 0), val_data=data10)
