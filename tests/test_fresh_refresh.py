"""A fresh refresh against the per-head construction it replaced.

A refresh that acquires a new pair builds the grid tables of both heads
with one gather and one stacked product, reads the drift rates' maxima
off Ku's triangle and its edge, and writes records with struct.  The
references are the per-head construction: the mirror scatter and one
dense product per head (test_controller's table reference, which checks
the tables themselves), drift rates differenced over both heads' full
triangles (kv_tri built), and records encoded as structured-dtype
scalars.  Every trajectory, rate and record byte must be equal.
"""

import numpy as np
import pytest

from arzno import controller, dataset
from arzno.controller import ControllerConfig, run_closed_loop
from arzno.dataset import _entry, _entry_dtype, kernel_record_bytes
from arzno.deeponet import NeuralKernelSource, init_model
from arzno.kernels import KernelPair, TriMesh, solve_kernels
from arzno.sim import GridSpec
from test_controller import _TIMING, _ref_grid_caches


def _ref_kernel_time_derivative(curr: KernelPair, prev: KernelPair, dt: float):
    """The loop's rates from the full difference triangles of both heads."""
    d_u = (curr.ku_tri - prev.ku_tri) / dt
    d_v = (curr.kv_tri - prev.kv_tri) / dt
    return np.abs(d_u).max(), np.abs(d_v).max()


def _ref_kernel_record_bytes(kp: KernelPair) -> bytes:
    dt = _entry_dtype(kp.mesh.n)
    e = np.zeros((), dt)
    e["n"], e["lam_n"], e["mu_n"], e["r"], e["ku"] = (
        kp.mesh.n, kp.lam_n, kp.mu_n, kp.r, kp.ku_tri
    )
    return e.tobytes()[dt.fields["n"][1] :]


def _ref_entry(t: float, c: np.ndarray, kp: KernelPair) -> bytes:
    dt = _entry_dtype(c.size)
    e = np.zeros((), dt)
    e["t"], e["m"], e["c"] = t, c.size, c
    return e.tobytes()[: dt.fields["n"][1]] + _ref_kernel_record_bytes(kp)


def _per_head(monkeypatch, run):
    """run() with the per-head tables, rates and record encoding."""
    with monkeypatch.context() as m:
        m.setattr(controller, "_grid_caches", _ref_grid_caches)
        m.setattr(controller, "kernel_time_derivative", _ref_kernel_time_derivative)
        m.setattr(dataset, "_entry", _ref_entry)
        return run()


@pytest.mark.parametrize("source", ["exact", "surrogate"])
def test_loop_equals_the_per_head_reference(params, monkeypatch, source):
    g = GridSpec(n_x=60, dt=0.1, t_end=30.0)
    cfg = ControllerConfig()
    model = init_model(seed=7) if source == "surrogate" else None
    pairs = []
    got = run_closed_loop(
        params, cfg, g, model=model, on_refresh=lambda t, c, kp, ns: pairs.append(kp)
    )
    assert not any("kv_tri" in vars(kp) for kp in pairs)
    want = _per_head(monkeypatch, lambda: run_closed_loop(params, cfg, g, model=model))
    for name in got.__dataclass_fields__:
        if name not in _TIMING:
            a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b, equal_nan=True), name
    assert got.kernel_acquisitions > 100 and np.all(got.dkv_dt[1:] > 0.0)
    assert got.table_ns > 0 and want.table_ns > 0


def test_family_equals_the_per_head_reference(params, monkeypatch, tmp_path):
    g = GridSpec(n_x=60, dt=0.1, t_end=10.0)
    args = (params, 1, (50.0, 70.0), 0.1)
    got = dataset.generate(*args, tmp_path / "lean", seed=3, g=g)
    want = _per_head(
        monkeypatch, lambda: dataset.generate(*args, tmp_path / "ref", seed=3, g=g)
    )
    [fam] = got["families"]
    assert fam["n_records"] == 100 and want["families"] == [fam]
    lean = (tmp_path / "lean" / fam["path"]).read_bytes()
    assert lean == (tmp_path / "ref" / fam["path"]).read_bytes()


@pytest.mark.parametrize("n", [9, 21, 41])
def test_record_bytes_equal_the_structured_encoding(lp, n):
    mesh = TriMesh(n)
    kp = solve_kernels(lp.c_samples(n), lp, mesh)
    surrogate = NeuralKernelSource(init_model(m=n, b=4, hidden=(8,)), mesh, lp)
    read_only = np.interp(mesh.x, np.linspace(0.0, 1.0, 7), np.linspace(-0.01, 0.01, 7))
    read_only.setflags(write=False)
    strided = np.linspace(-0.01, 0.01, 2 * n)[::2]
    assert not strided.flags.c_contiguous
    for c in (read_only, strided):
        for pair in (kp, surrogate.acquire(c)):
            assert kernel_record_bytes(pair) == _ref_kernel_record_bytes(pair)
            assert _entry(0.3, c, pair) == _ref_entry(0.3, c, pair)
            assert len(_entry(0.3, c, pair)) == _entry_dtype(n).itemsize
