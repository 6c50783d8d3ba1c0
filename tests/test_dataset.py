"""Tests for corpus generation, storage format, and splits."""

import hashlib
import json
import logging
import re
import shutil
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from arzno.cli import main
from arzno.controller import ControllerConfig, run_closed_loop
from arzno.dataset import (
    DatasetFormatError,
    _entry,
    generate,
    iter_family,
    kernel_record_bytes,
    load_manifest,
    load_records,
    split,
    split_counts,
    verify_labels,
)
from arzno.deeponet import NeuralKernelSource, init_model
from arzno.kernels import KernelPair, TriMesh, _kv_from_edge, solve_kernels
from arzno.model import TrafficParams
from arzno.sim import GridSpec


def _kv(data):
    """Kv of every record of a Ku-only set: the edge trace of its Ku."""
    return _kv_from_edge(data.ku, data.ratio[:, None], data.mesh_n)

_GRID = GridSpec(n_x=60, dt=0.1, t_end=1.0)
_CFG = ControllerConfig(mesh_n=21)
_TAUS = (52.0, 70.0)
_GOLDEN = Path(__file__).parent / "data" / "corpus-v2"
# An entry is [f64 t][u32 m][f64 x m c], then the 28-byte record header
# [u32 n][f64 lam_n][f64 mu_n][f64 r] and Ku's lower triangle as f64.
_RECORD_HEADER = 28


def _entry_size(mesh_n: int) -> int:
    return 12 + 8 * mesh_n + _RECORD_HEADER + 8 * (mesh_n * (mesh_n + 1) // 2)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    man = generate(
        TrafficParams(), 10, _TAUS, 0.1, root, seed=0, g=_GRID, cfg=_CFG
    )
    return root, man


def test_generate_counts_and_manifest(corpus):
    root, man = corpus
    assert man["format"] == "arzno-dataset" and man["version"] == 2
    assert man["mesh_n"] == 21
    assert man["n_records"] == 100
    assert len(man["families"]) == 10 and man["skipped"] == []
    assert re.fullmatch(r"[0-9a-f]{12}", man["config_hash"])
    entry = _entry_size(21)
    for fam in man["families"]:
        assert fam["n_records"] == 10
        assert fam["entry_bytes"] == entry
        assert (root / fam["path"]).stat().st_size == 10 * entry
        assert _TAUS[0] <= fam["tau"] <= _TAUS[1]
    on_disk = load_manifest(root / "manifest.json")
    assert on_disk["n_records"] == 100
    assert on_disk["root"] == str(root)


def test_iter_family_yields_snapshots_in_order(corpus):
    root, man = corpus
    fam = man["families"][0]
    entries = list(iter_family(root / fam["path"], 21))
    assert len(entries) == 10
    np.testing.assert_allclose([e[0] for e in entries], np.arange(10) * 0.1,
                               atol=1e-12)
    t0, c0, kp0 = entries[0]
    # The first snapshot happens before any adaptation: the estimate is
    # still the uniform prior -1/(2 tau_guess).
    np.testing.assert_array_equal(c0, np.full(21, -0.5 / _CFG.tau_guess))
    assert kp0.mesh.n == 21
    # Estimates drift as the identifier adapts.
    assert not np.array_equal(entries[-1][1], c0)


def test_load_records_matches_iter_family(corpus):
    root, man = corpus
    data = load_records(man)
    assert data.mesh_n == 21
    tri = 21 * 22 // 2
    assert data.c.shape == (100, 21)
    assert data.ku.shape == (100, tri) and _kv(data).shape == (100, tri)
    assert np.all(np.abs(data.c) <= _CFG.c_bar + 1e-12)

    _, c0, kp0 = next(iter_family(root / man["families"][0]["path"], 21))
    ii, jj = np.tril_indices(21)
    np.testing.assert_array_equal(data.c[0], c0)
    np.testing.assert_array_equal(data.ku[0], kp0.ku[ii, jj])
    np.testing.assert_array_equal(_kv(data)[0], kp0.kv[ii, jj])


def _ref_load_records(manifest):
    """load_records as it was before the set went Ku-only: per-family
    stacks of c, Ku and the Kv decoded from each record's edge, then
    concatenated."""
    mesh_n = manifest["mesh_n"]
    root = Path(manifest["root"])
    entry = _entry_size(mesh_n)
    c_end = 12 + 8 * mesh_n
    head_dtype = np.dtype([("n", "<u4"), ("lam_n", "<f8"), ("mu_n", "<f8"), ("r", "<f8")])
    ii, jj = np.tril_indices(mesh_n)
    edge = (ii - jj) * (ii - jj + 1) // 2
    cs, kus, kvs = [], [], []
    for fam in manifest["families"]:
        blob = (root / fam["path"]).read_bytes()
        raw = np.frombuffer(blob, np.uint8).reshape(fam["n_records"], entry)
        head = raw[:, c_end : c_end + _RECORD_HEADER].copy().view(head_dtype)[:, 0]
        ku = raw[:, c_end + _RECORD_HEADER :].copy().view("<f8")
        ratio = head["lam_n"] * head["r"] / head["mu_n"]
        cs.append(raw[:, 12:c_end].copy().view("<f8"))
        kus.append(ku)
        kvs.append(ratio[:, None] * ku[..., edge])
    return np.concatenate(cs), np.concatenate(kus), np.concatenate(kvs)


def test_load_records_matches_two_head_decode(corpus):
    _, man = corpus
    for part in (man, split(man, (0.5, 0.5, 0.0), seed=3)[1]):
        data = load_records(part)
        c, ku, kv = _ref_load_records(part)
        assert np.array_equal(data.c, c)
        assert np.array_equal(data.ku, ku)
        assert np.array_equal(_kv(data), kv)


def test_load_records_peak_is_the_set_plus_one_family(corpus):
    """Records are decoded once, into the returned arrays: the traced
    peak stays within those arrays plus one family file, plus 10 %."""
    root, man = corpus
    family = max((root / fam["path"]).stat().st_size for fam in man["families"])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        data = load_records(man)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = data.c.nbytes + data.ku.nbytes + data.ratio.nbytes
    assert peak <= 1.1 * (held + family), (peak, held, family)


def test_stored_labels_re_solve_exactly(corpus):
    _, man = corpus
    report = verify_labels(man, fraction=1.0)
    assert report["checked"] == 100
    assert report["max_err"] == 0.0


def test_labels_verify_under_a_legacy_controller_section(corpus, tmp_path):
    # Manifests written while the controller section still carried the
    # kernel_source switch verify as before: only tol and c_bar are read
    # from it.
    root, man = corpus
    legacy = json.loads((root / "manifest.json").read_text())
    legacy["controller"] = {"kernel_source": "solver", **legacy["controller"]}
    legacy["root"] = str(root)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(legacy))
    assert verify_labels(path, fraction=1.0) == verify_labels(man, fraction=1.0)


def test_split_is_disjoint_complete_and_deterministic(corpus):
    _, man = corpus
    tr, va, te = split(man, (0.8, 0.1, 0.1), seed=0)
    assert (len(tr["families"]), len(va["families"]), len(te["families"])) == (8, 1, 1)
    assert (tr["n_records"], va["n_records"], te["n_records"]) == (80, 10, 10)
    paths = [f["path"] for part in (tr, va, te) for f in part["families"]]
    assert len(paths) == 10 and len(set(paths)) == 10
    tr2, va2, te2 = split(man, (0.8, 0.1, 0.1), seed=0)
    assert [f["path"] for f in tr2["families"]] == [f["path"] for f in tr["families"]]
    alt, _, _ = split(man, (0.8, 0.1, 0.1), seed=1)
    assert [f["path"] for f in alt["families"]] != [f["path"] for f in tr["families"]]


def test_split_two_way_and_loading_parts(corpus):
    _, man = corpus
    tr, va, te = split(man, (0.5, 0.5, 0.0), seed=0)
    assert len(tr["families"]) == 5 and len(va["families"]) == 5
    assert te["families"] == [] and te["n_records"] == 0
    part = load_records(tr)
    assert len(part) == 50


def test_split_validation(corpus):
    _, man = corpus
    with pytest.raises(ValueError, match="summing to 1"):
        split(man, (0.5, 0.5, 0.1))
    with pytest.raises(ValueError, match="non-negative"):
        split(man, (-0.1, 0.6, 0.5))
    two = dict(man)
    two["families"] = man["families"][:2]
    with pytest.raises(ValueError, match="cannot cover"):
        split(two, (0.8, 0.1, 0.1))
    # split_counts is the rule split applies, usable before any family exists.
    with pytest.raises(ValueError, match="2 families cannot cover 3"):
        split_counts((0.8, 0.1, 0.1), 2)
    for ratio in ((0.8, 0.1, 0.1), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0)):
        parts = split(man, ratio)
        assert list(split_counts(ratio, 10)) == [len(q["families"]) for q in parts]


def test_generation_is_byte_deterministic(tmp_path):
    kwargs = dict(g=_GRID, cfg=_CFG)
    a = generate(TrafficParams(), 2, _TAUS, 0.1, tmp_path / "a", seed=5, **kwargs)
    b = generate(TrafficParams(), 2, _TAUS, 0.1, tmp_path / "b", seed=5, **kwargs)
    c = generate(TrafficParams(), 2, _TAUS, 0.1, tmp_path / "c", seed=6, **kwargs)
    assert [f["sha256"] for f in a["families"]] == [f["sha256"] for f in b["families"]]
    assert [f["sha256"] for f in a["families"]] != [f["sha256"] for f in c["families"]]


def test_unstable_families_are_skipped(tmp_path, caplog):
    cfg = ControllerConfig(mesh_n=21, rho_gain=1e80)
    with caplog.at_level(logging.WARNING, logger="arzno.dataset"):
        # The runaway gain overflows on purpose; the loop detects the
        # non-finite fields and aborts the family.
        with np.errstate(all="ignore"):
            man = generate(TrafficParams(), 2, _TAUS, 0.1, tmp_path, seed=0,
                           g=_GRID, cfg=cfg)
    assert man["families"] == []
    assert len(man["skipped"]) == 2
    assert all("error" in r for r in man["skipped"])
    assert "skipped" in caplog.text
    with pytest.raises(DatasetFormatError, match="no families"):
        load_records(man)


def test_manifest_and_file_format_errors(corpus, tmp_path):
    root, man = corpus

    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(DatasetFormatError, match="not a dataset manifest"):
        load_manifest(bad)
    bad.write_text(json.dumps({"format": "arzno-dataset", "version": 99}))
    with pytest.raises(DatasetFormatError, match="version"):
        load_manifest(bad)
    bad.write_text("{not json")
    with pytest.raises(DatasetFormatError, match="cannot read"):
        load_manifest(bad)

    with pytest.raises(DatasetFormatError, match="root"):
        load_records({"families": [], "mesh_n": 21})

    fam = man["families"][0]
    blob = (root / fam["path"]).read_bytes()
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(blob[:-1])
    with pytest.raises(DatasetFormatError, match="multiple"):
        list(iter_family(clipped, 21))

    wrong_mesh = tmp_path / "mesh.bin"
    entry = _entry_size(21)
    wrong_mesh.write_bytes(struct.pack("<dI", 0.0, 20) + b"\0" * (entry - 12))
    with pytest.raises(DatasetFormatError, match="entry mesh"):
        list(iter_family(wrong_mesh, 21))

    tampered = json.loads(json.dumps({k: v for k, v in man.items()}))
    tampered["families"][0]["n_records"] += 1
    with pytest.raises(DatasetFormatError, match="does not match manifest"):
        load_records(tampered)


def test_loaded_records_are_the_acquired_pairs(tmp_path):
    man = generate(TrafficParams(), 2, _TAUS, 0.1, tmp_path, seed=4,
                   g=_GRID, cfg=_CFG)
    pairs = []
    for fam in man["families"]:
        run_closed_loop(
            replace(TrafficParams(), tau=fam["tau"]), _CFG, _GRID,
            on_refresh=lambda t, c, kp, ns: pairs.append((c.copy(), kp)),
        )
    data = load_records(man)
    stored = [
        (c, kp)
        for fam in man["families"]
        for _, c, kp in iter_family(tmp_path / fam["path"], 21)
    ]
    assert len(data) == len(pairs) == len(stored) == 20
    ii, jj = np.tril_indices(21)
    for k, ((c, kp), (c_it, kp_it)) in enumerate(zip(pairs, stored)):
        assert np.array_equal(data.c[k], c) and np.array_equal(c_it, c)
        assert np.array_equal(data.ku[k], kp.ku[ii, jj])
        assert np.array_equal(_kv(data)[k], kp.kv[ii, jj])
        assert np.array_equal(kp_it.ku, kp.ku) and np.array_equal(kp_it.kv, kp.kv)


def _copy_corpus(corpus, dest):
    root, man = corpus
    for fam in man["families"]:
        shutil.copy(root / fam["path"], dest / fam["path"])
    (dest / "manifest.json").write_text((root / "manifest.json").read_text())
    return load_manifest(dest / "manifest.json")


def test_load_records_rejects_corrupt_entry_headers(corpus, tmp_path):
    man = _copy_corpus(corpus, tmp_path)
    path = tmp_path / man["families"][1]["path"]
    entry = _entry_size(21)
    clean = path.read_bytes()

    blob = bytearray(clean)
    blob[3 * entry + 8 : 3 * entry + 12] = struct.pack("<I", 22)
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match=r"entry mesh 22 != 21 \(entry 3\)"):
        load_records(man)
    with pytest.raises(DatasetFormatError, match="entry mesh"):
        list(iter_family(path, 21))

    blob = bytearray(clean)
    record_start = 5 * entry + 12 + 8 * 21
    blob[record_start : record_start + 4] = struct.pack("<I", 22)
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match=r"record mesh 22 != 21 \(entry 5\)"):
        load_records(man)
    with pytest.raises(DatasetFormatError, match=r"record mesh 22 != 21 \(entry 5\)"):
        list(iter_family(path, 21))


def test_version_1_corpus_is_rejected(corpus, tmp_path, capsys):
    _copy_corpus(corpus, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["version"] = 1
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetFormatError, match="version 1.*rerun gen-dataset"):
        load_manifest(tmp_path / "manifest.json")
    assert main(["train", "--data", str(tmp_path)]) == 3
    assert "rerun gen-dataset" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"tau_range": (0.0, 60.0)}, "tau_range"),
        ({"tau_range": (70.0, 50.0)}, "tau_range"),
        ({"n_families": 0}, "n_families"),
        ({"subsample_dt": 0.05}, "at least the simulation dt"),
        ({"subsample_dt": 0.25}, "whole multiple"),
        ({"tau_range": (40.0, 60.0)}, "c_bar"),
    ],
)
def test_generate_argument_validation(tmp_path, kwargs, match):
    base = dict(
        p=TrafficParams(), n_families=1, tau_range=_TAUS, subsample_dt=0.1,
        out_dir=tmp_path, g=_GRID, cfg=_CFG,
    )
    base.update(kwargs)
    with pytest.raises(ValueError, match=match):
        generate(**base)


def test_verify_labels_reads_and_checks_only_sampled_entries(corpus, tmp_path):
    man = _copy_corpus(corpus, tmp_path)
    fam = man["families"][1]
    path = tmp_path / fam["path"]
    entry = _entry_size(21)
    one_family = {**man, "families": [fam], "n_records": fam["n_records"]}
    report = verify_labels(one_family, fraction=0.3, seed=4)
    sampled = sorted(
        np.random.default_rng(4).choice(10, size=3, replace=False).tolist()
    )
    unsampled = next(j for j in range(10) if j not in sampled)
    clean = path.read_bytes()

    # Damage an entry outside the sample: its bytes are never decoded.
    blob = bytearray(clean)
    blob[unsampled * entry : (unsampled + 1) * entry] = b"\xff" * entry
    path.write_bytes(bytes(blob))
    assert verify_labels(one_family, fraction=0.3, seed=4) == report

    # The entry-m and record-n checks still hold for the sampled entries.
    j = sampled[1]
    blob = bytearray(clean)
    blob[j * entry + 8 : j * entry + 12] = struct.pack("<I", 22)
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match=rf"entry mesh 22 != 21 \(entry {j}\)"):
        verify_labels(one_family, fraction=0.3, seed=4)
    blob = bytearray(clean)
    start = j * entry + 12 + 8 * 21
    blob[start : start + 4] = struct.pack("<I", 22)
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match=rf"record mesh 22 != 21 \(entry {j}\)"):
        verify_labels(one_family, fraction=0.3, seed=4)

    path.write_bytes(clean[:-1])
    with pytest.raises(DatasetFormatError, match="does not match manifest"):
        verify_labels(one_family, fraction=0.3, seed=4)


def _one_family(tmp_path, blob: bytes, mesh_n: int) -> dict:
    """A manifest dict for blob written as the one family file."""
    (tmp_path / "family_000.bin").write_bytes(blob)
    n_records = len(blob) // _entry_size(mesh_n)
    return {"root": str(tmp_path), "mesh_n": mesh_n, "n_records": n_records,
            "families": [{"path": "family_000.bin", "n_records": n_records}]}


def test_entry_round_trip(lp, tmp_path):
    for n in (21, 41):
        kp = solve_kernels(lp.c_samples(n), lp, TriMesh(n))
        c = 0.5 * lp.c_samples(n)
        buf = _entry(0.3, c, kp)
        # Ku's lower triangle only: Kv is rebuilt from the edge of Ku.
        assert len(buf) == _entry_size(n)
        assert buf[12 + 8 * n :] == kernel_record_bytes(kp)
        assert len(kernel_record_bytes(kp)) == _RECORD_HEADER + 8 * n * (n + 1) // 2
        _one_family(tmp_path, buf, n)
        [(t, c_back, back)] = iter_family(tmp_path / "family_000.bin", n)
        assert t == 0.3 and np.array_equal(c_back, c)
        assert np.array_equal(back.ku, kp.ku)
        assert np.array_equal(back.kv, kp.kv)
        assert (back.lam_n, back.mu_n, back.r) == (kp.lam_n, kp.mu_n, kp.r)
        assert back.mesh.n == n


def test_stacked_entries_decode_like_single_entries(lp, tmp_path):
    mesh = TriMesh(21)
    cs = [s * lp.c_samples(21) for s in (0.0, 0.5, -1.0)]
    pairs = [solve_kernels(c, lp, mesh) for c in cs]
    blob = b"".join(_entry(0.1 * k, c, kp) for k, (c, kp) in enumerate(zip(cs, pairs)))
    man = _one_family(tmp_path, blob, 21)
    data = load_records(man)
    stored = list(iter_family(tmp_path / "family_000.bin", 21))
    ii, jj = np.tril_indices(21)
    assert data.ku.shape == (3, 231) and data.ratio.shape == (3,)
    for k, (c, kp) in enumerate(zip(cs, pairs)):
        assert np.array_equal(data.c[k], c) and np.array_equal(stored[k][1], c)
        assert np.array_equal(data.ku[k], kp.ku[ii, jj])
        assert data.ratio[k] == kp.lam_n * kp.r / kp.mu_n
        assert np.array_equal(_kv(data)[k], kp.kv[ii, jj])
        assert np.array_equal(stored[k][2].ku, kp.ku)
        assert np.array_equal(stored[k][2].kv, kp.kv)
    (tmp_path / "empty.bin").write_bytes(b"")
    assert list(iter_family(tmp_path / "empty.bin", 21)) == []


def test_entry_format_errors(lp, tmp_path):
    kp = solve_kernels(lp.c_samples(21), lp, TriMesh(21))
    buf = _entry(0.0, lp.c_samples(21), kp)
    path = tmp_path / "family_000.bin"
    for damaged in (buf[: 12 + 8 * 21 + _RECORD_HEADER - 4], buf[:-8], buf + bytes(8)):
        path.write_bytes(damaged)
        with pytest.raises(DatasetFormatError, match="not a multiple"):
            list(iter_family(path, 21))
    man = _one_family(tmp_path, buf + buf, 21)
    man["families"][0]["n_records"] = 3
    with pytest.raises(DatasetFormatError, match="does not match manifest"):
        load_records(man)
    bad = bytearray(buf + buf)
    bad[len(buf) + 12 + 8 * 21 : len(buf) + 16 + 8 * 21] = struct.pack("<I", 33)
    man = _one_family(tmp_path, bytes(bad), 21)
    for read in (load_records, lambda m: list(iter_family(path, 21))):
        with pytest.raises(DatasetFormatError, match=r"record mesh 33 != 21 \(entry 1\)"):
            read(man)


def test_every_pair_derives_kv_from_the_edge_of_its_ku(lp, tmp_path):
    # Solved, surrogate and decoded pairs store Ku's triangle alone; their
    # Kv square holds the edge trace below the diagonal and zeros above.
    mesh = TriMesh(21)
    c = lp.c_samples(21)
    solved = solve_kernels(c, lp, mesh)
    surrogate = NeuralKernelSource(init_model(m=21, b=8, hidden=(16,)), mesh, lp)
    (tmp_path / "family.bin").write_bytes(_entry(0.0, c, solved))
    [(_, _, decoded)] = iter_family(tmp_path / "family.bin", 21)
    ii, jj = np.tril_indices(21)
    for kp in (solved, surrogate.acquire(c), decoded):
        assert kp.ratio == lp.lam_n * lp.r / lp.mu_n
        kv = kp.kv
        assert np.array_equal(kv[ii, jj], _kv_from_edge(kp.ku_tri, kp.ratio, 21))
        assert np.array_equal(kv[ii, jj], kp.kv_tri)
        assert np.array_equal(kp.ku[ii, jj], kp.ku_tri)
        for square in (kp.ku, kv):
            assert not np.any(np.triu(square, 1))


def test_sup_norm_is_the_max_over_both_squares(lp, tmp_path):
    # sup_norm reads Kv's sup off Ku's edge, so neither timed acquisition
    # path builds Kv; it still equals max |.| over both squares for every
    # source of pairs, and for a negative ratio whose Kv outgrows Ku.
    mesh = TriMesh(21)
    c = lp.c_samples(21)
    solved = solve_kernels(c, lp, mesh)
    surrogate = NeuralKernelSource(init_model(m=21, b=8, hidden=(16,)), mesh, lp)
    predicted = surrogate.acquire(c)
    assert "kv_tri" not in vars(solved) and "kv_tri" not in vars(predicted)
    (tmp_path / "family.bin").write_bytes(_entry(0.0, c, solved))
    [(_, _, decoded)] = iter_family(tmp_path / "family.bin", 21)
    ku = np.random.default_rng(3).standard_normal(mesh.n_nodes)
    negative = KernelPair(mesh, ku, lam_n=lp.lam_n, mu_n=lp.mu_n, r=-5.0)
    assert negative.ratio < -1 and np.abs(negative.kv).max() > np.abs(ku).max()
    for kp in (solved, predicted, decoded, negative):
        assert kp.sup_norm() == max(np.abs(kp.ku).max(), np.abs(kp.kv).max())


def test_surrogate_pair_round_trips_through_a_record(lp, tmp_path):
    # A surrogate pair is Ku's triangle, as a solved one is, so it is
    # stored like one and read back exactly, Kv derived from Ku's edge.
    mesh = TriMesh(21)
    surrogate = NeuralKernelSource(init_model(m=21, b=8, hidden=(16,)), mesh, lp)
    c = lp.c_samples(21)
    pair = surrogate.acquire(c)
    (tmp_path / "family.bin").write_bytes(_entry(0.0, c, pair))
    [(t, c_back, back)] = iter_family(tmp_path / "family.bin", 21)
    assert t == 0.0 and np.array_equal(c_back, c)
    assert np.array_equal(back.ku, pair.ku) and np.array_equal(back.kv, pair.kv)
    assert (back.lam_n, back.mu_n, back.r) == (pair.lam_n, pair.mu_n, pair.r)


def test_golden_v2_corpus_round_trips_byte_for_byte():
    """A committed three-entry mesh-8 family pins the version 2 bytes."""
    man = load_manifest(_GOLDEN / "manifest.json")
    [fam] = man["families"]
    blob = (_GOLDEN / fam["path"]).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == fam["sha256"]
    assert len(blob) == 3 * _entry_size(8) == 3 * fam["entry_bytes"]
    entries = list(iter_family(_GOLDEN / fam["path"], 8))
    assert [t for t, _, _ in entries] == pytest.approx([0.0, 0.1, 0.2], abs=1e-12)
    assert b"".join(_entry(t, c, kp) for t, c, kp in entries) == blob

    data = load_records(man)
    ref_c, ref_ku, ref_kv = _ref_load_records(man)
    ii, jj = np.tril_indices(8)
    for k, (_, c, kp) in enumerate(entries):
        assert np.array_equal(data.c[k], c)
        assert np.array_equal(data.ku[k], kp.ku[ii, jj])
        assert data.ratio[k] == kp.lam_n * kp.r / kp.mu_n
    assert np.array_equal(data.c, ref_c) and np.array_equal(data.ku, ref_ku)
    assert np.array_equal(_kv(data), ref_kv)
