"""Supervised corpus generation: coupling estimates paired with kernels.

Each family is one closed-loop adaptive run with its own relaxation time
tau; the kernel pairs the controller acquires along the way are snap-
shotted every subsample_dt seconds together with the estimate that
produced them.  Each family is written to a binary file of its own; a
JSON manifest ties the files together with counts, draws, and a
provenance hash.

Record entry layout (packed little endian, format version 2), one
numpy structured dtype written and read here alone:

    [f64 t][u32 m][f64 x m c][u32 n][f64 lam_n][f64 mu_n][f64 r]
    [f64 x n(n+1)/2 Ku]

t is the snapshot time, c the estimate at the m mesh nodes, and
(lam_n, mu_n, r) the coefficients the kernels were solved for; Ku is the
lower triangle of the Ku kernel in row-major order.  m and n both equal
the manifest's mesh_n.  Kv is not stored: it is rebuilt from the edge of
Ku on read.  Version 1 corpora, which stored both heads, are rejected
and must be regenerated.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
from dataclasses import asdict, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from arzno.controller import ControllerConfig, run_closed_loop
from arzno.deeponet import KernelDataset
from arzno.kernels import KernelPair, TriMesh, _kv_from_edge, solve_kernels
from arzno.model import TrafficParams, derive_linearized
from arzno.sim import GridSpec, InstabilityError, check_cfl

__all__ = [
    "DatasetFormatError",
    "generate",
    "split",
    "split_counts",
    "load_manifest",
    "iter_family",
    "kernel_record_bytes",
    "load_records",
    "verify_labels",
]

log = logging.getLogger(__name__)

_FORMAT = "arzno-dataset"
_VERSION = 2


class DatasetFormatError(ValueError):
    """Raised for malformed manifests or record files."""


@lru_cache(maxsize=None)
def _entry_dtype(n: int) -> np.dtype:
    """The record entry on a mesh of n nodes per side (module docstring)."""
    return np.dtype([
        ("t", "<f8"), ("m", "<u4"), ("c", "<f8", (n,)),
        ("n", "<u4"), ("lam_n", "<f8"), ("mu_n", "<f8"), ("r", "<f8"),
        ("ku", "<f8", (n * (n + 1) // 2,)),
    ])


def kernel_record_bytes(kp: KernelPair) -> bytes:
    """The kernel part of a record entry: n, lam_n, mu_n, r and Ku."""
    dt = _entry_dtype(kp.mesh.n)
    e = np.zeros((), dt)
    e["n"], e["lam_n"], e["mu_n"], e["r"], e["ku"] = (
        kp.mesh.n, kp.lam_n, kp.mu_n, kp.r, kp.ku_tri
    )
    return e.tobytes()[dt.fields["n"][1] :]  # fields n to ku


def _entry(t: float, c: np.ndarray, kp: KernelPair) -> bytes:
    """One record entry: fields t to c, then kernel_record_bytes(kp)."""
    dt = _entry_dtype(c.size)
    e = np.zeros((), dt)
    e["t"], e["m"], e["c"] = t, c.size, c
    return e.tobytes()[: dt.fields["n"][1]] + kernel_record_bytes(kp)


def _decode(
    blob: bytes, mesh_n: int, name: str, entries: Sequence[int] | None = None
) -> np.ndarray:
    """The entries of blob, a structured array of _entry_dtype(mesh_n).

    The array views blob.  entries numbers its rows within the family
    file called name, when they are not the file's first rows in order.

    Raises:
        DatasetFormatError: blob is not a whole number of entries, or an
            entry's m or n is not mesh_n.
    """
    dt = _entry_dtype(mesh_n)
    if len(blob) % dt.itemsize:
        raise DatasetFormatError(
            f"{name}: size {len(blob)} is not a multiple of {dt.itemsize}"
        )
    rec = np.frombuffer(blob, dt)
    for field, what in (("m", "entry"), ("n", "record")):
        bad = np.flatnonzero(rec[field] != mesh_n)
        if bad.size:
            k = bad[0] if entries is None else entries[bad[0]]
            raise DatasetFormatError(
                f"{name}: {what} mesh {rec[field][bad[0]]} != {mesh_n} (entry {k})"
            )
    return rec


def _ratio(rec: np.ndarray) -> np.ndarray:
    """Each entry's lam r / mu, from which _kv_from_edge rebuilds Kv."""
    return rec["lam_n"] * rec["r"] / rec["mu_n"]


def _params_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _run_family(idx: int, tau: float, p: TrafficParams, cfg: ControllerConfig,
                g: GridSpec, stride: int, out_dir: Path) -> dict:
    """Generate one family file."""
    path = out_dir / f"family_{idx:03d}.bin"
    entries: list[bytes] = []
    refreshes = itertools.count()

    def hook(t: float, c_mesh: np.ndarray, kp: KernelPair, ns: int) -> None:
        if next(refreshes) % stride == 0:
            entries.append(_entry(t, c_mesh, kp))

    try:
        run_closed_loop(replace(p, tau=tau), cfg, g, on_refresh=hook)
    except InstabilityError as exc:
        return {"family": idx, "tau": tau, "error": str(exc)}

    path.write_bytes(b"".join(entries))
    return {
        "family": idx,
        "tau": tau,
        "path": path.name,
        "n_records": len(entries),
        "entry_bytes": _entry_dtype(cfg.mesh_n).itemsize,
        "sha256": _file_sha256(path),
    }


def generate(
    p: TrafficParams,
    n_families: int,
    tau_range: tuple[float, float],
    subsample_dt: float,
    out_dir: str | Path,
    seed: int = 0,
    g: GridSpec | None = None,
    cfg: ControllerConfig | None = None,
    config_hash: str | None = None,
) -> dict:
    """Run one adaptive loop per relaxation-time draw and snapshot pairs.

    Each record pairs the identifier's estimate at a refresh with the
    kernels the controller acquired for it, the input the surrogate
    must serve at runtime.  The loop refreshes at every grid step, so
    records are taken every subsample_dt / g.dt steps.

    Args:
        p: base physical parameters; tau is overridden per family.
        n_families: number of relaxation-time draws.
        tau_range: (lo, hi) bounds of the tau distribution (s).
        subsample_dt: snapshot cadence (s); must be a whole multiple of
            the grid dt, since pairs exist only at the steps.
        out_dir: directory for the family files and manifest.json.
        seed: seeds the i.i.d. uniform tau draws (the loop itself is
            deterministic).
        g: space-time grid (default grid when omitted).
        cfg: controller settings (defaults when omitted).
        config_hash: provenance tag for the manifest; derived from the
            generation parameters when omitted.

    Returns:
        The manifest dict (also written to out_dir/manifest.json), with
        a "root" key pointing at out_dir for direct loading.

    Raises:
        ValueError: bad ranges or a cadence mismatch.
        CFLError: the grid violates the CFL bound.
        Either is raised before out_dir is created.
    """
    g = g or GridSpec()
    cfg = cfg or ControllerConfig()
    lo, hi = float(tau_range[0]), float(tau_range[1])
    if not 0 < lo <= hi:
        raise ValueError("tau_range must satisfy 0 < lo <= hi")
    if n_families < 1:
        raise ValueError("n_families must be positive")
    if not g.dt <= subsample_dt < np.inf:
        raise ValueError("subsample_dt must be finite and at least the simulation dt")
    stride_f = subsample_dt / g.dt
    stride = int(round(stride_f))
    if abs(stride_f - stride) > 1e-9:
        raise ValueError("subsample_dt must be a whole multiple of the grid dt")
    # Every tau in range must stay inside the projection bound, or the
    # solver would be asked for kernels outside its certified ball.
    if 1.0 / lo > cfg.c_bar + 1e-12:
        raise ValueError(
            "tau_range admits couplings beyond c_bar; raise c_bar or lo"
        )
    check_cfl(g, derive_linearized(p))  # tau moves c alone, not the speeds

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    taus = np.random.default_rng(seed).uniform(lo, hi, n_families).tolist()

    gen_params = {
        "traffic": asdict(p),
        "controller": asdict(cfg),
        "grid": asdict(g),
        "seed": seed,
        "n_families": n_families,
        "tau_range": [lo, hi],
        "subsample_dt": subsample_dt,
    }
    if config_hash is None:
        config_hash = _params_hash(gen_params)

    results = [
        _run_family(i, tau, p, cfg, g, stride, out) for i, tau in enumerate(taus)
    ]
    families = [r for r in results if "error" not in r]
    skipped = [r for r in results if "error" in r]
    for r in skipped:
        log.warning(
            "family %d (tau=%.3f) skipped: %s", r["family"], r["tau"], r["error"]
        )

    manifest = {
        "format": _FORMAT,
        "version": _VERSION,
        "config_hash": config_hash,
        "mesh_n": cfg.mesh_n,
        "n_records": sum(f["n_records"] for f in families),
        "families": families,
        "skipped": skipped,
        **gen_params,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return {**manifest, "root": str(out)}


def load_manifest(path: str | Path) -> dict:
    """Read and validate a manifest; adds "root" for record loading."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetFormatError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise DatasetFormatError(f"{path} is not a dataset manifest")
    if manifest.get("version") != _VERSION:
        raise DatasetFormatError(
            f"unsupported dataset version {manifest.get('version')} "
            f"(expected {_VERSION}); rerun gen-dataset to regenerate the corpus"
        )
    # Record loading reads these keys unchecked.
    families = manifest.get("families")
    if "mesh_n" not in manifest or not isinstance(families, list):
        raise DatasetFormatError(f"{path} lacks 'mesh_n' or a 'families' list")
    for j, fam in enumerate(families):
        if not (isinstance(fam, dict) and "path" in fam and "n_records" in fam):
            raise DatasetFormatError(f"{path}: family {j} lacks 'path' or 'n_records'")
    manifest.setdefault("root", str(path.parent))
    return manifest


def _coerce_manifest(manifest: dict | str | Path) -> dict:
    if isinstance(manifest, (str, Path)):
        return load_manifest(manifest)
    if "root" not in manifest:
        raise DatasetFormatError("manifest dict lacks a root directory")
    return manifest


def iter_family(
    path: str | Path, mesh_n: int
) -> Iterator[tuple[float, np.ndarray, KernelPair]]:
    """Yield (time, estimate, KernelPair) entries from one family file."""
    rec = _decode(Path(path).read_bytes(), mesh_n, str(path))
    mesh = TriMesh(mesh_n)
    for e in rec:
        kp = KernelPair(mesh=mesh, ku_tri=e["ku"], lam_n=float(e["lam_n"]),
                        mu_n=float(e["mu_n"]), r=float(e["r"]))
        yield float(e["t"]), e["c"].copy(), kp


def load_records(manifest: dict | str | Path) -> KernelDataset:
    """Stack every record under a manifest into a Ku-only training set.

    c, ku and ratio are allocated once, for the records the manifest's
    families count, and each family file's payload is copied straight
    into its slice: beyond the returned arrays, one family file is held
    at a time.  Kv is not decoded; KernelDataset rebuilds it from the
    edge of Ku where it is needed.
    """
    manifest = _coerce_manifest(manifest)
    mesh_n = manifest["mesh_n"]
    root = Path(manifest["root"])
    families = manifest["families"]
    if not families:
        raise DatasetFormatError("manifest lists no families")
    entry = _entry_dtype(mesh_n).itemsize
    n_records = sum(fam["n_records"] for fam in families)
    c = np.empty((n_records, mesh_n))
    ku = np.empty((n_records, mesh_n * (mesh_n + 1) // 2))
    ratio = np.empty(n_records)
    start = 0
    for fam in families:
        blob = Path(root / fam["path"]).read_bytes()
        if len(blob) != entry * fam["n_records"]:
            raise DatasetFormatError(
                f"{fam['path']}: size {len(blob)} does not match manifest"
            )
        rec = _decode(blob, mesh_n, fam["path"])
        rows = slice(start, start + fam["n_records"])
        c[rows], ku[rows], ratio[rows] = rec["c"], rec["ku"], _ratio(rec)
        start = rows.stop
        del blob, rec  # free this file before the next one is read
    return KernelDataset(mesh_n=mesh_n, c=c, ku=ku, ratio=ratio)


def split_counts(ratio: Sequence[float], n: int) -> np.ndarray:
    """Families per train/validation/test part for n families.

    Counts follow largest-remainder rounding of the ratios, and every
    part with a nonzero share gets at least one family.

    Raises:
        ValueError: ratios invalid, or fewer families than parts with a
            nonzero share.
    """
    r = np.asarray(ratio, dtype=float)
    if r.shape != (3,) or not (np.all(r >= 0) and abs(r.sum() - 1.0) <= 1e-9):
        raise ValueError("ratio must be three non-negative shares summing to 1")
    n_parts = int(np.count_nonzero(r))
    if n < n_parts:
        raise ValueError(f"{n} families cannot cover {n_parts} nonzero splits")

    counts = np.floor(r * n).astype(int)
    # Nonzero shares get at least one family before remainders are dealt.
    counts[(r > 0) & (counts == 0)] = 1
    while counts.sum() > n:
        counts[int(np.argmax(counts))] -= 1
    # Remainders go round the nonzero shares, largest fraction first.
    order = [i for i in np.argsort(-(r * n - np.floor(r * n))) if r[i] > 0]
    for k in range(n - counts.sum()):
        counts[order[k % len(order)]] += 1
    return counts


def split(
    manifest: dict | str | Path,
    ratio: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[dict, dict, dict]:
    """Family-stratified train/validation/test split.

    Whole families are assigned to one part so the held-out score
    measures generalization across relaxation times, not interpolation
    within a trajectory.  Part sizes come from split_counts.

    Raises:
        ValueError: as split_counts.
    """
    manifest = _coerce_manifest(manifest)
    families = manifest["families"]
    n = len(families)
    counts = split_counts(ratio, n)

    perm = np.random.default_rng(seed).permutation(n)
    parts = []
    for part in np.split(perm, np.cumsum(counts)[:2]):
        sel = [families[int(i)] for i in sorted(part)]
        parts.append(
            {
                **{k: v for k, v in manifest.items() if k != "families"},
                "families": sel,
                "n_records": sum(f["n_records"] for f in sel),
            }
        )
    return tuple(parts)


def verify_labels(
    manifest: dict | str | Path,
    fraction: float = 0.01,
    seed: int = 0,
) -> dict:
    """Re-solve a random sample of records and compare to stored kernels.

    Returns a report dict with the number checked and the worst sup-norm
    discrepancy.  Records hold the loop's direct solves, and the re-solve
    makes the loop's own call, so a record written by this version
    re-solves bit for bit; a nonzero discrepancy means corruption, or
    labels from an older solver.  Entries have a fixed size, so only the
    sampled ones are read and decoded.
    """
    manifest = _coerce_manifest(manifest)
    root = Path(manifest["root"])
    mesh_n = manifest["mesh_n"]
    p = TrafficParams(**manifest["traffic"])
    # Only the projection bound is read, so manifests whose controller
    # section carries keys that are no longer settings still verify.
    ctl = manifest["controller"]
    mesh = TriMesh(mesh_n)
    rng = np.random.default_rng(seed)

    index = [
        (fam, j)
        for fam in manifest["families"]
        for j in range(fam["n_records"])
    ]
    if not index:
        return {"checked": 0, "max_err": 0.0}
    n_check = max(1, int(round(fraction * len(index))))
    picks = rng.choice(len(index), size=min(n_check, len(index)), replace=False)

    worst = 0.0
    entry = _entry_dtype(mesh_n).itemsize
    by_file: dict[str, list[int]] = {}
    for k in picks:
        fam, j = index[int(k)]
        by_file.setdefault(fam["path"], []).append(j)
    for fname, rows in by_file.items():
        fam = next(f for f in manifest["families"] if f["path"] == fname)
        with open(root / fname, "rb") as f:
            size = f.seek(0, 2)
            if size != entry * fam["n_records"]:
                raise DatasetFormatError(
                    f"{fname}: size {size} does not match manifest"
                )
            blob = bytearray()
            for j in rows:
                f.seek(j * entry)
                blob += f.read(entry)
        rec = _decode(blob, mesh_n, fname, rows)
        kvs = _kv_from_edge(rec["ku"], _ratio(rec)[:, None], mesh_n)
        lp = derive_linearized(replace(p, tau=fam["tau"]))
        for c, ku, kv in zip(rec["c"], rec["ku"], kvs):
            ref = solve_kernels(c, lp, mesh, c_bound=ctl["c_bar"])
            err = max(
                float(np.max(np.abs(ref.ku_tri - ku))),
                float(np.max(np.abs(ref.kv_tri - kv))),
            )
            worst = max(worst, err)
    return {"checked": len(picks), "max_err": worst}
