"""Shared fixtures and the acceptance-criteria terminal report."""

from __future__ import annotations

import numpy as np
import pytest

from arzno.deeponet import KernelDataset
from arzno.model import TrafficParams, derive_linearized

# One line per acceptance criterion, echoed after the pytest summary so
# the PASS/FAIL verdicts are visible even when test output is captured.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion_report():
    """Recorder for acceptance verdicts; prints and remembers one line."""

    def record(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)

    return record


@pytest.fixture(scope="session")
def params():
    return TrafficParams()


@pytest.fixture(scope="session")
def lp(params):
    return derive_linearized(params)


@pytest.fixture
def read_table():
    """Parse one of the package's CSV artifacts (comment lines start #)."""

    def parse(path) -> tuple[list[str], np.ndarray, list[str]]:
        comments: list[str] = []
        rows: list[list[float]] = []
        header: list[str] = []
        for line in open(path):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif not header:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
        return header, np.asarray(rows), comments

    return parse


def _stack_pairs(pairs) -> KernelDataset:
    """(c, KernelPair) pairs on one mesh as the records of a KernelDataset."""
    return KernelDataset(
        mesh_n=pairs[0][1].mesh.n,
        c=np.stack([c for c, _ in pairs]),
        ku=np.stack([kp.ku_tri for _, kp in pairs]),
        ratio=np.array([kp.ratio for _, kp in pairs]),
    )


@pytest.fixture(scope="session")
def stack_pairs():
    """stack_pairs(pairs): (c, KernelPair) pairs as a KernelDataset."""
    return _stack_pairs


class _ReadLog(dict):
    """A dict that adds each key read from it with [] to a given set."""

    def __init__(self, data: dict, seen: set):
        super().__init__(data)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


@pytest.fixture
def read_log():
    """Wrap a dict as read_log(data, seen): its [] reads land in seen."""
    return _ReadLog
