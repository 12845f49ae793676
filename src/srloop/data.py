"""Bundled benchmark datasets and CSV loading.

Each bundled dataset ships as a CSV (header row, last column dependent), an
optional natural-language context sidecar, and a manifest entry carrying the
row count, a sha256 checksum, the rediscovery target (when one exists), and
the per-dataset operator additions for the easy search.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .expressions import Dialect, Expression
from .parsing import parse


class UnknownDatasetError(KeyError):
    pass


class DatasetIntegrityError(RuntimeError):
    """Bundled file does not match its manifest checksum."""


class MalformedCsvError(ValueError):
    pass


class NonNumericCellError(MalformedCsvError):
    def __init__(self, row: int, value: str):
        super().__init__(f"non-numeric cell {value!r} in data row {row}")
        self.row = row


@dataclass(frozen=True, eq=False)
class Dataset:
    """Named observations: inputs X (rows, n_vars), outputs y, optional context
    text and rediscovery target. Read-only after load."""

    id: str
    variables: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    context: str | None = None
    target: Expression | None = None
    easy_extra_ops: tuple[str, ...] = ()

    def __post_init__(self):
        expected = tuple(f"x{i + 1}" for i in range(len(self.variables)))
        if tuple(self.variables) != expected:
            raise MalformedCsvError(
                f"input variables must be named x1..x{len(self.variables)} in order, "
                f"got {list(self.variables)}"
            )
        if self.X.ndim != 2 or self.X.shape[1] != len(self.variables):
            raise MalformedCsvError("input matrix does not match the variable list")
        if self.y.shape != (self.X.shape[0],):
            raise MalformedCsvError("output vector does not match the row count")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise MalformedCsvError("dataset contains non-finite values")
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


@functools.cache  # once per process: each lookup of the namespace package scans for it
def _bundle():
    return resources.files("srloop.datasets")


def _manifest() -> dict:
    """The manifest of the bundle, a new dict on every call: callers may
    change it without changing what the next call returns."""
    return json.loads(_read_text(_bundle() / "manifest.json"))


@functools.cache  # once per process and file
def _read_text(path) -> str:
    with resources.as_file(path) as p:
        return Path(p).read_text()


def builtin_ids() -> list[str]:
    return sorted(_manifest()["datasets"])


def dataset_info(dataset_id: str) -> dict:
    """Manifest entry (file, rows, checksum, source, target string, extras)."""
    entries = _manifest()["datasets"]
    if dataset_id not in entries:
        raise UnknownDatasetError(dataset_id)
    return dict(entries[dataset_id])


def reference_models(dataset_id: str = "nikuradse") -> dict:
    """Published reference scores used as display anchors in reports."""
    refs = _manifest()["reference_models"]
    if dataset_id not in refs:
        raise UnknownDatasetError(dataset_id)
    return refs[dataset_id]


def _parse_rows(lines, path_name: str):
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedCsvError(f"{path_name}: empty file") from None
    if len(header) < 2:
        raise MalformedCsvError(f"{path_name}: need at least one input column and one output")
    rows = []
    for i, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise MalformedCsvError(f"{path_name}: row {i} has {len(row)} cells, expected {len(header)}")
        values = []
        for cell in row:
            try:
                values.append(float(cell))
            except ValueError:
                raise NonNumericCellError(i, cell) from None
        rows.append(values)
    if not rows:
        raise MalformedCsvError(f"{path_name}: no data rows")
    data = np.asarray(rows, dtype=float)
    return tuple(header[:-1]), data[:, :-1], data[:, -1]


def load_builtin(dataset_id: str) -> Dataset:
    """Load a bundled dataset by id, verifying the manifest checksum."""
    info = dataset_info(dataset_id)
    raw = (_bundle() / info["file"]).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != info["sha256"]:
        raise DatasetIntegrityError(f"{info['file']}: checksum mismatch")
    variables, X, y = _parse_rows(raw.decode().splitlines(), info["file"])
    context = (_bundle() / info["context_file"]).read_text().strip()
    target = None
    if info["target"]:
        target = parse(info["target"], Dialect.INFIX, list(variables))
    return Dataset(
        id=dataset_id,
        variables=variables,
        X=X,
        y=y,
        context=context or None,
        target=target,
        easy_extra_ops=tuple(info["easy_extra_ops"]),
    )


def load_csv(path, dataset_id: str | None = None) -> Dataset:
    """Load a user CSV (header names the variables, last column = dependent).

    Input columns must be named ``x1..xn`` in order, matching how candidate
    equations reference them. A sidecar ``<stem>.context.txt`` next to the
    file, when present, becomes the dataset context. User datasets have no
    rediscovery target.
    """
    path = Path(path)
    if not path.exists():
        raise MalformedCsvError(f"no such file: {path}")
    variables, X, y = _parse_rows(path.read_text().splitlines(), path.name)
    sidecar = path.parent / (path.stem + ".context.txt")
    context = sidecar.read_text().strip() if sidecar.exists() else None
    return Dataset(
        id=dataset_id or path.stem,
        variables=variables,
        X=X,
        y=y,
        context=context,
    )
