"""Deterministic persistence of sweep tables, fits and path profiles.

CSV bodies are byte-identical for identical configs: '.' decimal separator,
17 significant digits, fixed column order, rows in input order, and a field
quoted only when it holds the separator, a quote or a line break.  The JSON
mirror carries the same numbers for machine use, and every persisted value
travels with its error estimate.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from cyl import __version__
from cyl.constants import sobolev_constants

__all__ = ["fmt", "write_csv", "write_json", "write_plot_data", "RunManifest"]


def fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: str, header, rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)

    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        return str(o)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, default=default)
        fh.write("\n")


def write_plot_data(path: str, x, y, yerr) -> None:
    """Flat (x, y, yerr) triplets, one point per line."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for xi, yi, ei in zip(x, y, yerr):
            fh.write(f"{fmt(float(xi))} {fmt(float(yi))} {fmt(float(ei))}\n")


@dataclass
class RunManifest:
    """Config echo, library version, constants snapshot, wall clock per
    stage; every persisted number carries an error estimate."""

    config: dict
    stages: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        """Time the block as the manifest's stage ``name``."""
        t0 = time.perf_counter()
        yield
        self.stages[name] = time.perf_counter() - t0

    def record(self, name: str, value: float, error: float) -> None:
        self.results[name] = {"value": value, "error": error}

    def payload(self) -> dict:
        k = sobolev_constants()
        return {
            "library_version": __version__,
            "config": self.config,
            "constants": k.as_dict(),
            "wall_clock_seconds": self.stages,
            "results": self.results,
        }

    def write(self, path: str) -> None:
        write_json(path, self.payload())
