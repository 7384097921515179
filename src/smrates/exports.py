"""Deterministic CSV and JSON writers for solver and simulation output.

All output is a pure function of its inputs: floats are written with
repr (shortest round-trip form), JSON keys are sorted, line endings are
LF, and no timestamps or environment details are embedded, so reruns
with the same configuration and seed at the same BLAS thread count are
byte-identical.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .moment_engine import MomentSurface
from .monte_carlo import PathRecord
from .semi_markov import SemiMarkovKernel, TimeGrid


def _fmt(x) -> str:
    return repr(float(x))


def _open_csv(path):
    return open(path, "w", newline="\n", encoding="utf-8")


def _csv_prefix(fields) -> str:
    """fields quoted as the files' csv.writer quotes them, each followed
    by the delimiter: the fixed leading columns of many rows."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([*fields, ""])
    return buf.getvalue()[:-1]


def write_phi_csv(path, grid: TimeGrid, kernel: SemiMarkovKernel,
                  phi: np.ndarray, aged_phi: np.ndarray, age: float,
                  meta: str = ""):
    """Interval transition probabilities, plain and age-conditioned:
    one row per (t, from, to) with the row sums surfaced for checking."""
    with _open_csv(path) as fh:
        if meta:
            fh.write(f"# {meta}\n")
        fh.write(f"# age={_fmt(age)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "from", "to", "phi", "phi_aged", "row_sum", "row_sum_aged"])
        row_sums = phi.sum(axis=2)
        row_sums_aged = aged_phi.sum(axis=2)
        for k, t in enumerate(grid.nodes):
            for i in range(kernel.m):
                for j in range(kernel.m):
                    writer.writerow([
                        _fmt(t), kernel.states[i], kernel.states[j],
                        _fmt(phi[k, i, j]), _fmt(aged_phi[k, i, j]),
                        _fmt(row_sums[k, i]), _fmt(row_sums_aged[k, i]),
                    ])


def write_surface_csv(path, surface: MomentSurface, kernel: SemiMarkovKernel,
                      meta: str = ""):
    """Lattice dump: (quantity, state, s, x, value) with the config
    fingerprint and grid parameters in comment headers.

    Written a maturity row at a time; repr of a Python float is the
    same shortest round-trip form as _fmt."""
    with _open_csv(path) as fh:
        if meta:
            fh.write(f"# {meta}\n")
        bits = [f"step={_fmt(surface.step)}",
                f"horizon={_fmt(surface.s_nodes[-1])}",
                f"rate_lo={_fmt(surface.x_nodes[0])}",
                f"rate_hi={_fmt(surface.x_nodes[-1])}",
                f"rate_nodes={surface.x_nodes.size}"]
        if surface.order is not None:
            bits.append(f"order={surface.order}")
        if surface.lag is not None:
            bits.append(f"lag={_fmt(surface.lag)}")
        fh.write("# " + " ".join(bits) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["quantity", "state", "s", "x", "value"])
        s_text = [repr(s) for s in surface.s_nodes.tolist()]
        x_text = [repr(x) for x in surface.x_nodes.tolist()]
        for i in range(surface.n_states):
            name = kernel.states[i] if i < len(kernel.states) else str(i)
            prefix = _csv_prefix([surface.quantity, name])
            for s, row in zip(s_text, surface.values[i].tolist()):
                head = f"{prefix}{s},"
                fh.write("".join(f"{head}{x},{v!r}\n" for x, v in zip(x_text, row)))


def surface_to_json_dict(surface: MomentSurface) -> dict:
    out = {
        "quantity": surface.quantity,
        "s_nodes": surface.s_nodes.tolist(),
        "x_nodes": surface.x_nodes.tolist(),
        "values": surface.values.tolist(),
    }
    if surface.order is not None:
        out["order"] = int(surface.order)
    if surface.lag is not None:
        out["lag"] = float(surface.lag)
    return out


def write_path_csv(path, record: PathRecord | None, meta: str = ""):
    """Per-path dump (t, state, r, I); a None record writes the header only."""
    with _open_csv(path) as fh:
        if meta:
            fh.write(f"# {meta}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "state", "r", "I"])
        if record is None:
            return
        for k in range(record.times.size):
            writer.writerow([
                _fmt(record.times[k]), int(record.states[k]),
                _fmt(record.rates[k]), _fmt(record.integral[k]),
            ])


def write_json(path, payload) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
