"""Deterministic CSV and JSON writers for solver and simulation output.

All output is a pure function of its inputs: floats are written with
repr (shortest round-trip form), JSON keys are sorted, line endings are
LF, and no timestamps or environment details are embedded, so reruns
with the same configuration and seed at the same BLAS thread count are
byte-identical.

Every JSON file has the layout of ``json.dump(payload, fh,
sort_keys=True, indent=2)`` followed by a newline, written by the small
emitter behind ``write_json``.  A surface's values are formatted once:
``write_surface_csv`` returns the repr strings it wrote, and the
surface's ``surfaces.json`` block carries those same strings, so the CSV
and the JSON agree token for token.  ``smrates moments`` streams
``surfaces.json`` one surface at a time, writing each surface's CSV just
before its block.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .moment_engine import MomentSurface
from .monte_carlo import PathRecord
from .semi_markov import SemiMarkovKernel, TimeGrid


def _fmt(x) -> str:
    return repr(float(x))


def _reprs(nested):
    """repr strings of the floats of a ``.tolist()`` result, nested the same way."""
    if nested and isinstance(nested[0], list):
        return [_reprs(item) for item in nested]
    return list(map(repr, nested))


class ReprFloats(list):
    """A list, flat or nested, of floats already written with repr.

    ``write_json`` writes its leaves as JSON numbers without formatting
    them again (spelling nan and +-inf as json does); ``json.dump`` would
    write them as strings."""


class SurfaceText(NamedTuple):
    """The repr strings of a surface's maturities, rates and values
    (nested as state, maturity, rate)."""

    s_nodes: ReprFloats
    x_nodes: ReprFloats
    values: ReprFloats


def _open_text(path):
    return open(path, "w", newline="\n", encoding="utf-8")


def _csv_prefix(fields) -> str:
    """fields quoted as csv.writer quotes them, each followed by the
    delimiter: the fixed leading columns of many rows."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([*fields, ""])
    return buf.getvalue()[:-1]


def write_phi_csv(path, grid: TimeGrid, kernel: SemiMarkovKernel,
                  phi: np.ndarray, aged_phi: np.ndarray, age: float,
                  meta: str = ""):
    """Interval transition probabilities, plain and age-conditioned:
    one row per (t, from, to) with the row sums surfaced for checking."""
    pairs = [[_csv_prefix([a, b]) for b in kernel.states] for a in kernel.states]
    columns = zip(_reprs(grid.nodes.tolist()), _reprs(phi.tolist()),
                  _reprs(aged_phi.tolist()), _reprs(phi.sum(axis=2).tolist()),
                  _reprs(aged_phi.sum(axis=2).tolist()))
    with _open_text(path) as fh:
        if meta:
            fh.write(f"# {meta}\n")
        fh.write(f"# age={_fmt(age)}\n")
        fh.write("t,from,to,phi,phi_aged,row_sum,row_sum_aged\n")
        for t, p, p_aged, sums, sums_aged in columns:
            for i in range(kernel.m):
                for j in range(kernel.m):
                    fh.write(",".join((t, pairs[i][j] + p[i][j], p_aged[i][j],
                                       sums[i], sums_aged[i])) + "\n")


def write_surface_csv(path, surface: MomentSurface, kernel: SemiMarkovKernel,
                      meta: str = "") -> SurfaceText:
    """Lattice dump: (quantity, state, s, x, value) with the config
    fingerprint and grid parameters in comment headers.

    Written a maturity row at a time, one join per row; returns the
    repr strings it wrote, for the surface's ``surfaces.json`` block."""
    text = SurfaceText(ReprFloats(_reprs(surface.s_nodes.tolist())),
                       ReprFloats(_reprs(surface.x_nodes.tolist())),
                       ReprFloats(_reprs(surface.values.tolist())))
    x_cols = [f"{x}," for x in text.x_nodes]
    with _open_text(path) as fh:
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
        fh.write("quantity,state,s,x,value\n")
        for i, rows in enumerate(text.values):
            name = kernel.states[i] if i < len(kernel.states) else str(i)
            prefix = _csv_prefix([surface.quantity, name])
            for s, row in zip(text.s_nodes, rows):
                head = f"{prefix}{s},"
                fh.write(head + ("\n" + head).join(map(str.__add__, x_cols, row)) + "\n")
    return text


def surface_to_json_dict(surface: MomentSurface, text: SurfaceText) -> dict:
    """The surface's ``surfaces.json`` block, from the strings its CSV
    was written with."""
    out = {
        "quantity": surface.quantity,
        "s_nodes": text.s_nodes,
        "x_nodes": text.x_nodes,
        "values": text.values,
    }
    if surface.order is not None:
        out["order"] = int(surface.order)
    if surface.lag is not None:
        out["lag"] = float(surface.lag)
    return out


def write_path_csv(path, record: PathRecord | None, meta: str = ""):
    """Per-path dump (t, state, r, I); a None record writes the header only."""
    with _open_text(path) as fh:
        if meta:
            fh.write(f"# {meta}\n")
        fh.write("t,state,r,I\n")
        if record is None:
            return
        for row in zip(_reprs(record.times.tolist()), map(str, record.states.tolist()),
                       _reprs(record.rates.tolist()), _reprs(record.integral.tolist())):
            fh.write(",".join(row) + "\n")


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _emit_reprs(write, items, indent: str):
    """A ReprFloats list in json's indent-2 array layout."""
    if not items:
        write("[]")
        return
    inner = indent + "  "
    if isinstance(items[0], str):
        text = ("," + inner).join(items)
        if "n" in text:   # no finite repr has an n
            text = ("," + inner).join(_JSON_NONFINITE.get(t, t) for t in items)
        write("[" + inner + text + indent + "]")
        return
    sep = "[" + inner
    for item in items:
        write(sep)
        _emit_reprs(write, item, inner)
        sep = "," + inner
    write(indent + "]")


def _emit(write, obj, indent: str):
    """obj as json.dump(obj, fh, sort_keys=True, indent=2) writes it at
    the nesting depth whose line break and indent is indent."""
    if isinstance(obj, str):
        write(json.dumps(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)   # np.float64's own repr reads np.float64(...)
        write(_JSON_NONFINITE.get(text, text))
    elif isinstance(obj, ReprFloats):
        _emit_reprs(write, obj, indent)
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            write(f"{sep}{json.dumps(key)}: ")
            _emit(write, value, inner)
            sep = "," + inner
        write(indent + "}")
    elif isinstance(obj, (list, tuple, Iterator)):
        inner = indent + "  "
        sep = "[" + inner
        for item in obj:
            write(sep)
            _emit(write, item, inner)
            sep = "," + inner
            del item   # a streamed item goes before the next one is made
        write(indent + "]" if sep[0] == "," else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, payload) -> None:
    """payload as json.dump(payload, fh, sort_keys=True, indent=2) writes
    it, plus a newline.  Keys must be str.  A list may also be given as an
    iterator, which is consumed one item at a time as it is written, or
    as ReprFloats."""
    with _open_text(path) as fh:
        _emit(fh.write, payload, "\n")
        fh.write("\n")
