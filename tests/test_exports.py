"""The writers give the bytes of the references kept here: per-element
csv.writer dumps for the CSVs and json.dumps(payload, sort_keys=True,
indent=2) for every JSON file."""

import csv
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smrates import (
    BackwardState,
    MomentSurface,
    SemiMarkovKernel,
    SojournDistribution,
    SolverConfig,
    TimeGrid,
)
from smrates.exports import (
    ReprFloats,
    surface_to_json_dict,
    write_json,
    write_path_csv,
    write_phi_csv,
    write_surface_csv,
)
from smrates.monte_carlo import PathRecord


def _fmt(x) -> str:
    return repr(float(x))


def _reference_surface_csv(path, surface, kernel, meta=""):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
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
        for i in range(surface.n_states):
            name = kernel.states[i] if i < len(kernel.states) else str(i)
            for k, s in enumerate(surface.s_nodes):
                for p, x in enumerate(surface.x_nodes):
                    writer.writerow([
                        surface.quantity, name, _fmt(s), _fmt(x),
                        _fmt(surface.values[i, k, p]),
                    ])


def _kernel(states):
    g = SojournDistribution.exponential(1.0)
    return SemiMarkovKernel([[0.0, 1.0], [1.0, 0.0]], [[None, g], [g, None]],
                            states=states)


def _values(n_rows, nx, rng):
    vals = rng.normal(0.0, 1.0, size=(2, n_rows, nx)) * 10.0 ** rng.integers(-300, 300, size=(2, n_rows, nx))
    vals[0, 0, :3] = [-0.0, 5e-324, 1e300]
    vals[1, -1, -2:] = [0.1 + 0.2, -1e-300]
    return vals


def _same_bytes(tmp_path, surface, kernel, meta="config_sha256=abc seed=7"):
    write_surface_csv(tmp_path / "new.csv", surface, kernel, meta=meta)
    _reference_surface_csv(tmp_path / "ref.csv", surface, kernel, meta=meta)
    return (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("states", [('a,"b"', "plain"), ("calm", 'say "hi"')])
def test_surface_csv_bytes_match_reference(tmp_path, states):
    rng = np.random.default_rng(3)
    s_nodes = np.arange(5) * 0.1
    x_nodes = np.linspace(-0.02, 0.11, 7)
    surface = MomentSurface("zcb_moment", s_nodes, x_nodes, _values(5, 7, rng), order=2)
    assert _same_bytes(tmp_path, surface, _kernel(states))
    text = (tmp_path / "new.csv").read_text()
    assert ",-0.0\n" in text and ",5e-324\n" in text and ",1e+300\n" in text
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    assert {r[1] for r in rows[1:]} == set(states)
    assert all(len(r) == 5 for r in rows)


def test_one_row_covariance_csv_bytes_match_reference(tmp_path):
    rng = np.random.default_rng(5)
    cfg = SolverConfig(step=0.1, horizon=0.5)
    x_nodes = np.linspace(0.0, 0.08, 9)
    surface = MomentSurface("covariance", np.array([0.0]), x_nodes, _values(1, 9, rng),
                            lag=0.5, meta={"config": asdict(cfg)})
    assert _same_bytes(tmp_path, surface, _kernel(("calm", "stressed")), meta="")
    assert "step=0.1 " in (tmp_path / "new.csv").read_text()


def test_surface_csv_names_states_beyond_the_kernel_by_index(tmp_path):
    rng = np.random.default_rng(9)
    surface = MomentSurface("rate_mean", np.arange(3) * 0.5, np.linspace(0.0, 0.1, 4),
                            _values(3, 4, rng))
    kern = SemiMarkovKernel([[1.0]], [[SojournDistribution.exponential(1.0)]],
                            states=("only",))
    assert _same_bytes(tmp_path, surface, kern)


# ---------------------------------------------------------------------------
# phi and path CSVs
# ---------------------------------------------------------------------------

def _reference_phi_csv(path, grid, kernel, phi, aged_phi, age, meta=""):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
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


def _reference_path_csv(path, record, meta=""):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
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


@pytest.mark.parametrize("meta", ["", "config_sha256=abc seed=7"])
@pytest.mark.parametrize("states", [('a,"b"', "plain"), ("calm", "stressed")])
def test_phi_csv_bytes_match_reference(tmp_path, states, meta):
    rng = np.random.default_rng(11)
    grid = TimeGrid(0.1, 0.5)
    phi = _values(3, 4, rng).reshape(grid.nodes.size, 2, 2)
    aged = rng.uniform(size=phi.shape)
    aged[-1, 1] = [-0.0, 0.1 + 0.2]
    args = (grid, _kernel(states), phi, aged, 0.30000000000000004)
    write_phi_csv(tmp_path / "new.csv", *args, meta=meta)
    _reference_phi_csv(tmp_path / "ref.csv", *args, meta=meta)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_path_csv_bytes_match_reference(tmp_path):
    rng = np.random.default_rng(13)
    n = 9
    rates = _values(1, n, rng)[0, 0]
    integral = np.cumsum(rng.uniform(size=n))
    integral[1:4] = [-0.0, 5e-324, 1e300]
    record = PathRecord(np.linspace(0.0, 0.8, n), rng.integers(0, 3, size=n), rates,
                        integral, np.array([0.25]), np.array([1]), BackwardState(0, 0.0),
                        0.1)
    for name, rec, meta in (("full", record, "seed=3"), ("empty", None, "")):
        write_path_csv(tmp_path / f"{name}.csv", rec, meta=meta)
        _reference_path_csv(tmp_path / f"{name}_ref.csv", rec, meta=meta)
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}_ref.csv").read_bytes())


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _reference_json(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _reference_block(surface):
    out = {"quantity": surface.quantity, "s_nodes": surface.s_nodes.tolist(),
           "x_nodes": surface.x_nodes.tolist(), "values": surface.values.tolist()}
    if surface.order is not None:
        out["order"] = int(surface.order)
    if surface.lag is not None:
        out["lag"] = float(surface.lag)
    return out


def test_surfaces_json_matches_json_dump(tmp_path):
    rng = np.random.default_rng(17)
    kernel = _kernel(("calm", "stressed"))
    s_nodes = np.arange(4) * 0.25
    x_nodes = np.linspace(-0.0, 0.1, 6)
    surfaces = [
        MomentSurface("zcb_moment", s_nodes, x_nodes, _values(4, 6, rng), order=2),
        MomentSurface("rate_mean", s_nodes, x_nodes, _values(4, 6, rng)),
        MomentSurface("product_moment", s_nodes, x_nodes, _values(4, 6, rng), lag=0.5),
    ]
    # written values are not checked for finiteness; the surface refuses
    # non-finite values only when it is built
    surfaces[1].values[1, 2, :3] = [math.nan, math.inf, -math.inf]
    surfaces[2].values[0, 3, -1] = math.nan

    def blocks():
        for k, surf in enumerate(surfaces):
            yield surface_to_json_dict(surf, write_surface_csv(tmp_path / f"{k}.csv",
                                                               surf, kernel))

    head = {"config_sha256": "0123abcd", "seed": 20260808}
    write_json(tmp_path / "surfaces.json", {**head, "surfaces": blocks()})
    expected = _reference_json({**head, "surfaces": [_reference_block(s) for s in surfaces]})
    assert (tmp_path / "surfaces.json").read_bytes() == expected
    for k, surf in enumerate(surfaces):
        _reference_surface_csv(tmp_path / f"ref{k}.csv", surf, kernel)
        assert (tmp_path / f"{k}.csv").read_bytes() == (tmp_path / f"ref{k}.csv").read_bytes()
    text = expected.decode()
    assert "-0.0," in text and "5e-324" in text and "1e+300" in text
    assert "NaN" in text and "Infinity" in text and "-Infinity" in text


@pytest.mark.parametrize("floats", [[], [[], [0.5]], [[[-0.0, math.nan]], [[math.inf]]]])
def test_repr_floats_match_json_dump(tmp_path, floats):
    def reprs(v):
        return [reprs(u) for u in v] if isinstance(v, list) else repr(v)

    write_json(tmp_path / "out.json", {"v": ReprFloats(reprs(floats))})
    assert (tmp_path / "out.json").read_bytes() == _reference_json({"v": floats})


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**70, max_value=2**70),
    st.floats(), st.floats().map(np.float64), st.text(),
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(payload=_payloads, as_iterator=st.booleans())
def test_write_json_matches_json_dump(tmp_path_factory, payload, as_iterator):
    path = tmp_path_factory.mktemp("json") / "out.json"
    streamed = iter(payload) if as_iterator and isinstance(payload, list) else payload
    write_json(path, streamed)
    assert path.read_bytes() == _reference_json(payload)


def test_write_json_type_errors(tmp_path):
    # json.dump refuses the last two as well; it would write the int key as "1"
    for payload in ({1: "a"}, [np.int64(3)], {"a": {1.5}}):
        with pytest.raises(TypeError):
            write_json(tmp_path / "bad.json", payload)
