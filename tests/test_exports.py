"""Surface CSVs written a row at a time give the bytes of the
per-element writer kept here as the reference."""

import csv
from dataclasses import asdict

import numpy as np
import pytest

from smrates import MomentSurface, SemiMarkovKernel, SojournDistribution, SolverConfig
from smrates.exports import write_surface_csv


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
