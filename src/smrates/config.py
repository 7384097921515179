"""Experiment configuration: one self-describing JSON file per run.

The file carries the kernel, the rate model, the solver discretization,
and per-command parameter blocks; the CLI only adds the command name,
the output directory, and an optional seed override.  Parsing errors
raise ConfigError with the offending field path (or JSON line/column),
which the CLI maps to exit code 2.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateBackwardError
from .moment_engine import SolverConfig
from .monte_carlo import MIN_REPLICATIONS
from .rate_models import (
    CIR,
    HULL_WHITE,
    VASICEK,
    CIRParams,
    HullWhiteParams,
    PiecewiseLinear,
    RegimeRateModel,
    VasicekParams,
)
from .semi_markov import SemiMarkovKernel
from .sojourn import SojournDistribution

# validate.maturities and validate.occupancy_times when the block omits
# them; checked by validate_times(), where validate reads them
_VALIDATE_TIMES_DEFAULT = (1.0,)
# JSON shape of the command fields, by key in any block: (shape, shape of
# every entry); the entries of the other lists are checked by value
_FIELD_SHAPES = {
    "age": ("number", None), "r0": ("number", None), "z_threshold": ("number", None),
    "ages": ("list", "number"), "targets": ("list", "object"), "orders": ("list", None),
    "lags": ("list", None), "maturities": ("list", None), "occupancy_times": ("list", None),
}
_JSON_TYPES = {"object": dict, "list": list, "number": (int, float)}
# the keys some command reads, per block; any other key is refused
_BLOCK_KEYS = {
    "phi": {"age"},
    "moments": {"orders", "lags"},
    "simulate": {"start_state", "age", "r0", "horizon", "paths", "step", "targets"},
    "validate": {"r0", "start_state", "ages", "maturities", "orders", "lags",
                 "occupancy_times", "reps_occupancy", "reps_zcb", "reps_rate", "z_threshold"},
}
_TOP_KEYS = {"seed", "kernel", "model", "solver", *_BLOCK_KEYS}
_TARGET_KEYS = {"quantity", "s", "order", "lag", "reps", "antithetic"}


def _check_maturities(path: str, values, horizon: float):
    for s in values:
        _check_number(path, s)
        if s > horizon + 1e-12:
            raise ConfigError(f"field {path}: maturity {s} exceeds the solver horizon {horizon}")


def _check_keys(path: str, block: dict, known):
    unknown = set(block) - set(known)
    if unknown:
        raise ConfigError(f"field {path}: unknown keys {sorted(unknown)}")


def _check_shape(path: str, value, shape: str, entries: str | None = None):
    """value, refused unless it is a JSON shape ("object", "list" or
    "number"; a boolean is no number) with every entry of shape entries."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[shape]):
        raise ConfigError(f"field {path}: {value!r} must be a JSON {shape}")
    for k, entry in enumerate(value if entries else ()):
        _check_shape(f"{path}[{k}]", entry, entries)
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_number(path: str, value, positive: bool = False):
    if not (_is_number(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ConfigError(f"field {path}: {value!r} must be a {kind} number")


def _check_integer(path: str, value, lo: int, hi: float = np.inf):
    if not (_is_number(value) and float(value).is_integer() and lo <= value < hi):
        raise ConfigError(f"field {path}: {value!r} must be an integer in [{lo}, {hi})")


def _check_on_grid(path: str, values, grid, horizon: float):
    for value in values:
        try:
            grid.index_of(float(value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field {path}: {exc} within horizon {horizon}") from exc


def _antithetic_refusal(tgt: dict, kind: str) -> str | None:
    """Why a simulate target's antithetic option cannot run, or None."""
    antithetic = tgt.get("antithetic", False)
    if not isinstance(antithetic, bool):
        return f"{antithetic!r} must be a JSON boolean"
    if not antithetic:
        return None
    if tgt["quantity"] != "zcb_moment":
        return "only a zcb_moment target draws antithetic pairs"
    if kind == CIR:
        return "antithetic variates need a Gaussian transition law"
    if "reps" in tgt and tgt["reps"] % 2:   # the default reps is even
        return f"antithetic pairs need an even reps, got {tgt['reps']!r}"
    return None


def _need(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"field {path}.{key}: missing")
    return mapping[key]


def parse_kernel(spec: dict, path: str = "kernel") -> SemiMarkovKernel:
    states = _need(spec, "states", path)
    p_matrix = _need(spec, "P", path)
    sojourns_raw = _need(spec, "sojourns", path)
    m = len(_check_shape(f"{path}.states", states, "list"))
    for key, rows in (("P", p_matrix), ("sojourns", sojourns_raw)):
        if not (isinstance(rows, list) and len(rows) == m
                and all(isinstance(row, list) and len(row) == m for row in rows)):
            raise ConfigError(f"field {path}.{key}: must be a {m}x{m} matrix")
    sojourns = []
    for i, row in enumerate(sojourns_raw):
        parsed_row = []
        for j, entry in enumerate(row):
            if entry is None:
                parsed_row.append(None)
                continue
            try:
                parsed_row.append(SojournDistribution.from_dict(entry))
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"field {path}.sojourns[{i}][{j}]: {exc}") from exc
        sojourns.append(parsed_row)
    try:
        return SemiMarkovKernel(p_matrix, sojourns, states=states)
    except ValueError as exc:
        raise ConfigError(f"field {path}: {exc}") from exc


def _parse_table(entry, path: str) -> PiecewiseLinear:
    try:
        if isinstance(entry, (int, float)):
            return PiecewiseLinear.constant(float(entry))
        return PiecewiseLinear(entry["ts"], entry["vs"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"field {path}: {exc}") from exc


def parse_model(spec: dict, path: str = "model") -> RegimeRateModel:
    kind = _need(spec, "kind", path)
    params = _need(spec, "params", path)
    try:
        if kind == VASICEK:
            return RegimeRateModel.vasicek(
                [VasicekParams(p["a"], p["b"], p["sigma"]) for p in params]
            )
        if kind == CIR:
            return RegimeRateModel.cir(
                [CIRParams(p["a"], p["b"], p["sigma"]) for p in params]
            )
        if kind == HULL_WHITE:
            return RegimeRateModel.hull_white([
                HullWhiteParams(
                    _parse_table(p["alpha"], f"{path}.params[{i}].alpha"),
                    _parse_table(p["beta"], f"{path}.params[{i}].beta"),
                    _parse_table(p["sigma"], f"{path}.params[{i}].sigma"),
                )
                for i, p in enumerate(params)
            ])
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"field {path}.params: {exc}") from exc
    raise ConfigError(f"field {path}.kind: unknown model kind {kind!r}")


def parse_solver(spec: dict, path: str = "solver") -> SolverConfig:
    _check_keys(path, spec, SolverConfig.__dataclass_fields__)
    try:
        return SolverConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {path}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """Parsed experiment: model objects plus per-command parameter blocks."""

    kernel: SemiMarkovKernel
    model: RegimeRateModel
    solver: SolverConfig
    seed: int
    phi: dict = field(default_factory=dict)
    moments: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)
    validate: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("top level: config must be a JSON object")
        _check_keys("top level", data, _TOP_KEYS)
        kernel = parse_kernel(_need(data, "kernel", "top level"))
        model = parse_model(_need(data, "model", "top level"))
        solver = parse_solver(data.get("solver", {}))
        if kernel.m != model.n_states:
            raise ConfigError(
                f"field model.params: {model.n_states} states but the kernel has {kernel.m}"
            )
        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"field seed: {seed!r} must be a nonnegative integer")
        blocks = {name: dict(_check_shape(name, data.get(name, {}), "object"))
                  for name in ("phi", "moments", "simulate", "validate")}
        cfg = cls(kernel=kernel, model=model, solver=solver, seed=seed, raw=data, **blocks)
        cfg._check_cross_fields()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        return cls.from_dict(data)

    def _check_cross_fields(self):
        # a CIR rate stays at or above 0, and so must its lattice
        solver = self.solver
        if self.model.kind == CIR:
            if solver.rate_hi is not None and solver.rate_hi <= 0:
                raise ConfigError(f"field solver: rate_hi {solver.rate_hi!r} must be "
                                  "positive for a CIR model")
            if solver.reference_rate < 0:
                raise ConfigError(f"field solver: reference_rate {solver.reference_rate!r} "
                                  "must be nonnegative for a CIR model")
        for name, known in _BLOCK_KEYS.items():
            block = getattr(self, name)
            _check_keys(name, block, known)
            for key, value in block.items():
                if key in _FIELD_SHAPES:
                    _check_shape(f"{name}.{key}", value, *_FIELD_SHAPES[key])
        targets = self.simulate.get("targets", [])
        for idx, tgt in enumerate(targets):
            _check_keys(f"simulate.targets[{idx}]", tgt, _TARGET_KEYS)
        horizon = self.solver.horizon
        _check_maturities("validate.maturities", self.validate.get("maturities", []), horizon)
        # lags and occupancy times index the solver grid
        grid = self.solver.time_grid()
        for path, values in (
            ("moments.lags", self.moments.get("lags", [])),
            ("validate.lags", self.validate.get("lags", [])),
            ("validate.occupancy_times", self.validate.get("occupancy_times", [])),
            ("simulate.targets[].lag", [tgt["lag"] for tgt in targets if "lag" in tgt]),
        ):
            _check_on_grid(path, values, grid, horizon)
        for name in ("phi", "moments", "simulate", "validate"):
            block = getattr(self, name)
            for age_key in ("age", "ages"):
                ages = block.get(age_key)
                if ages is None:
                    continue
                for u in (ages if age_key == "ages" else [ages]):
                    if u < 0:
                        raise ConfigError(f"field {name}.{age_key}: age {u} is negative")
                    for i in range(self.kernel.m):
                        try:
                            self.kernel.aged_survival(i, float(u))
                        except DegenerateBackwardError:
                            raise ConfigError(
                                f"field {name}.{age_key}: age {u} saturates state {i}"
                            ) from None
        # command fields fail here, not after the work that reads them
        def given(block, key):
            return [block[key]] if key in block else []

        sim, val, m = self.simulate, self.validate, self.kernel.m
        for path, values, lo, hi in (
            ("simulate.start_state", given(sim, "start_state"), 0, m),
            ("validate.start_state", given(val, "start_state"), 0, m),
            ("simulate.paths", given(sim, "paths"), 0, np.inf),
            ("moments.orders", self.moments.get("orders", []), 1, np.inf),
            ("validate.orders", val.get("orders", []), 1, np.inf),
            ("simulate.targets[].order", [t["order"] for t in targets if "order" in t], 1, np.inf),
            ("simulate.targets[].reps", [t["reps"] for t in targets if "reps" in t],
             MIN_REPLICATIONS, np.inf),
            *((f"validate.{key}", given(val, key), MIN_REPLICATIONS, np.inf)
              for key in ("reps_occupancy", "reps_zcb", "reps_rate")),
        ):
            for value in values:
                _check_integer(path, value, lo, hi)
        for value in given(sim, "step"):
            _check_number("simulate.step", value, positive=True)
        for value in given(sim, "horizon"):
            _check_number("simulate.horizon", value)
        for value in given(val, "z_threshold"):
            _check_number("validate.z_threshold", value)

    def validate_times(self) -> tuple[list[float], list[float]]:
        """validate's maturities and occupancy times, defaults included.

        Explicit values are checked at parse time; the default is checked
        here, so only validate refuses a grid it does not fit.
        """
        maturities = [float(s) for s in self.validate.get("maturities", _VALIDATE_TIMES_DEFAULT)]
        occupancy_times = [float(t) for t in
                           self.validate.get("occupancy_times", _VALIDATE_TIMES_DEFAULT)]
        _check_maturities("validate.maturities", maturities, self.solver.horizon)
        _check_on_grid("validate.occupancy_times", occupancy_times,
                       self.solver.time_grid(), self.solver.horizon)
        return maturities, occupancy_times

    def simulate_targets(self) -> list[dict]:
        """simulate's estimator targets, checked before it simulates
        anything; the maturities are checked against the solver horizon
        here, so only simulate refuses a horizon its targets do not fit."""
        targets = self.simulate.get("targets", [])
        for idx, tgt in enumerate(targets):
            path = f"simulate.targets[{idx}]"
            if _need(tgt, "quantity", path) not in ("zcb_moment", "rate_moments"):
                raise ConfigError(f"field {path}.quantity: unknown {tgt['quantity']!r}")
            _check_maturities(f"{path}.s", [_need(tgt, "s", path)], self.solver.horizon)
            refusal = _antithetic_refusal(tgt, self.model.kind)
            if refusal:
                raise ConfigError(f"field {path}.antithetic: {refusal}")
        return targets

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def with_seed(self, seed: int) -> "ExperimentConfig":
        raw = dict(self.raw)
        raw["seed"] = int(seed)
        return ExperimentConfig.from_dict(raw)
