"""In-memory span recorder for the benchmark's child processes.

The tracer wraps public names of the smrates layers where callers look
them up: a module-level function is replaced in every loaded ``smrates``
module that binds it, a method is replaced on its class.  Each call
records one span (name, start, end, parent, run id, counters); spans stay
in memory and the child writes them out when its run ends.  Nothing under
``src/`` is edited.  A target that no longer exists in the package is
listed in ``absent`` instead of raising.

All times come from ``time.monotonic()``, which on Linux is one clock for
every process, so a child can measure from the moment its parent spawned
it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import weakref


def _bound(fn, args, kwargs):
    """Arguments of one call by parameter name, defaults filled in."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


class _StackBuilds:
    """Tells a freshly built transfer stack from a cached one handed out
    again, by object identity, without keeping the stack alive."""

    def __init__(self):
        self._seen = {}

    def __call__(self, fn, args, kwargs, out):
        ref = self._seen.get(id(out))
        if ref is not None and ref() is out:
            return {}
        self._seen[id(out)] = weakref.ref(out)
        return {"stacks": 1, "stack_bytes": int(out.nbytes)}


def _rules(fn, args, kwargs, out):
    return {"rules": int(out[0].shape[0])}


def _paths(fn, args, kwargs, out):
    return {"paths": int(_bound(fn, args, kwargs).get("reps", 0))}


def _file_bytes(fn, args, kwargs, out):
    path = _bound(fn, args, kwargs).get("path")
    return {"bytes": os.path.getsize(path)} if path is not None else {}


def _lattice(fn, args, kwargs, out):
    ws = args[0]
    return {"m": int(ws.m), "k": int(ws.grid.n_steps), "nx": int(ws.x_nodes.size)}


# (module, attribute, span name, counter hook).  A name with a "{arg}"
# field is completed from that argument of each call.
LAYER_TARGETS = (
    ("smrates.moment_engine", "solve_zcb_moment", "moment_engine.solve.zcb", None),
    ("smrates.moment_engine", "solve_rate_mean", "moment_engine.solve.rate_mean", None),
    ("smrates.moment_engine", "solve_product_moment", "moment_engine.solve.product", None),
    ("smrates.config", "ExperimentConfig.from_file", "config.parse", None),
    ("smrates.cli", "main", "cli.main", None),
    ("smrates.moment_engine", "LatticeWorkspace.__init__", "moment_engine.workspace",
     _lattice),
    ("smrates.moment_engine", "LatticeWorkspace.transfer",
     "moment_engine.transfer.tilt{tilt}", "builds"),
    ("smrates.moment_engine", "LatticeWorkspace.transfer_first_moment",
     "moment_engine.transfer.m1", "builds"),
    ("smrates.moment_engine", "_pack_transfer", "moment_engine.pack", None),
    ("smrates.moment_engine", "gaussian_quadrature_batch", "rate_models.gauss_rule",
     _rules),
    ("smrates.moment_engine", "ncx2_rule_batch", "rate_models.ncx2_rule", _rules),
    ("smrates.moment_engine", "evaluate_zcb_moment", "moment_engine.eval.zcb", None),
    ("smrates.moment_engine", "evaluate_rate_mean", "moment_engine.eval.rate_mean", None),
    ("smrates.moment_engine", "evaluate_product_moment", "moment_engine.eval.product",
     None),
    ("smrates.moment_engine", "covariance_surface", "moment_engine.covariance", None),
    ("smrates.semi_markov", "transition_probabilities", "semi_markov.phi", None),
    ("smrates.semi_markov", "backward_transition_probabilities", "semi_markov.phi_aged",
     None),
    ("smrates.monte_carlo", "estimate_zcb_moment", "monte_carlo.zcb", _paths),
    ("smrates.monte_carlo", "estimate_rate_moments", "monte_carlo.rate", _paths),
    ("smrates.monte_carlo", "estimate_state_occupancy", "monte_carlo.occupancy", _paths),
    ("smrates.exports", "write_surface_csv", "exports.csv", _file_bytes),
    ("smrates.exports", "write_phi_csv", "exports.csv", _file_bytes),
    ("smrates.exports", "write_path_csv", "exports.csv", _file_bytes),
    ("smrates.exports", "surface_to_json_dict", "exports.json", None),
    ("smrates.exports", "write_json", "exports.json", _file_bytes),
)


class Tracer:
    """Records spans for one child process (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        rec = {"name": name, "start": time.monotonic(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: dict):
        rec["end"] = time.monotonic()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code in the benchmark itself."""
        self.installed.add(name)
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name, hook):
        tracer = self
        templated = "{" in name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if templated:
                try:
                    label = name.format(**_bound(fn, args, kwargs))
                except KeyError:
                    label = name.split("{")[0]
            rec = tracer._open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                try:
                    rec.update(hook(fn, args, kwargs, out))
                except Exception as exc:  # a counter must not break the traced program
                    rec["hook_error"] = repr(exc)
            return out

        return traced

    def install(self, targets) -> None:
        """Wrap every target that exists; record the others as absent."""
        hooks = {"builds": _StackBuilds()}
        for module_name, attr, name, hook in targets:
            hook = hooks.get(hook, hook)
            owner_name, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if owner_name:
                raw = owner.__dict__.get(leaf, original)
                if isinstance(raw, classmethod):
                    setattr(owner, leaf, classmethod(self._wrap(raw.__func__, name, hook)))
                else:
                    setattr(owner, leaf, self._wrap(raw, name, hook))
            else:
                traced = self._wrap(original, name, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or mod_name.split(".")[0] != "smrates":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
            self.installed.add(name.split("{")[0])


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans of one process nest strictly (one thread), so the children of a
    span never overlap and their durations add up."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
