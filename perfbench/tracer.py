"""Per-layer tracing from outside the package.

The tracer wraps the public functions of each layer (module) of
``goldennugget`` at every place a name for them is bound: in the defining
module, in modules that imported the name (``cli`` and ``verify`` import
``reduced_canonical_form``, ``games`` imports ``simplest_number``) and in the
package namespace; methods are wrapped on their class.  Nothing inside the
package changes.

Each wrapper adds to an in-memory count and self time for its function;
no span is stored per call.  Self time is the span's time minus the time of
the wrapped calls made inside it, so recursive calls are attributed to each
level once.  Like every timing of the benchmark it is given at reference
speed (see reference.py), by the scale of the operation it ran in.  Time
spent in unwrapped helpers is charged to the nearest wrapped caller.
Between operations (during answer checks) the tracer is off and the
wrappers only count calls apart, for the self-check.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("dyadic", "fibonacci", "nugget", "games", "rcf", "positions", "cli")

# (layer, attribute) wrapped; a method ``Class.name`` is reported as
# ``<layer>.<name>``, a constructor ``Class.__init__`` as ``<layer>.<Class>``.
TARGETS = (
    ("dyadic", "Dyadic.__init__"),
    ("dyadic", "simplest_number"),
    ("fibonacci", "z1"),
    ("fibonacci", "in_a"),
    ("fibonacci", "in_b"),
    ("fibonacci", "even_repr"),
    ("fibonacci", "b_inverse"),
    ("nugget", "heap_rcf"),
    ("nugget", "classify"),
    ("nugget", "xi_inverse"),
    ("nugget", "heap_canonical"),
    ("nugget", "xi"),
    ("games", "Universe.__init__"),
    ("games", "Universe.make_game"),
    ("games", "Universe.geq"),
    ("games", "Universe.canonical_form"),
    ("games", "Universe.add"),
    ("games", "Universe.negate"),
    ("games", "Universe.stops"),
    ("games", "Universe.outcome"),
    ("rcf", "reduced_canonical_form"),
    ("rcf", "geq_inf"),
    ("positions", "winning_move"),
    ("positions", "position_value"),
    ("positions", "legal_moves"),
    ("positions", "position_outcome"),
    ("cli", "main"),
)

# Metrics reported by a traced run, with their units; BENCHMARK.json lists
# the same names under per_layer.
_TIMED = {
    "fibonacci": ("z1", "in_a", "even_repr", "b_inverse"),
    "nugget": ("heap_rcf", "classify", "xi_inverse", "heap_canonical"),
    "games": ("make_game", "geq", "canonical_form", "add"),
    "rcf": ("reduced_canonical_form",),
    "positions": ("winning_move", "position_value", "legal_moves"),
}
_COUNTED = (
    "dyadic.Dyadic", "dyadic.simplest_number", "fibonacci.in_b", "nugget.xi",
    "games.negate", "games.stops", "games.outcome", "rcf.geq_inf",
    "positions.position_outcome", "cli.main",
)
PER_LAYER = {}
for _layer in LAYERS:
    for _name in _COUNTED:
        if _name.startswith(_layer + "."):
            PER_LAYER[_name + ".calls"] = "count"
    for _fn in _TIMED.get(_layer, ()):
        PER_LAYER[f"{_layer}.{_fn}.calls"] = "count"
        PER_LAYER[f"{_layer}.{_fn}.self_s"] = "s"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER["games.arena_size"] = "count"
PER_LAYER["games.make_game.new_ratio"] = "ratio"
PER_LAYER["positions.moves_per_winning_move"] = "ratio"
PER_LAYER["trace.overhead_ratio"] = "ratio"

# Layers a workload must not reach at all (the bypass self-check).
MUST_NOT_CALL = {
    "classifier_stream.small": ("games", "rcf", "positions", "cli"),
    "classifier_stream.big": ("games", "rcf", "positions", "cli"),
    "oracle_sweep": ("positions", "cli"),
}

# The workload meant to exercise each wrapper: its wrapper must fire there,
# in an operation or in an answer check, so a missed binding fails the
# self-check instead of reading as zero.
EXERCISED_BY = {
    "dyadic.Dyadic": "classifier_stream.big",
    "dyadic.simplest_number": "oracle_sweep",
    "fibonacci.z1": "classifier_stream.small",
    "fibonacci.in_a": "oracle_sweep",
    "fibonacci.in_b": "oracle_sweep",
    "fibonacci.even_repr": "classifier_stream.big",
    "fibonacci.b_inverse": "classifier_stream.small",
    "nugget.heap_rcf": "classifier_stream.small",
    "nugget.classify": "classifier_stream.small",
    "nugget.xi_inverse": "classifier_stream.big",
    "nugget.heap_canonical": "oracle_sweep",
    "nugget.xi": "classifier_stream.small",
    "games.Universe": "oracle_sweep",
    "games.make_game": "oracle_sweep",
    "games.geq": "oracle_sweep",
    "games.canonical_form": "oracle_sweep",
    "games.add": "solve_cli",
    "games.negate": "solve_cli",
    "games.stops": "oracle_sweep",
    "games.outcome": "solve_cli",
    "rcf.reduced_canonical_form": "oracle_sweep",
    "rcf.geq_inf": "oracle_sweep",
    "positions.winning_move": "solve_cli",
    "positions.position_value": "solve_cli",
    "positions.legal_moves": "solve_cli",
    "positions.position_outcome": "solve_cli",
    "cli.main": "solve_cli",
}


def _key(layer: str, attr: str) -> str:
    owner, _, name = attr.rpartition(".")
    return f"{layer}.{owner if name == '__init__' else name}"


class _Stat:
    __slots__ = ("calls", "self_s", "calls_off")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.calls_off = 0


class Tracer:
    """Counts and self times per wrapped function, for one process."""

    def __init__(self):
        self.on = False
        self.scale = 1.0  # reference-speed factor of the current operation
        self.stats: dict[str, _Stat] = {}
        self.arena_size = 0
        self._universes = []
        self._stack = [0.0]  # child time of each open span; [0] is the root

    def install(self) -> None:
        """Wrap every target at every binding in the loaded package modules."""
        importlib.import_module("goldennugget.cli")  # loads every layer
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "goldennugget" or name.startswith("goldennugget.")]
        originals = {}
        for layer, attr in TARGETS:
            module = sys.modules[f"goldennugget.{layer}"]
            key = _key(layer, attr)
            stat = self.stats[key] = _Stat()
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                fn = owner.__dict__[name]
                wrapper = self._wrap(stat, fn)
                if key == "games.Universe":
                    wrapper = self._register_universes(wrapper)
                setattr(owner, name, wrapper)
            else:
                fn = getattr(module, name)
                wrapper = self._wrap(stat, fn)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, bound, wrapper)
            originals[id(fn)] = key
        for m in modules:
            for bound, value in vars(m).items():
                if id(value) in originals:
                    raise RuntimeError(f"{m.__name__}.{bound} still binds unwrapped {originals[id(value)]}")

    def _wrap(self, stat: _Stat, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                stat.calls_off += 1
                return fn(*args, **kwargs)
            stat.calls += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stat.self_s += (span - stack.pop()) * self.scale
                stack[-1] += span

        return wrapper

    def _register_universes(self, init):
        @functools.wraps(init)
        def wrapper(u, *args, **kwargs):
            if self.on:
                self._universes.append(u)
            init(u, *args, **kwargs)

        return wrapper

    def batch_done(self) -> None:
        """Add the arenas of the Universes made since the last batch."""
        self.arena_size += sum(len(u) for u in self._universes)
        self._universes.clear()

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.self_s"] = stat.self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s.self_s for k, s in self.stats.items()
                                         if k.startswith(layer + "."))
        make_game = self.stats["games.make_game"].calls
        winning = self.stats["positions.winning_move"].calls
        out["games.arena_size"] = self.arena_size
        out["games.make_game.new_ratio"] = self.arena_size / make_game if make_game else 0.0
        out["positions.moves_per_winning_move"] = (
            self.stats["positions.position_outcome"].calls / winning if winning else 0.0)
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name in PER_LAYER}

    def self_check(self, workload: str) -> list[str]:
        """Problems found by the bypass self-check; empty when it passes."""
        problems = []
        for layer in MUST_NOT_CALL.get(workload, ()):
            for key, stat in self.stats.items():
                if key.startswith(layer + ".") and stat.calls:
                    problems.append(f"{key} called {stat.calls} times on {workload}")
        for key, stat in self.stats.items():
            if EXERCISED_BY[key] == workload and not stat.calls + stat.calls_off:
                problems.append(f"{key} never fired on {workload}")
        return problems
