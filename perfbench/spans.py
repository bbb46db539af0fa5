"""Span recorder and per-layer attribution for the traced benchmark run.

The recorder wraps selected library functions from the outside: it replaces
every binding of each function in every loaded ``rigged.*`` module namespace
(``from .moves import separate_highest`` copies the binding, so patching the
defining module alone would miss callers), runs the workload, and puts the
originals back.  Nothing in the library knows it is being traced.

A span is (name, start, end, parent); spans live in compact ``array``s so
that a traced ``verify all`` (about a million spans) stays a few tens of MB,
and are written out once at the end.  Hot leaf functions only bump a counter:
a span per call would cost more than the call itself, so their time shows up
as self time of whichever span called them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

#: (module, attribute, metric name, kind).  Kinds: "span" records a span per
#: call, "gen" records a span per next() and counts yielded items, "count"
#: counts calls only.  Layer = the metric name up to the first dot.
TARGETS = (
    ("configuration", "enumerate_configurations", "configuration.enumerate", "gen"),
    ("configuration", "weight", "configuration.weight", "count"),
    ("configuration", "is_admissible", "configuration.is_admissible", "count"),
    ("configuration", "Configuration.__post_init__", "configuration.instances", "count"),
    ("phases", "phase", "phases.phase", "count"),
    ("moves", "separate_highest", "moves.separate_highest", "span"),
    ("moves", "right_move", "moves.right_move", "span"),
    ("moves", "left_sweeps", "moves.left_sweeps", "span"),
    ("moves", "pass_particle", "moves.pass_particle", "span"),
    ("bijection", "iota", "bijection.iota", "span"),
    ("bijection", "kappa", "bijection.kappa", "span"),
    ("qseries", "QPolynomial.__mul__", "qseries.mul", "span"),
    ("qseries", "inv_pochhammer", "qseries.inv_pochhammer", "span"),
    ("characters", "chi_closed", "characters.chi_closed", "span"),
    ("characters", "config_sum", "characters.config_sum", "span"),
    ("characters", "weighted_config_sum", "characters.weighted_config_sum", "span"),
    ("characters", "enumerate_rigged", "characters.enumerate_rigged", "gen"),
    ("characters", "member", "characters.member", "count"),
    ("identities", "verify_roundtrip", "identities.roundtrip", "span"),
    ("identities", "verify_gordon", "identities.gordon", "span"),
    ("identities", "verify_gordon_r2", "identities.gordon_r2", "span"),
    ("identities", "verify_polynomial_identity", "identities.polynomial", "span"),
    ("identities", "verify_init", "identities.init", "span"),
    ("identities", "verify_init_cover", "identities.init_cover", "span"),
    ("identities", "verify_boundary", "identities.boundary", "span"),
    ("identities", "verify_recursion", "identities.recursion", "span"),
    ("identities", "verify_shift", "identities.shift", "span"),
    ("identities", "verify_fermionic_floor", "identities.fermionic_floor", "span"),
    ("identities", "verify_golden", "identities.golden", "span"),
    ("cli", "main", "cli.main", "span"),
)

LAYERS = ("configuration", "phases", "moves", "bijection", "qseries", "characters", "identities", "cli")
ROOT = "bench"  # the harness's own loop and correctness gate


class Recorder:
    """In-memory span store with a parent stack; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.calls: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self.sweeps = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, kind: str):
        calls = self.calls
        calls[name] = 0
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        nid = self.name_id(name)
        open_, close = self.open, self.close
        if kind == "gen":
            self.items[name] = 0
            items = self.items

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = open_(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    items[name] += 1
                    yield item

            return generator

        sweeps = name == "moves.left_sweeps"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if sweeps:
                self.sweeps += args[3] if len(args) > 3 else kwargs["times"]
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return spanned

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-name self time and total (inclusive) time, from the spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = dict.fromkeys(self.names, 0.0)
        total_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.name_of[i]]
            self_s[name] += dur[i] - child[i]
            # Total time counts only the outermost span of a name, so a
            # recursive call is not counted twice.
            p = parent[i]
            while p >= 0 and self.name_of[p] != self.name_of[i]:
                p = parent[p]
            if p < 0:
                total_s[name] += dur[i]
        return self_s, total_s

    def write(self, path: Path, header: dict) -> None:
        """Dump spans as <path>.json (names, counts, metadata) + <path>.spans (arrays)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = dict(header, names=self.names, spans=len(self.start),
                    arrays=["name_of:i32", "parent:i32", "start:f64", "end:f64"],
                    calls=self.calls, items=self.items, sweeps=self.sweeps)
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1))
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def rebind(module_name: str, dotted: str, make_wrapper) -> list[tuple[object, str, object]]:
    """Replace every binding of ``rigged.<module_name>.<dotted>`` by ``make_wrapper(original)``.

    A function is rebound in every loaded ``rigged.*`` namespace that holds
    it, under whatever name; a method is rebound on its class, aliases such
    as ``__rmul__`` included.  Returns the (owner, name, original) triples
    that ``restore`` puts back.
    """
    module = sys.modules[f"rigged.{module_name}"]
    owner, attr = _resolve(module, dotted)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if owner is module:
        owners = [m for name, m in sorted(sys.modules.items()) if name == "rigged" or name.startswith("rigged.")]
    else:
        owners = [owner]
    undo = []
    for target in owners:
        for key, value in list(vars(target).items()):
            if value is original:
                undo.append((target, key, value))
                setattr(target, key, wrapper)
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


def traced(body, rec: Recorder) -> float:
    """Run ``body()`` under a root span with every target wrapped; returns its wall time."""
    undo = []
    try:
        for mod_name, dotted, name, kind in TARGETS:
            undo += rebind(mod_name, dotted, lambda fn: rec.wrap(fn, name, kind))
        root = rec.open(rec.name_id(ROOT))
        t0 = time.perf_counter()
        try:
            body()
        finally:
            wall = time.perf_counter() - t0
            rec.close(root)
    finally:
        restore(undo)
    return wall


def layer_metrics(rec: Recorder, traced_wall: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metric values and each layer's self-time share of the traced wall."""
    self_s, total_s = rec.self_times()
    calls, items = rec.calls, rec.items
    m: dict[str, float] = {
        "configuration.enumerate.items": items["configuration.enumerate"],
        "configuration.enumerate.self_s": self_s["configuration.enumerate"],
        "configuration.weight.calls": calls["configuration.weight"],
        "configuration.is_admissible.calls": calls["configuration.is_admissible"],
        "configuration.instances": calls["configuration.instances"],
        "phases.phase.calls": calls["phases.phase"],
        "moves.separate_highest.calls": calls["moves.separate_highest"],
        "moves.separate_highest.self_s": self_s["moves.separate_highest"],
        "moves.right_move.calls": calls["moves.right_move"],
        "moves.right_move.self_s": self_s["moves.right_move"],
        "moves.left_sweeps.sweeps": rec.sweeps,
        "moves.left_sweeps.self_s": self_s["moves.left_sweeps"],
        "moves.pass_particle.calls": calls["moves.pass_particle"],
        "moves.pass_particle.self_s": self_s["moves.pass_particle"],
        "bijection.iota.calls": calls["bijection.iota"],
        "bijection.iota.self_s": self_s["bijection.iota"],
        "bijection.kappa.calls": calls["bijection.kappa"],
        "bijection.kappa.self_s": self_s["bijection.kappa"],
        "qseries.mul.calls": calls["qseries.mul"],
        "qseries.mul.self_s": self_s["qseries.mul"],
        "qseries.inv_pochhammer.self_s": self_s["qseries.inv_pochhammer"],
        "characters.chi_closed.calls": calls["characters.chi_closed"],
        "characters.chi_closed.self_s": self_s["characters.chi_closed"],
        "characters.config_sum.self_s": self_s["characters.config_sum"],
        "characters.weighted_config_sum.self_s": self_s["characters.weighted_config_sum"],
        "characters.enumerate_rigged.items": items["characters.enumerate_rigged"],
        "characters.member.calls": calls["characters.member"],
    }
    for _, dotted, name, _ in TARGETS:
        if dotted.startswith("verify_"):
            m[f"{name}.total_s"] = total_s[name]
    m["cli.main.self_s"] = self_s["cli.main"]
    shares = dict.fromkeys(LAYERS + (ROOT,), 0.0)
    for name, value in self_s.items():
        shares[name.split(".")[0]] += value / traced_wall
    return m, shares
