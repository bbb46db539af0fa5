"""The three benchmark workloads: seeded inputs, timed calls and correctness gates.

Every workload is a closed loop with one caller: the next call starts when the
previous one has returned.  Inputs come from ``--seed`` alone; the library
sees only the generated values.  Each operation is checked, and a wrong or
raising operation is counted, never skipped.  See README.md for why each
workload exists and why calls are timed against a reference loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import spans
from reference import reference
from rigged import bijection, cli, identities
from rigged.bijection import RiggedPartition
from rigged.configuration import Configuration

#: (name, parameters) of the 289 reports of ``rigged verify all`` at the commit
#: that defined this benchmark; the report list is a contract of the project.
GRID_REPORTS = json.loads(Path(__file__).with_name("grid_reports.json").read_text())

# bijection: map requests are stratified over (k, width) and unmap requests
# over (k, number of parts), so every seed draws the same mix of sizes and only
# the concrete values change; the work of one seed stays close to another's.
MAP_LEVELS = (2, 3, 4, 6)
MAP_WIDTHS = range(8, 49)
MAP_OFFSETS = (-6, 6)
MAP_PER_STRATUM = 4
UNMAP_LEVELS = (3, 4)
UNMAP_PARTS = (2, 3, 4, 5, 6)
UNMAP_PER_STRATUM = 12
# |rigging| <= 800 already gives requests of 5-15 s, so the range is bounded.
UNMAP_RIGGING = 120

# characters: past the default grid (k <= 3, N <= 6, q^20).
POLY_K, POLY_N = 4, 8
GORDON_DEGREE = 28

@dataclass
class Gate:
    """Tally of checked operations; keeps the first few failure witnesses."""

    attempted: int = 0
    failed: int = 0
    witnesses: list[str] = field(default_factory=list)

    def check(self, ok: bool, witness: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.witnesses) < 5:
                self.witnesses.append(witness)


class Meter:
    """Times library calls for one repetition.

    The host's speed drifts by up to 1.8x in phases lasting seconds, so each
    call's time is also divided by the mean time of the reference loop
    (reference.py) run just before and just after it.  The sum of those
    quotients (``ref``) is the repetition's cost in reference-loop units,
    which the drift leaves nearly unchanged; ``raw_s`` is the plain wall time
    of the calls.  With ``calibrate=False`` (the traced repetition) no
    reference loop runs.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.raw_s = 0.0
        self.ref = 0.0
        self.reference_s = 0.0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._last = self._reference()

    def _reference(self) -> float:
        if not self.calibrate:
            return 1.0
        dt = reference()
        self.reference_s += dt
        return dt

    def add(self, dt: float, kind: str | None = None) -> None:
        """Account for ``dt`` seconds of library time that has just ended."""
        after = self._reference()
        self.raw_s += dt
        self.ref += 2 * dt / (self._last + after)
        self._last = after
        if kind is not None:
            self.samples[kind].append(dt)

    def call(self, kind: str | None, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(time.perf_counter() - t0, kind)


# -- independent oracles -------------------------------------------------------
# The gates recompute energy, length and admissibility from the raw columns
# rather than through library calls, so they share no code with what they check
# and add nothing to the traced run's counts.


def _phase(k: int, l: int, lp: int) -> int:
    return 2 * min(l, lp) + max(l + lp - k, 0)


def _energy_split(rp: RiggedPartition, k: int) -> int:
    ws = [w for w, _ in rp.parts]
    e0 = sum(_phase(k, ws[i], ws[j]) for i in range(len(ws)) for j in range(i + 1, len(ws)))
    return e0 + sum(r for _, r in rp.parts)


def _energy(a: Configuration) -> int:
    return sum((a.offset + j) * c for j, c in enumerate(a.counts))


def _admissible(a: Configuration, k: int) -> bool:
    c = (0, 0) + a.counts
    return all(c[j] + c[j + 1] + c[j + 2] <= k for j in range(len(a.counts)))


def _consistent(a: Configuration, rp: RiggedPartition, k: int) -> str | None:
    if not _admissible(a, k):
        return f"{a} is not admissible at k={k}"
    if _energy(a) != _energy_split(rp, k):
        return f"energy of {a} != E0+E1 of {rp}"
    if sum(a.counts) != sum(w for w, _ in rp.parts):
        return f"length of {a} != |{rp}|"
    return None


# -- grid ----------------------------------------------------------------------

#: The checks ``verify_all`` calls; in untraced repetitions each call is timed
#: on its own so that it can be calibrated like any other call.
GRID_CHECKS = tuple(name for name in vars(identities) if name.startswith("verify_") and name != "verify_all")


def grid_inputs(seed: int) -> list[list[str]]:
    # The default grid is fixed by the CLI; the seed has nothing to vary.
    return [["verify", "all", "--json"]]


def grid_rep(inputs: list[list[str]], gate: Gate, meter: Meter) -> None:
    def timed(fn):
        return lambda *args, **kwargs: meter.call(None, fn, *args, **kwargs)

    for argv in inputs:
        out, err = io.StringIO(), io.StringIO()
        undo = []
        if meter.calibrate:
            for name in GRID_CHECKS:
                undo += spans.rebind("identities", name, timed)
        raw, reference = meter.raw_s, meter.reference_s
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            reports = json.loads(out.getvalue())
        except Exception as exc:  # a crash fails every report it should have made
            code, reports = repr(exc), []
        finally:
            total = time.perf_counter() - t0
            spans.restore(undo)
        # Argument parsing and JSON output: the part of the call outside the checks.
        meter.add(total - (meter.raw_s - raw) - (meter.reference_s - reference))
        for i in range(max(len(GRID_REPORTS), len(reports))):
            want = GRID_REPORTS[i] if i < len(GRID_REPORTS) else None
            got = reports[i] if i < len(reports) else None
            ok = (
                isinstance(got, dict)
                and got.get("passed") is True
                and [got.get("name"), got.get("parameters")] == want
            )
            gate.check(ok, f"report {i}: expected {want}, got {got}")
        if code != 0:
            gate.check(False, f"exit code {code}: {err.getvalue().strip()}")


# -- bijection -------------------------------------------------------------------


def _random_configuration(rng: random.Random, k: int, width: int, offset: int) -> Configuration:
    """Admissible by construction; both end columns nonzero, so the width is exact."""
    while True:
        vals: list[int] = []
        for j in range(width):
            cap = k - sum(vals[-2:])
            lo = 1 if j in (0, width - 1) else 0
            if cap < lo:
                break
            vals.append(rng.randint(lo, cap))
        else:
            return Configuration(offset, tuple(vals))


def _random_partition(rng: random.Random, k: int, parts: int, start: int) -> RiggedPartition:
    """Weights cycling through 1..k from ``start``, paired in order with one rigging per slice of the range.

    The round trip's cost grows with the weights and with how far apart the
    riggings put the particles; drawing weights, riggings and their pairing
    independently let a seed's total cost swing by 30%.  Here every request
    has riggings spanning the whole range, large negative ones included, and
    the seed moves each rigging within its slice.
    """
    span = (2 * UNMAP_RIGGING + 1) / parts
    pairs = [(1 + (start + i) % k, -UNMAP_RIGGING + int((i + rng.random()) * span)) for i in range(parts)]
    return RiggedPartition(tuple(sorted(pairs, key=lambda p: (-p[0], -p[1]))))


def bijection_inputs(seed: int) -> list[tuple[str, int, object]]:
    rng = random.Random(seed)
    requests: list[tuple[str, int, object]] = []
    for k in MAP_LEVELS:
        for width in MAP_WIDTHS:
            for _ in range(MAP_PER_STRATUM):
                a = _random_configuration(rng, k, width, rng.randint(*MAP_OFFSETS))
                requests.append(("map", k, a))
    for k in UNMAP_LEVELS:
        for parts in UNMAP_PARTS:
            first = rng.randrange(k)
            for j in range(UNMAP_PER_STRATUM):
                requests.append(("unmap", k, _random_partition(rng, k, parts, (first + j) % k)))
    rng.shuffle(requests)
    return requests


def bijection_rep(inputs: list[tuple[str, int, object]], gate: Gate, meter: Meter) -> None:
    # Looked up through the module on every call, so a traced run's wrappers apply.
    for kind, k, value in inputs:
        try:
            if kind == "map":
                a = value
                rp = meter.call("iota", bijection.iota, a, k)
                back = meter.call("kappa", bijection.kappa, rp, k)
                witness = None if back == a else f"kappa(iota({a})) = {back}"
            else:
                a = meter.call("kappa", bijection.kappa, value, k)
                rp = meter.call("iota", bijection.iota, a, k)
                witness = None if rp == value else f"iota(kappa({value})) = {rp}"
            witness = witness or _consistent(a, rp, k)
        except Exception as exc:
            witness = f"{kind} k={k} {value}: {exc!r}"
        gate.check(witness is None, witness or "")


# -- characters ------------------------------------------------------------------


def characters_inputs(seed: int) -> list[tuple[str, tuple[int, ...]]]:
    checks: list[tuple[str, tuple[int, ...]]] = [
        ("polynomial", (POLY_K, l, a, b, POLY_N))
        for l in range(1, POLY_K + 1)
        for a in range(l + 1)
        for b in range(l + 1 - a)
    ]
    checks += [("gordon", (k, GORDON_DEGREE)) for k in range(1, 5)]
    checks += [("gordon-r2", (k, GORDON_DEGREE)) for k in range(1, 4)]
    # The check set is fixed; the seed only orders it, which decides when the
    # Gaussian-binomial cache fills.
    random.Random(seed).shuffle(checks)
    return checks


_CHECKS = {
    "polynomial": "verify_polynomial_identity",
    "gordon": "verify_gordon",
    "gordon-r2": "verify_gordon_r2",
}


def characters_rep(inputs: list[tuple[str, tuple[int, ...]]], gate: Gate, meter: Meter) -> None:
    for kind, args in inputs:
        try:
            report = meter.call(None, getattr(identities, _CHECKS[kind]), *args)
            # A case-split disagreement is a disagreement between two code
            # paths, so it fails here even though the report itself passes.
            ok = report.passed and report.name == kind and "case_split_agrees" not in report.parameters
            witness = str(report)
        except Exception as exc:
            ok, witness = False, f"{kind}{args}: {exc!r}"
        gate.check(ok, witness)


WORKLOADS = {
    "grid": (grid_inputs, grid_rep),
    "bijection": (bijection_inputs, bijection_rep),
    "characters": (characters_inputs, characters_rep),
}
