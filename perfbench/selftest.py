"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [grid|bijection|characters ...]

For each named workload (all three by default):

* fault injection: a library function is wrapped so that it returns a wrong
  result, and the correctness gate must count the failures (and ``run`` must
  exit non-zero with ``"correct": false``);
* exact counts: two traced repetitions with the same seed must give identical
  ``*.calls``, ``*.items``, ``*.sweeps``, ``*.misses`` and instance counts,
  and a second seed must give counts of the same magnitude;
* the layers' self-time shares must sum to 100% of the traced wall.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

EXACT_SUFFIXES = (".calls", ".items", ".sweeps", ".misses", ".instances")


def _shifted_kappa(kappa):
    return lambda rp, k: kappa(rp, k).shifted(1)


def _doubled(fn):
    return lambda *args: 2 * fn(*args)


#: workload -> (module, function, corrupting wrapper, failures expected per repetition).
FAULTS = {
    # Every request goes through kappa once, so every request must fail.
    "bijection": ("bijection", "kappa", _shifted_kappa, None),
    # A doubled closed-form character breaks each of the 34 polynomial identities.
    "characters": ("characters", "chi_closed", _doubled, 34),
    # A shifted inverse map breaks the three round-trip reports of the grid
    # and makes `verify all` exit 1.
    "grid": ("bijection", "kappa", _shifted_kappa, 4),
}


def check_fault(workload: str) -> None:
    import spans
    from workloads import WORKLOADS, Gate, Meter

    module, name, corrupt, expected = FAULTS[workload]
    make_inputs, rep = WORKLOADS[workload]
    inputs = make_inputs(1)
    undo = spans.rebind(module, name, corrupt)
    try:
        gate = Gate()
        run.clear_caches()
        rep(inputs, gate, Meter(calibrate=False))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.run(workload, 1, 0.0, trace=False)
    finally:
        spans.restore(undo)
    want = gate.attempted if expected is None else expected
    assert gate.failed == want, f"{workload}: gate counted {gate.failed} failures, expected {want}"
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] == want, (code, result)
    print(f"{workload}: fault injection counted {gate.failed} of {gate.attempted} operations as failed")


def _exact(layer: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in layer.items() if k.endswith(EXACT_SUFFIXES)}


def check_counts(workload: str) -> None:
    from workloads import WORKLOADS, Gate

    make_inputs, rep = WORKLOADS[workload]
    runs = []
    for seed in (1, 1, 2):
        gate = Gate()
        layer, shares, rec, traced_s = run.measure_trace(rep, make_inputs(seed), gate)
        assert gate.failed == 0, gate.witnesses
        total = sum(shares.values())
        assert abs(total - 1) < 1e-3, f"{workload}: layer shares sum to {100 * total:.3f}%"
        runs.append(_exact(layer))
    first, again, other = runs
    assert first == again, {k: (first[k], again[k]) for k in first if first[k] != again[k]}
    for key, value in first.items():
        if value or other[key]:
            ratio = other[key] / value if value else float("inf")
            assert 0.5 <= ratio <= 2, f"{workload}: {key} is {value} at seed 1 but {other[key]} at seed 2"
    print(f"{workload}: {len(first)} exact counts repeat on seed 1 and stay within 2x on seed 2; shares sum to 100%")


def main(argv: list[str]) -> int:
    error = run.load_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for workload in argv or run.WORKLOAD_NAMES:
        check_fault(workload)
        check_counts(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
