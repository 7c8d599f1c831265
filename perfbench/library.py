"""The `library` workload: one long-lived interpreter that uses zgap the way
tests and sensitivity analyses do.

    python perfbench/library.py setup
    python perfbench/library.py run SEED SECONDS [SPANS_OUT]

Set-up imports zgap and certifies n = 1 and n = 2 once, which fills the
partition-sum cache.  `run` then makes one untimed warm-up pass and timed
passes until SECONDS have elapsed; each pass calls certify_bound(1),
certify_bound(2), perturbed_x_values(1) and perturbed_x_values(2) in an
order shuffled by SEED.  It prints one JSON object with every call's time,
raw and scaled to the reference speed, and its output.  With SPANS_OUT the
whole life of the process is traced and the spans are written there at the
end.
"""

from __future__ import annotations

import json
import random
import sys
import time

from reference import SpeedGauge

CALLS = (("certify_call", 1), ("certify_call", 2), ("perturb_call", 1), ("perturb_call", 2))


def _call(bounds, label: str, n: int):
    if label == "certify_call":
        certificate = bounds.certify_bound(n)
        x = certificate.x_exact
        return [certificate.valid, f"{x.numerator}/{x.denominator}"]
    return bounds.perturbed_x_values(n)


def _pass(bounds, order, gauge: SpeedGauge, tracer) -> dict:
    calls = []
    before = dict(tracer.counts) if tracer else {}
    start = time.perf_counter()
    for label, n in order:
        t0 = time.perf_counter()
        out = _call(bounds, label, n)
        t = time.perf_counter() - t0
        calls.append({"label": label, "n": n, "t": t, "scaled": gauge.scaled(t), "out": out})
    end = time.perf_counter()
    counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()} if tracer else {}
    return {"start": start, "end": end, "calls": calls, "counts": counts}


def main(argv: list[str]) -> int:
    mode = argv[0]
    tracer = None
    if mode == "run" and len(argv) > 3:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    from zgap import bounds

    bounds.certify_bound(1)
    bounds.certify_bound(2)
    if mode == "setup":
        return 0
    seed, seconds = int(argv[1]), float(argv[2])
    rng = random.Random(seed)
    gauge = SpeedGauge()
    warmup = _pass(bounds, CALLS, gauge, tracer)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        order = list(CALLS)
        rng.shuffle(order)
        passes.append(_pass(bounds, order, gauge, tracer))
    if tracer:
        tracer.dump(argv[3])
    json.dump({"warmup": warmup, "passes": passes}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
