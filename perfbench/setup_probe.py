"""Time one cold set-up in a fresh interpreter and print it as JSON.

Set-up is importing hopfphase, parsing a run config and building the phase
coupling: the work every verb does before its first step. Each part is
reported at nominal machine speed (speed.py). Usage:
    python3 setup_probe.py CONFIG.json    (with hopfphase on PYTHONPATH)
"""
import json
import sys
from time import perf_counter

from speed import corrected, reference_loop

before = reference_loop()
t0 = perf_counter()
from hopfphase.config import parse_config  # noqa: E402  (the import is timed)
from hopfphase.reduction import build_coupling  # noqa: E402

t1 = perf_counter()
with open(sys.argv[1], encoding="utf-8") as fh:
    cfg = parse_config(fh.read())
t2 = perf_counter()
build_coupling(cfg.system_params(), cfg.delta)
t3 = perf_counter()
after = reference_loop()
print(json.dumps({"import_s": corrected(t1 - t0, before, after),
                  "parse_s": corrected(t2 - t1, before, after),
                  "build_coupling_s": corrected(t3 - t2, before, after)}))
