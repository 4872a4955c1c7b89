"""One set-up measurement: import the CLI and read the inputs, then say so.

``worker.py`` times this script from process start until the line "ready"
arrives, which is what every CLI invocation pays before its first operation.
The speed sampler runs here too, every PERIOD_S, so that the worker can
scale the time by the machine's speed during the set-up; the line "ready"
carries the samples' total and mean time.
"""

import sys

import reference

PERIOD_S = 0.01

sampler = reference.Sampler(PERIOD_S, warmup=0)
sampler.start()
import diffeokit.cli  # noqa: E402,F401

for path in sys.argv[1:]:
    with open(path, "rb") as fh:
        fh.read()
sampler.stop()
if not sampler.samples:  # faster than one period
    sampler.probe()
durations = [d for _, d in sampler.samples]
print("ready", sum(durations), sum(durations) / len(durations), flush=True)
