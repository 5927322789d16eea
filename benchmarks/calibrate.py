"""A fixed reference computation that measures how fast this core runs now.

The benchmark's host is shared: for stretches of seconds to minutes the
same work takes up to twice its fastest CPU time, with almost no steal
time, as other load slows the core itself.  Wall time and CPU time both
carry that swing.  ``reference_seconds`` times a fixed piece of work that
is the benchmark's own and never calls ``medn``: scalar float loops with
``math`` and ``random`` in the style of the Gibbs sampler, small numpy
array operations in the style of the chain DP, and JSON encoding and
parsing in the style of the dataset files.  A command's CPU time divided
by the mean of the reference times taken just before and just after it,
times the reference's nominal time, is the command's CPU time at the
nominal core speed.  A change to ``medn`` moves the command and not the
reference.
"""

import json
import math
import random
import time

import numpy as np

# A fixed scale, near the CPU time of reference_work() on the 2-vCPU Xeon
# VM the baseline was measured on (0.018 to 0.045 s as its speed swung), so
# that scaled times read as seconds.
NOMINAL_S = 0.025

_rng = np.random.default_rng(12345)
_NODE = _rng.standard_normal((8, 4))
_TRANS = _rng.standard_normal((4, 4))
_DOC = [{"x": _rng.standard_normal((8, 6)).round(12).tolist(), "y": [1, 0, 3, 2, 2, 1, 0, 3]}
        for _ in range(20)]


def _scalar_loop():
    rnd = random.Random(7)
    y = [0] * 8
    node = _NODE.tolist()
    trans = _TRANS.tolist()
    labels = range(4)
    for _ in range(800):
        for l in range(8):
            row = node[l]
            logits = [row[c] + trans[y[l - 1]][c] for c in labels] if l else list(row)
            top = max(logits)
            probs = [math.exp(v - top) for v in logits]
            u = rnd.random() * sum(probs)
            acc, pick = 0.0, 3
            for c in labels:
                acc += probs[c]
                if u < acc:
                    pick = c
                    break
            y[l] = pick
    return y


def _small_arrays():
    total = 0.0
    idx = np.arange(4)
    for _ in range(200):
        v = _NODE[0].copy()
        for l in range(1, 8):
            cand = v[:, None] + _TRANS
            back = np.argmax(cand, axis=0)
            v = cand[back, idx] + _NODE[l]
        total += float(v.max())
    return total


def _json_round_trip():
    text = "\n".join(json.dumps(row, sort_keys=True) for row in _DOC)
    return sum(len(json.loads(line)["y"]) for line in text.splitlines())


def reference_work():
    _scalar_loop()
    _small_arrays()
    for _ in range(10):
        _json_round_trip()


def reference_seconds(repeats: int = 3) -> float:
    """Median CPU time of ``repeats`` reference computations."""
    times = []
    for _ in range(repeats):
        c0 = time.process_time()
        reference_work()
        times.append(time.process_time() - c0)
    return sorted(times)[len(times) // 2]
