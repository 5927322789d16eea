"""Seeded benchmark inputs, independent of ``medn.synth``.

Features are standard normal draws from numpy.  Labels are exact samples
from a random sparse chain model, drawn by forward filtering and backward
sampling, so no Gibbs chain runs and a change to the package's sampler
cannot move these inputs.  The chain model of a shape is drawn from a
fixed seed and the features and labels from the workload seed, so every
seed gives a new sample of one problem; the share of updates that violate
the margin, and with it a trainer's cost, varies little between seeds.
Files are written in the package's documented dataset and model formats
(canonical JSON, one instance per line), by this module, so the bytes
depend only on the seed and the shape.
"""

import json
from dataclasses import dataclass

import numpy as np


MODEL_SEED = 20090116


@dataclass(frozen=True)
class Shape:
    """Dimensions of one generated dataset: d features of which d_rel carry
    signal, sequences of length L over m labels, n instances."""

    d: int
    d_rel: int
    L: int
    m: int
    n: int


@dataclass
class Generated:
    """A generated dataset together with the chain model that labelled it."""

    shape: Shape
    state: np.ndarray  # (d, m) state weights, zero off the relevant rows
    trans: np.ndarray  # (m, m) transition weights
    x: np.ndarray  # (n, L, d) features
    y: np.ndarray  # (n, L) labels

    @property
    def weights(self) -> np.ndarray:
        """Flat weight vector in the package's layout: state block, then transitions."""
        return np.concatenate([self.state.ravel(), self.trans.ravel()])


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = a.max(axis=axis, keepdims=True)
    return np.squeeze(top, axis=axis) + np.log(np.exp(a - top).sum(axis=axis))


def _sample_rows(logits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row of (n, m) logits, by inverting the CDF at u."""
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    cdf = np.cumsum(p, axis=1)
    pick = (u[:, None] * cdf[:, -1:] >= cdf).sum(axis=1)
    return np.minimum(pick, logits.shape[1] - 1)


def generate(shape: Shape, seed: int) -> Generated:
    """The fixed model of this shape, with features and exact conditional
    label samples for one seed."""
    model_rng = np.random.default_rng(MODEL_SEED)
    state = np.zeros((shape.d, shape.m))
    state[: shape.d_rel] = model_rng.standard_normal((shape.d_rel, shape.m))
    trans = model_rng.standard_normal((shape.m, shape.m))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((shape.n, shape.L, shape.d))
    u = rng.random((shape.n, shape.L))

    node = x @ state  # (n, L, m)
    alpha = np.empty_like(node)
    alpha[:, 0] = node[:, 0]
    for l in range(1, shape.L):
        alpha[:, l] = node[:, l] + _logsumexp(alpha[:, l - 1, :, None] + trans, axis=1)
    y = np.empty((shape.n, shape.L), dtype=np.int64)
    y[:, -1] = _sample_rows(alpha[:, -1], u[:, -1])
    for l in range(shape.L - 2, -1, -1):
        y[:, l] = _sample_rows(alpha[:, l] + trans[:, y[:, l + 1]].T, u[:, l])
    return Generated(shape=shape, state=state, trans=trans, x=x, y=y)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_dataset(path, gen: Generated, seed: int):
    """Dataset file: header line with d, m and provenance, then one line per instance."""
    header = {
        "format": 1,
        "kind": "sequence-dataset",
        "d": gen.shape.d,
        "m": gen.shape.m,
        "meta": {"generator": "benchmarks.inputs", "seed": seed, "d_rel": gen.shape.d_rel},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps(header) + "\n")
        for x, y in zip(gen.x, gen.y):
            fh.write(_dumps({"x": x.tolist(), "y": y.tolist()}) + "\n")


def write_model(path, gen: Generated, seed: int):
    """Model file holding the generating weights, as an m3n point model."""
    payload = {
        "format": 1,
        "kind": "m3n",
        "d": gen.shape.d,
        "m": gen.shape.m,
        "weights": gen.weights.tolist(),
        "var_diag": None,
        "hyper": {"seed": seed, "n_train": 0, "source": "generating weights"},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps(payload) + "\n")
