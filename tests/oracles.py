"""Independent reimplementations used as test oracles.

Everything here recomputes expected values from first principles
(exhaustive enumeration, bisection, quadrature) without touching the
dynamic programs or solvers under test.  :func:`reference_viterbi` is the
Viterbi DP's earlier layout, kept as its bit-level reference.

It also holds the LapMEDN dual evaluator (:class:`DualWeights`,
:func:`laplace_log_z` and its gradient).  No command computes the dual:
the trainer solves the variational primal, and the tests use the dual to
certify the exact LapMEDN optimum.
"""

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
from scipy.integrate import quad

from medn import FeatureSpec, SequenceInstance, l1_ball_project
from medn.chain import _check_instance, _check_real, feature_vectors, loss_augmented_decode_rows
from medn.models import VARIANCE_FLOOR


def enumerate_labelings(m: int, length: int) -> np.ndarray:
    """All m**length labelings, lexicographic order, one per row."""
    return np.array(list(itertools.product(range(m), repeat=length)), dtype=np.int64)


def chain_scores(d: int, m: int, weights, x, labelings) -> np.ndarray:
    """Score of every candidate labeling by direct weight-block indexing."""
    weights = np.asarray(weights, dtype=float)
    state = weights[: d * m].reshape(d, m)
    trans = weights[d * m :].reshape(m, m)
    node = np.asarray(x, dtype=float) @ state
    length = node.shape[0]
    scores = node[np.arange(length), labelings].sum(axis=1)
    if length > 1:
        scores = scores + trans[labelings[:, :-1], labelings[:, 1:]].sum(axis=1)
    return scores


def reference_viterbi(node: np.ndarray, trans: np.ndarray):
    """Max-sum DP over (B, L, m) node and (B, m, m) transition scores, as
    :func:`medn.chain._viterbi` computed it before it changed its layouts.
    It differs from the DP only in candidate layout and gathers: candidates
    lie as (B, previous, current), batch-major backpointers are stored after
    each argmax, and the forward maxima and the backtrack are read with
    three-index gathers.  It runs the same float operations in the same
    order, so its labels and maxima are the DP's to the bit.  Returns (B, L)
    labels and the (B,) attained maxima."""
    batch, length, m = node.shape
    rows, cols = np.arange(batch)[:, None], np.arange(m)
    back = np.zeros((batch, length, m), dtype=np.int64)
    v = node[:, 0]
    for l in range(1, length):
        cand = v[:, :, None] + trans  # (batch, previous, current)
        best = cand.argmax(axis=1)  # first maximum = lowest index
        back[:, l] = best
        v = cand[rows, best, cols] + node[:, l]
    labels = np.zeros((batch, length), dtype=np.int64)
    labels[:, -1] = v.argmax(axis=1)
    rows = rows[:, 0]
    value = v[rows, labels[:, -1]]
    for l in range(length - 1, 0, -1):
        labels[:, l - 1] = back[rows, l, labels[:, l]]
    return labels, value


def manual_feature_vector(d: int, m: int, x, y) -> np.ndarray:
    """Joint feature map accumulated position by position with python loops:
    state feature (k, c) sums x[l][k] over positions labeled c, transition
    feature (c, c') counts adjacent label pairs."""
    f = np.zeros(d * m + m * m)
    for l, label in enumerate(y):
        for k in range(d):
            f[k * m + label] += x[l][k]
    for l in range(len(y) - 1):
        f[d * m + y[l] * m + y[l + 1]] += 1.0
    return f


def manual_score(d: int, m: int, weights, x, y) -> float:
    """Sequence score accumulated term by term with python loops."""
    weights = np.asarray(weights, dtype=float)
    state = weights[: d * m].reshape(d, m)
    trans = weights[d * m :].reshape(m, m)
    total = 0.0
    for l, label in enumerate(y):
        for k in range(d):
            total += x[l][k] * state[k][label]
    for l in range(len(y) - 1):
        total += trans[y[l]][y[l + 1]]
    return total


def l1_projection_oracle(v, radius: float) -> np.ndarray:
    """L1-ball projection via bisection on the KKT threshold.

    Verifies the KKT conditions of the projection problem explicitly
    (boundary feasibility, stationarity on the support, threshold
    domination off it) before returning.
    """
    v = np.asarray(v, dtype=float)
    mag = np.abs(v)
    if mag.sum() <= radius:
        return v.copy()
    lo, hi = 0.0, float(mag.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(mag - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    u = np.sign(v) * np.maximum(mag - theta, 0.0)
    assert theta > 0.0
    assert abs(np.abs(u).sum() - radius) < 1e-9
    support = u != 0.0
    np.testing.assert_allclose(v[support] - u[support], theta * np.sign(u[support]), atol=1e-9)
    assert np.all(mag[~support] <= theta + 1e-12)
    return u


def laplace_tilted_mean(eta: float, lam: float) -> float:
    """Posterior mean by quadrature of the tilted double-exponential density."""
    s = math.sqrt(lam)

    def dens(w):
        return 0.5 * s * math.exp(-s * abs(w) + eta * w)

    num = quad(lambda w: w * dens(w), -np.inf, 0.0)[0]
    num += quad(lambda w: w * dens(w), 0.0, np.inf)[0]
    den = quad(dens, -np.inf, 0.0)[0] + quad(dens, 0.0, np.inf)[0]
    return num / den


def inverse_variance_expectation(second_moment: float, lam: float) -> float:
    """E[1/tau] under the per-coordinate variance posterior, by quadrature.

    The posterior is proportional to N(sqrt(second_moment) | 0, tau) times
    an exponential(lam/2) prior on tau.
    """

    def dens(tau):
        return math.exp(-second_moment / (2.0 * tau)) / math.sqrt(tau) * math.exp(
            -lam * tau / 2.0
        )

    num = quad(lambda t: dens(t) / t, 0.0, np.inf)[0]
    den = quad(dens, 0.0, np.inf)[0]
    return num / den


@dataclass
class DualWeights:
    """Per-instance finite, nonnegative weights over alternative labelings.

    ``alphas[i]`` maps a labeling tuple to its weight for instance i.
    Sparse: only labelings with nonzero weight need appear.
    """

    spec: FeatureSpec
    alphas: list

    def __post_init__(self):
        cleaned = []
        for amap in self.alphas:
            row = {}
            for y, a in amap.items():
                a = float(a)
                if not 0 <= a < math.inf:
                    raise ValueError("dual weights must be finite and nonnegative")
                y = tuple(int(v) for v in y)
                if not all(0 <= v < self.spec.m for v in y):
                    raise ValueError(f"label indices must lie in [0, {self.spec.m})")
                row[y] = a
            cleaned.append(row)
        self.alphas = cleaned

    def _accumulate(self, data):
        """Weighted feature-difference vector, weighted total loss, and per
        instance the (A, K) gold-minus-alternative deltas and A Hamming
        losses of its A labelings, in ``alphas`` order."""
        if len(data) != len(self.alphas):
            raise ValueError("dual weights and data disagree on instance count")
        eta = np.zeros(self.spec.K)
        loss_sum = 0.0
        terms = []
        for inst, amap in zip(data, self.alphas):
            inst = _check_instance(self.spec, inst)
            x, gold = inst.features, inst.labels
            if any(len(y) != len(gold) for y in amap):
                raise ValueError("labelings and inputs disagree on sequence length")
            ys = np.array(list(amap), dtype=np.int64).reshape(len(amap), len(gold))
            feats = feature_vectors(self.spec, x, np.vstack([gold[None], ys]))
            deltas, losses = feats[0] - feats[1:], (ys != gold).sum(axis=1).tolist()
            for a, delta, loss in zip(amap.values(), deltas, losses):
                eta += a * delta
                loss_sum += a * loss
            terms.append((deltas, losses))
        return eta, loss_sum, terms

    def eta(self, data) -> np.ndarray:
        """Sum over instances and labelings of alpha * (gold - alternative) features."""
        return self._accumulate(data)[0]


def _check_eta_domain(eta: np.ndarray, lam: float):
    _check_real("lam", lam)
    if not np.all(eta * eta < lam):
        raise ValueError("eta_k**2 must be < lam for every coordinate")


def laplace_log_z(dual: DualWeights, data: list, lam: float) -> float:
    """Closed-form log-normalizer of the Laplace posterior at given duals.

    Equals -sum_{i,y} alpha_i(y) * hamming(y, y_i)
    + sum_k log(lam / (lam - eta_k**2)) with eta from :meth:`DualWeights.eta`.
    Requires eta_k**2 < lam for every coordinate.
    """
    eta, loss_sum, _ = dual._accumulate(data)
    _check_eta_domain(eta, lam)
    return float(-loss_sum + np.sum(np.log(lam / (lam - eta**2))))


def laplace_log_z_grad(dual: DualWeights, data: list, lam: float) -> list:
    """Partial derivatives of :func:`laplace_log_z` in each stored dual weight.

    The derivative in alpha_i(y) is v' (gold - alternative features) minus
    the Hamming loss of y, where v_k = 2 * eta_k / (lam - eta_k**2) is the
    shrunken posterior mean.  Returned as one dict per instance, keyed like
    ``dual.alphas``.
    """
    eta, _, terms = dual._accumulate(data)
    _check_eta_domain(eta, lam)
    v = 2.0 * eta / (lam - eta**2)
    return [
        {y: float(np.dot(v, delta)) - loss for y, delta, loss in zip(amap, deltas, losses)}
        for amap, (deltas, losses) in zip(dual.alphas, terms)
    ]


def pac_bound_oracle(n, y_card, c, gamma, kl, delta, rate=0.0):
    """(unclamped m, m, bound) of the documented margin bound in 50-digit
    arithmetic.  Float arguments are taken at their exact binary value."""
    with mpmath.workdps(50):
        n, y_card = mpmath.mpf(n), mpmath.mpf(y_card)
        c, gamma, kl, delta, rate = (mpmath.mpf(v) for v in (c, gamma, kl, delta, rate))
        value = 16 * c**2 / gamma**2 * mpmath.log(n * y_card**2 / (kl + 1))
        m = max(1, int(mpmath.ceil(value)))
        tail = y_card * mpmath.exp(-m * gamma**2 / (32 * c**2))
        slack = mpmath.sqrt(
            (m * kl + mpmath.log(n) + 3 * mpmath.log((m + 1) / delta) + 2) / (2 * n - 1)
        )
        return value, m, rate + tail + slack


def norm_ball_radius_oracle(lam: float, theta: float) -> float:
    """Distance from the origin, along angle ``theta``, at which the 2-D
    penalty sum_k sqrt(mu_k**2 + 1/lam) - log((sqrt(lam mu_k**2 + 1) + 1) / 2) / sqrt(lam)
    reaches its value at (0, 1).  Bisects the defining difference itself in
    400-digit arithmetic, enough to resolve it down to lam = 1e-300, where
    the two sides agree in their first 300 digits."""
    with mpmath.workdps(400):
        lam = mpmath.mpf(lam)

        def penalty(mu1, mu2):
            return sum(
                mpmath.sqrt(mu**2 + 1 / lam)
                - mpmath.log((mpmath.sqrt(lam * mu**2 + 1) + 1) / 2) / mpmath.sqrt(lam)
                for mu in (mu1, mu2)
            )

        level = penalty(mpmath.mpf(0), mpmath.mpf(1))
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        lo, hi = mpmath.mpf(0), mpmath.mpf(2)
        assert penalty(hi * c, hi * s) > level
        for _ in range(56):
            mid = (lo + hi) / 2
            if penalty(mid * c, mid * s) < level:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def overflowing_gold_instances() -> list:
    """Four finite d = 2, m = 2 instances; instances 2 and 3 each label two
    1e308 features 0, so their gold feature vectors overflow.  Instance 3's
    length comes first in data order, instance 2 first of the two."""
    short, long = [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    huge = [[1e308, 0.0], [1e308, 1.0]]
    return [
        SequenceInstance(long, [0, 1, 0]),
        SequenceInstance(short, [0, 1]),
        SequenceInstance(huge, [0, 0]),
        SequenceInstance([*huge, [1.0, 1.0]], [0, 0, 1]),
    ]


# d = 2, m = 2 weights under which a feature row (1, 0) scores +-1e308 and
# a row (1, -1) scores +-2e308, past the float range.
HUGE_WEIGHTS = np.array([1e308, -1e308, -1e308, 1e308, 0.0, 0.0, 0.0, 0.0])


def overflowing_score_instances() -> list:
    """Four finite d = 2, m = 2 instances; under :data:`HUGE_WEIGHTS`
    instance 2's Viterbi maximum (1e308 twice) and instance 3's node scores
    pass the float range.  Instance 3's length comes first in data order,
    instance 2 first of the two."""
    return [
        SequenceInstance([[0.0, 0.0]], [0]),
        SequenceInstance([[0.25, 0.0], [0.0, 0.25]], [0, 1]),
        SequenceInstance([[1.0, 0.0], [0.0, 1.0]], [0, 1]),
        SequenceInstance([[1.0, -1.0]], [1]),
    ]


def make_signal_instances(rng, n: int, length: int, d: int) -> list:
    """Separable toy data: column 0 carries +-1 signs that determine labels."""
    instances = []
    for _ in range(n):
        sign = rng.choice([-1.0, 1.0], size=length)
        x = rng.standard_normal((length, d)) * 0.1
        x[:, 0] = sign
        y = (sign < 0).astype(np.int64)
        instances.append(SequenceInstance(features=x, labels=y))
    return instances


def make_mixed_instances(rng, n: int, d: int, m: int, max_length: int = 7) -> list:
    """Instances of random lengths 1..max_length over m labels; feature
    column ``y % d`` of each position carries a +1 signal."""
    instances = []
    for _ in range(n):
        length = int(rng.integers(1, max_length + 1))
        y = rng.integers(0, m, size=length)
        x = rng.standard_normal((length, d)) * 0.5
        x[np.arange(length), y % d] += 1.0
        instances.append(SequenceInstance(x, y))
    return instances


def reference_read_dataset(path):
    """A dataset file read by its definition: the whole file's bytes split
    with ``bytes.splitlines()``, the first line the header, blank and
    whitespace-only lines skipped, each other line one ``json.loads``
    object.  Invalid JSON raises ``ValueError`` starting ``path:line:``."""
    lines = Path(path).read_bytes().splitlines()
    header = json.loads(lines[0])
    instances = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
        instances.append(SequenceInstance(np.array(obj["x"], dtype=float), np.array(obj["y"])))
    return instances, FeatureSpec(header["d"], header["m"]), header["meta"]


def reference_write_dataset(path, instances, spec, meta=None):
    """A dataset file written by its definition: the header line, then one
    ``json.dumps`` line per instance, each with sorted keys, compact
    separators and a "\\n" end."""
    header = {"format": 1, "kind": "sequence-dataset", "d": spec.d, "m": spec.m, "meta": meta or {}}
    objects = [header]
    objects += ({"x": inst.features.tolist(), "y": inst.labels.tolist()} for inst in instances)
    lines = (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" for obj in objects)
    Path(path).write_bytes("".join(lines).encode())


# The per-config trainer loops the lockstep kernel replaced, kept as the
# reference its rows must equal bit for bit: one trajectory, one decode and
# one feature map per update.  They call the package's batched chain
# primitives with a single row, ``feature_vectors(spec, x, y[None])[0]`` and
# ``loss_augmented_decode_rows(spec, w[None], x, y)``, which is exactly what
# the removed single-instance wrappers ran.  So they check the batching of
# the trainers, not the DP or the feature map; those have the brute-force
# oracles above.

DIVERGENCE_LIMIT = 1e8


def _check_data(data, spec):
    if not data:
        raise ValueError("training data must be nonempty")
    for inst in data:
        if inst.features.shape[1] != spec.d:
            raise ValueError("instance feature dimension disagrees with spec")
        if np.any(inst.labels >= spec.m):
            raise ValueError("instance label out of range for spec")


def _check_iterate(w):
    if not np.all(np.isfinite(w)) or np.linalg.norm(w) > DIVERGENCE_LIMIT:
        raise RuntimeError(
            "subgradient iterate diverged; decrease the step size (raise beta)"
        )


def reference_subgradient_train(data, spec, inv_diag, cfg):
    _check_data(data, spec)
    if inv_diag.shape != (spec.K,):
        raise ValueError("regularizer dimension disagrees with spec")
    n = len(data)
    scale = 1.0 / inv_diag
    gold_feats = [feature_vectors(spec, inst.features, inst.labels[None])[0] for inst in data]
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(spec.K)
    t = 0
    for _ in range(cfg.iterations):
        for idx in rng.permutation(n):
            t += 1
            alpha = 1.0 / (2.0 * cfg.beta * math.sqrt(t))
            inst = data[idx]
            y_star = loss_augmented_decode_rows(spec, w[None], inst.features, inst.labels)[0][0]
            w = (1.0 - alpha / n) * w
            if not np.array_equal(y_star, inst.labels):
                delta = gold_feats[idx] - feature_vectors(spec, inst.features, y_star[None])[0]
                w = w + (alpha * cfg.C) * (scale * delta)
            _check_iterate(w)
    return w


def reference_l1_constrained_train(data, spec, radius, cfg):
    _check_data(data, spec)
    if not radius > 0:
        raise ValueError("radius must be positive")
    n = len(data)
    gold_feats = [feature_vectors(spec, inst.features, inst.labels[None])[0] for inst in data]
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(spec.K)
    t = 0
    for _ in range(cfg.iterations):
        for idx in rng.permutation(n):
            t += 1
            alpha = 1.0 / (2.0 * cfg.beta * math.sqrt(t))
            inst = data[idx]
            y_star = loss_augmented_decode_rows(spec, w[None], inst.features, inst.labels)[0][0]
            if not np.array_equal(y_star, inst.labels):
                delta = gold_feats[idx] - feature_vectors(spec, inst.features, y_star[None])[0]
                w = w + (alpha * cfg.C) * delta
            w = l1_ball_project(w, radius)
            _check_iterate(w)
    return w


def reference_train_laplace(data, spec, cfg):
    """(mean, variances) after each of the T - 1 outer rounds."""
    var = np.ones(spec.K)
    rounds = []
    for _ in range(cfg.outer_iters - 1):
        mean = reference_subgradient_train(data, spec, 1.0 / var, cfg.inner)
        second_moment = var + mean**2
        var = np.maximum(np.sqrt(second_moment / cfg.lam), VARIANCE_FLOOR)
        rounds.append((mean, var))
    return rounds


def scalar_gibbs_states(node, trans, rng, sweeps: int) -> np.ndarray:
    """States after each of ``sweeps`` systematic-scan Gibbs sweeps of one
    chain, as (sweeps, L), one site at a time with python floats.

    Same draw order as the package's sampler: ``integers(0, m, L)`` for the
    start, then one ``random()`` per site, picking the first label whose
    running sum of unnormalized probabilities exceeds ``u * total``.
    """
    node = np.asarray(node, dtype=float).tolist()
    trans = np.asarray(trans, dtype=float).tolist()
    length, m = len(node), len(trans)
    y = [int(v) for v in rng.integers(0, m, size=length)]
    states = []
    for _ in range(sweeps):
        for l in range(length):
            logits = list(node[l])
            for c in range(m):
                if l > 0:
                    logits[c] += trans[y[l - 1]][c]
                if l + 1 < length:
                    logits[c] += trans[c][y[l + 1]]
            top = max(logits)
            probs = [math.exp(v - top) for v in logits]
            u = rng.random() * sum(probs)
            acc, pick = 0.0, m - 1
            for c in range(m):
                acc += probs[c]
                if u < acc:
                    pick = c
                    break
            y[l] = pick
        states.append(list(y))
    return np.array(states, dtype=np.int64)
