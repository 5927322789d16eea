"""The four benchmark workloads and the checks on their outputs.

Each workload writes its inputs (``prepare``), names the CLI commands of
one pass (``commands``), counts the work a pass does from its arguments,
and checks a pass's outputs against references computed by this file
alone (``check``).  The checks never call into ``medn``.
"""

import csv
import hashlib
import itertools
import json

import numpy as np

from inputs import Shape, generate, write_dataset, write_model

DESK = Shape(d=20, d_rel=5, L=8, m=2, n=250)
SMALL = Shape(d=20, d_rel=5, L=8, m=2, n=50)
WIDE = Shape(d=50, d_rel=10, L=40, m=4, n=250)

# sha256 of the files of a default-seed (0) run, recorded at the seed commit.
# Inputs must stay byte-identical for a given seed, and so must model files
# and cv.csv unless a change names the difference and says why.
SEED0_DIGESTS = {
    "desk.jsonl": "2c7a10a5f85a1c4af2d3b004e03b48649d0dd2b0cb3751b3ebc2b5572c495685",
    "small.jsonl": "b965aac38c3ae434f604af9954dcd106492c7ad45181670565fb587aab67bd95",
    "wide.jsonl": "d4c662b19adbbe5a9133537c47cec189772fab7d559377c4836ba0cb1d51d13d",
    "model.json": "9f78569628ac4b253a11b4bcd4e9d63de0dd2686b069d644244780f952cad223",
    "m3n.json": "150e8e81d5dd5b276b7a5046141142e73cea0b0cd4894488ddd80a5a545ea8d6",
    "lapmedn.json": "1692177466c8218afe28493264fb4ec56e0384dcbb9cb46c5e87971f19a7ffc4",
    "l1m3n.json": "194a89195aefa30d3accbb05793b2b5e8c37762f627a1fb6d534961f92a9bf91",
    "cv.csv": "9066c6d1d39e42defba6f7dc0a1112445fc4d5dd1c6a146aa5ac3cfc48c57b66",
}
DEFAULT_SEED = 0

VARIANCE_FLOOR = 1e-12  # the package's documented floor on lapmedn variances
L1_RADIUS = 10.0
SYNTH_Z_LIMIT = 5.0  # standard errors allowed between sampled and exact marginals


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:] if line.strip()]


def _close(a, b, tol=1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def viterbi(node: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Exact max-sum labels for (n, L, m) node scores; ties go to the lowest label."""
    n, length, m = node.shape
    back = np.zeros((n, length, m), dtype=np.int64)
    v = node[:, 0]
    for l in range(1, length):
        cand = v[:, :, None] + trans  # (n, previous, current)
        back[:, l] = np.argmax(cand, axis=1)
        v = cand.max(axis=1) + node[:, l]
    labels = np.zeros((n, length), dtype=np.int64)
    labels[:, -1] = np.argmax(v, axis=1)
    rows = np.arange(n)
    for l in range(length - 1, 0, -1):
        labels[:, l - 1] = back[rows, l, labels[:, l]]
    return labels


def chain_scores(node: np.ndarray, trans: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Score of each row of (n, L) labels under (n, L, m) node scores."""
    n, length, _ = node.shape
    state = node[np.arange(n)[:, None], np.arange(length), labels].sum(axis=1)
    return state + trans[labels[:, :-1], labels[:, 1:]].sum(axis=1)


class Workload:
    """One workload: its inputs, the CLI commands of a pass, and its checks."""

    name = ""

    def __init__(self, workdir, seed: int):
        self.dir = workdir
        self.seed = seed
        self.first_digests = None

    def path(self, name) -> str:
        return str(self.dir / name)

    def prepare(self):
        """Write the inputs; timed as part of set-up."""

    def reference(self):
        """Compute what the checks compare against; untimed."""

    def commands(self) -> list:
        raise NotImplementedError

    def outputs(self) -> list:
        raise NotImplementedError

    def work(self) -> dict:
        """Units of work in one pass, from the arguments alone."""
        raise NotImplementedError

    def checks(self) -> list:
        """(check name, failure message or None) for the latest pass's outputs."""
        raise NotImplementedError

    def check(self) -> list:
        """Every output check plus byte-identity with the first pass's outputs."""
        results = self.checks()
        digests = {name: sha256(self.path(name)) for name in self.outputs()}
        if self.first_digests is None:
            self.first_digests = digests
        changed = [n for n in digests if digests[n] != self.first_digests[n]]
        results.append(("repeat-identical", f"outputs changed between passes: {changed}" if changed else None))
        if self.seed == DEFAULT_SEED:
            for name, want in SEED0_DIGESTS.items():
                if (self.dir / name).exists():
                    got = digests.get(name) or sha256(self.path(name))
                    results.append((f"seed0-digest {name}", None if got == want else f"sha256 {got} != {want}"))
        return results


class Synth(Workload):
    name = "synth"
    sweeps = 100

    def commands(self):
        s = DESK
        return [["gen-synth", "--d", str(s.d), "--d-rel", str(s.d_rel), "--length", str(s.L),
                 "--m", str(s.m), "--n", str(s.n), "--gibbs-iters", str(self.sweeps),
                 "--seed", str(self.seed), "--out", self.path("synth.jsonl")]]

    def outputs(self):
        return ["synth.jsonl"]

    def work(self):
        return {"gibbs_sites": DESK.n * self.sweeps * DESK.L}

    def reference(self):
        # The generating model, redrawn as the package documents it: a
        # generator seeded [0, seed] draws the relevant state rows, then the
        # transitions, all standard normal.
        s = DESK
        rng = np.random.default_rng([0, self.seed])
        self.state = np.zeros((s.d, s.m))
        self.state[: s.d_rel] = rng.standard_normal((s.d_rel, s.m))
        self.trans = rng.standard_normal((s.m, s.m))
        self.labelings = np.array(list(itertools.product(range(s.m), repeat=s.L)))

    def checks(self):
        s = DESK
        header, rows = _read_jsonl(self.path("synth.jsonl"))
        if (header.get("d"), header.get("m"), len(rows)) != (s.d, s.m, s.n):
            return [("synth-shape", f"header d/m or instance count wrong: {header.get('d')}, {header.get('m')}, {len(rows)}")]
        x = np.array([r["x"] for r in rows], dtype=float)
        y = np.array([r["y"] for r in rows], dtype=np.int64)
        if x.shape != (s.n, s.L, s.d) or y.shape != (s.n, s.L) or y.min() < 0 or y.max() >= s.m:
            return [("synth-shape", f"features {x.shape} or labels {y.shape} malformed")]
        out = []
        moments_ok = abs(x.mean()) < 0.05 and abs(x.var() - 1.0) < 0.05
        out.append(("synth-features", None if moments_ok else f"feature mean {x.mean()}, var {x.var()}"))
        # Exact conditional of every instance by enumerating all m**L labelings.
        node = x @ self.state
        lab = self.labelings
        scores = node[:, np.arange(s.L), lab].sum(axis=2) + self.trans[lab[:, :-1], lab[:, 1:]].sum(axis=1)
        prob = np.exp(scores - scores.max(axis=1, keepdims=True))
        prob /= prob.sum(axis=1, keepdims=True)
        # Indicators of each (position, label) and each (position, label pair).
        single = (lab[:, :, None] == np.arange(s.m)).reshape(len(lab), -1)
        pair_code = lab[:, :-1] * s.m + lab[:, 1:]
        pair = (pair_code[:, :, None] == np.arange(s.m * s.m)).reshape(len(lab), -1)
        worst = 0.0
        for ind, observed in (
            (single, (y[:, :, None] == np.arange(s.m)).reshape(s.n, -1)),
            (pair, ((y[:, :-1] * s.m + y[:, 1:])[:, :, None] == np.arange(s.m * s.m)).reshape(s.n, -1)),
        ):
            p = prob @ ind  # (n, cells) exact marginal of each cell per instance
            expected = p.sum(axis=0)
            se = np.sqrt((p * (1.0 - p)).sum(axis=0))
            gap = np.abs(observed.sum(axis=0) - expected)
            z = np.where(se > 1e-6, gap / np.maximum(se, 1e-6), np.where(gap > 0.5, np.inf, 0.0))
            worst = max(worst, float(z.max()))
        msg = None if worst <= SYNTH_Z_LIMIT else f"marginal off by {worst:.2f} standard errors"
        out.append(("synth-marginals", msg))
        return out


class Train(Workload):
    name = "train"
    iters = 5
    outer_iters = 4

    def prepare(self):
        self.gen = generate(DESK, self.seed)
        write_dataset(self.path("desk.jsonl"), self.gen, self.seed)

    def commands(self):
        common = ["--data", self.path("desk.jsonl"), "--beta", "1", "--iters", str(self.iters),
                  "--seed", str(self.seed)]
        return [
            ["train", "--model", "m3n", *common, "--out", self.path("m3n.json")],
            ["train", "--model", "lapmedn", "--lambda", "36", "--outer-iters", str(self.outer_iters),
             *common, "--out", self.path("lapmedn.json")],
            ["train", "--model", "l1m3n", "--radius", str(L1_RADIUS), *common, "--out", self.path("l1m3n.json")],
        ]

    def outputs(self):
        return ["m3n.json", "lapmedn.json", "l1m3n.json"]

    def work(self):
        solves = 1 + (self.outer_iters - 1) + 1
        return {"updates": self.iters * DESK.n * solves}

    def checks(self):
        k = DESK.d * DESK.m + DESK.m * DESK.m
        out = []
        for kind in ("m3n", "lapmedn", "l1m3n"):
            with open(self.path(f"{kind}.json"), encoding="utf-8") as fh:
                model = json.load(fh)
            w = np.asarray(model.get("weights"), dtype=float)
            var = model.get("var_diag")
            msg = None
            if model.get("kind") != kind or w.shape != (k,) or not np.all(np.isfinite(w)):
                msg = f"{kind}: kind {model.get('kind')!r} or weights {w.shape} malformed"
            elif kind == "m3n" and (var is None or not np.array_equal(np.asarray(var, dtype=float), np.ones(k))):
                msg = "m3n: var_diag is not all ones"
            elif kind == "lapmedn":
                v = np.asarray(var if var is not None else [], dtype=float)
                if v.shape != (k,) or not np.all(np.isfinite(v)) or v.min() < VARIANCE_FLOOR:
                    msg = "lapmedn: var_diag not finite or below the variance floor"
            elif kind == "l1m3n" and np.abs(w).sum() > L1_RADIUS * (1.0 + 1e-9):
                msg = f"l1m3n: weights have L1 norm {np.abs(w).sum()} > radius {L1_RADIUS}"
            out.append((f"train-{kind}", msg))
        return out


class CrossValidation(Workload):
    name = "cv"
    folds = 5
    iters = 2
    outer_iters = 4
    lambdas = (9, 36)
    betas = (1, 10, 30)

    def prepare(self):
        self.gen = generate(SMALL, self.seed)
        write_dataset(self.path("small.jsonl"), self.gen, self.seed)

    def configs(self):
        """(model, solves per training) for every swept configuration."""
        return ([("m3n", 1)] * len(self.betas)
                + [("lapmedn", self.outer_iters - 1)] * (len(self.lambdas) * len(self.betas))
                + [("l1m3n", 1)] * len(self.betas))

    def commands(self):
        return [["cv", "--data", self.path("small.jsonl"), "--folds", str(self.folds),
                 "--models", "m3n,lapmedn,l1m3n",
                 "--lambdas", ",".join(map(str, self.lambdas)),
                 "--betas", ",".join(map(str, self.betas)), "--radii", str(L1_RADIUS),
                 "--iters", str(self.iters), "--outer-iters", str(self.outer_iters),
                 "--seed", str(self.seed), "--out", self.path("cv.csv")]]

    def outputs(self):
        return ["cv.csv"]

    def work(self):
        # Each configuration trains once per fold; the folds partition the n
        # instances, and each trained model decodes the other n - |fold|.
        configs = self.configs()
        updates = sum(self.iters * SMALL.n * solves for _, solves in configs)
        decodes = len(configs) * (self.folds - 1) * SMALL.n
        return {"updates": updates, "decodes": decodes}

    def checks(self):
        rows = _read_csv(self.path("cv.csv"))
        configs = self.configs()
        if len(rows) != len(configs) * (self.folds + 2):
            return [("cv-rows", f"{len(rows)} rows, expected {len(configs) * (self.folds + 2)}")]
        msg = None
        for start in range(0, len(rows), self.folds + 2):
            group = rows[start : start + self.folds + 2]
            fold_rows, mean_row = group[: self.folds], group[self.folds]
            errs = [float(r["per_label_err"]) for r in fold_rows]
            seqs = [float(r["seq_err"]) for r in fold_rows]
            if not all(0.0 <= e <= 1.0 for e in errs + seqs):
                msg = f"error rate outside [0, 1] in rows {start}..{start + self.folds}"
            elif [r["fold"] for r in fold_rows] != [str(f) for f in range(self.folds)] or mean_row["fold"] != "mean":
                msg = f"fold column malformed in rows {start}.."
            elif not (_close(float(mean_row["per_label_err"]), sum(errs) / len(errs))
                      and _close(float(mean_row["seq_err"]), sum(seqs) / len(seqs))):
                msg = f"mean row disagrees with its fold rows at row {start + self.folds}"
            if msg:
                break
        return [("cv-table", msg)]


class Decode(Workload):
    name = "decode"

    def prepare(self):
        self.gen = generate(WIDE, self.seed)
        write_dataset(self.path("wide.jsonl"), self.gen, self.seed)
        write_model(self.path("model.json"), self.gen, self.seed)

    def reference(self):
        gen = self.gen
        self.node = gen.x @ gen.state
        self.expected = viterbi(self.node, gen.trans)
        wrong = self.expected != gen.y
        self.label_err = wrong.sum() / wrong.size
        self.seq_err = wrong.any(axis=1).mean()

    def commands(self):
        model, data = self.path("model.json"), self.path("wide.jsonl")
        return [["predict", "--model-file", model, "--data", data, "--out", self.path("preds.csv")],
                ["eval", "--model-file", model, "--data", data, "--out", self.path("eval.csv")]]

    def outputs(self):
        return ["preds.csv", "eval.csv"]

    def work(self):
        return {"decodes": 2 * WIDE.n}

    def checks(self):
        rows = _read_csv(self.path("preds.csv"))
        msg = None
        if [r["index"] for r in rows] != [str(i) for i in range(WIDE.n)]:
            msg = f"predictions cover {len(rows)} rows, expected indices 0..{WIDE.n - 1}"
        else:
            got = np.array([[int(v) for v in r["y_pred"].split()] for r in rows], dtype=np.int64)
            if got.shape != self.expected.shape:
                msg = f"prediction shape {got.shape}, expected {self.expected.shape}"
            else:
                bad = np.flatnonzero((got != self.expected).any(axis=1))
                if bad.size:
                    # A mismatch passes only as an exact tie up to rounding.
                    trans = self.gen.trans
                    want = chain_scores(self.node[bad], trans, self.expected[bad])
                    have = chain_scores(self.node[bad], trans, got[bad])
                    worse = [int(i) for i, a, b in zip(bad, want, have) if not _close(a, b, 1e-12)]
                    if worse:
                        msg = f"{len(worse)} predictions differ from the reference DP, first at index {worse[0]}"
        out = [("decode-predictions", msg)]
        (row,) = _read_csv(self.path("eval.csv"))
        ok = (_close(float(row["per_label_err"]), self.label_err, 1e-10)
              and _close(float(row["seq_err"]), self.seq_err, 1e-10))
        out.append(("decode-eval", None if ok else
                    f"eval rates {row['per_label_err']}, {row['seq_err']} != {self.label_err}, {self.seq_err}"))
        return out


WORKLOADS = {w.name: w for w in (Synth, Train, CrossValidation, Decode)}


def rates(work: dict, wall_s: float) -> dict:
    """The workload's named throughputs per second of one pass's wall time."""
    names = {"gibbs_sites": "gibbs_sites_per_s", "updates": "updates_per_s", "decodes": "decodes_per_s"}
    return {names[k]: v / wall_s for k, v in work.items()}
