"""The public surface: every exported name resolves, the README's Python
examples run against the package as it is, its command lines parse and the
names it cites exist, the CLI starts without scipy, every third-party import is a declared
dependency, and every count and real that a public object takes is checked
alike and stored as a Python number."""

import ast
import dataclasses
import importlib
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import medn
from medn import (
    BoundInputs,
    FeatureSpec,
    GeneratorConfig,
    LaplaceConfig,
    MetricsReport,
    SequenceInstance,
    SubgradConfig,
    TrueCrf,
    cli,
    decode_instances,
    evaluate_weight_rows,
    gibbs_chains,
    kl_norm,
    l1_ball_project,
    mean_std,
    shrinkage_mean,
    structured_hinge_objective,
)
from medn.curves import (
    identity_points,
    l1_unit_ball,
    l2_unit_ball,
    norm_ball_boundary,
    norm_ball_level,
    shrinkage_eta_grid,
    shrinkage_points,
)
from medn.dataio import ModelFile

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

PUBLIC = {
    "BoundInputs",
    "FeatureSpec",
    "GeneratorConfig",
    "LaplaceConfig",
    "MetricsReport",
    "SequenceInstance",
    "SubgradConfig",
    "SyntheticDataset",
    "TrueCrf",
    "decode_instances",
    "evaluate_weight_rows",
    "gen_crf",
    "gen_dataset",
    "gen_features",
    "gibbs_chains",
    "kl_norm",
    "l1_ball_project",
    "margin_sample_count",
    "mean_std",
    "pac_bound",
    "shrinkage_mean",
    "structured_hinge_objective",
    "train_laplace_grid",
}
# The single-instance chain layer that decode_instances, the training
# kernel and structured_hinge_objective replaced, the single-chain Gibbs
# wrappers that gibbs_chains replaced, the second trainer entry point
# that train_laplace_grid absorbed, and the 1/2-box dual check, which is
# not the dual of the radius problem that l1m3n trains.
REMOVED = {
    "ChainModel",
    "feature_vector",
    "score",
    "decode",
    "loss_augmented_decode",
    "hamming_loss",
    "gibbs_label",
    "gibbs_samples",
    "lockstep_train",
    "l1m3n_dual_check",
    # The LapMEDN dual evaluator: no command calls it; tests/oracles.py keeps it.
    "DualWeights",
    "laplace_log_z",
    "laplace_log_z_grad",
}


def test_every_exported_name_resolves():
    modules = [medn] + [
        importlib.import_module(f"medn.{info.name}") for info in pkgutil.iter_modules(medn.__path__)
    ]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        assert REMOVED.isdisjoint(vars(module)), module.__name__
    assert len(medn.__all__) == len(set(medn.__all__)) == 23
    assert set(medn.__all__) == PUBLIC


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_command_lines_parse():
    """Every ``medn`` line in the README's sh blocks parses, and each
    ``train`` or ``cv`` line passes only flags of the families it trains,
    as the commands' own check (``cli._families``) requires."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("medn ")]
    assert lines
    parser = cli.build_parser()
    checked = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        if args.command in ("train", "cv"):
            cli._families(args)
            checked.add(args.command)
    assert checked == {"train", "cv"}


def test_readme_names_resolve():
    """Every backticked ``module.name`` in the README whose module is a medn
    submodule names something that module has, so a rename or deletion
    cannot leave the README pointing at code that is gone."""
    submodules = {info.name for info in pkgutil.iter_modules(medn.__path__)}
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    names = [re.match(r"(?:medn\.)?(\w+)\.(\w+)", span) for span in spans]
    cited = [found.groups() for found in names if found and found[1] in submodules]
    assert cited
    for module, name in cited:
        assert hasattr(importlib.import_module(f"medn.{module}"), name), f"{module}.{name}"


# Runs in a fresh interpreter: this test process has scipy loaded already.
_COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
import medn, medn.cli
assert medn.cli.main(["pac-bound", "--n", "100", "--y-card", "256", "--kl", "1"]) == 0
loaded = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
assert not loaded, loaded
assert medn.cli.main(["norm-ball", "--lambdas", "4", "--angles", "8", "--out", sys.argv[2]]) == 0
"""


def test_cli_starts_without_scipy(tmp_path):
    """Importing medn and running a command other than norm-ball loads no
    scipy module; norm-ball imports its root finder when it runs."""
    out = tmp_path / "ball.csv"
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _COLD_START, str(ROOT / "src"), str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("curve,")


def test_every_third_party_import_is_a_declared_dependency():
    """An installed but undeclared package passes every other test and then
    fails for anyone who installs medn as ``pyproject.toml`` says."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r)[0].lower().replace("-", "_") for r in requirements}
    imported = set()
    for path in sorted((ROOT / "src" / "medn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"medn"}
    assert {"numpy", "orjson", "scipy"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)


def _subgrad(**fields):
    return SubgradConfig(**{"beta": 1.0, "iterations": 2, "C": 1.0, **fields})


def _generator(**fields):
    return GeneratorConfig(**{"d": 4, "d_rel": 2, "L": 3, "m": 2, "n_samples": 2, **fields})


def _bound(**fields):
    return BoundInputs(**{"n": 10, "y_card": 4, "c": 1.0, "gamma": 1.0, "kl": 1.0, "delta": 0.1,
                          "empirical_margin_rate": 0.0, **fields})


def _chains(seed=0, burn_in=1, n_record=0):
    crf = TrueCrf(FeatureSpec(2, 2), np.zeros(8), np.arange(0))
    return gibbs_chains(crf, [np.zeros((3, 2))], [seed], burn_in, n_record)


# Each count a public object takes: its field or parameter name, a call
# that passes it, its least value and whether it stays below 2**59.
_COUNTS = [
    ("FeatureSpec", "d", lambda v: FeatureSpec(v, 2), 1, True),
    ("FeatureSpec", "m", lambda v: FeatureSpec(2, v), 2, True),
    *[("GeneratorConfig", name, lambda v, name=name: _generator(**{name: v}), least, True)
      for name, least in (("d", 1), ("d_rel", 0), ("L", 1), ("m", 2), ("n_samples", 0),
                          ("gibbs_iters", 1), ("group_size", 0))],
    ("GeneratorConfig", "seed", lambda v: _generator(seed=v), 0, False),
    ("SubgradConfig", "iterations", lambda v: _subgrad(iterations=v), 1, False),
    ("SubgradConfig", "seed", lambda v: _subgrad(seed=v), 0, False),
    ("LaplaceConfig", "outer_iters", lambda v: LaplaceConfig(1.0, _subgrad(), v), 2, False),
    ("gibbs_chains", "seed", lambda v: _chains(seed=v), 0, False),
    ("gibbs_chains", "burn_in", lambda v: _chains(burn_in=v), 0, False),
    ("gibbs_chains", "n_record", lambda v: _chains(n_record=v), 0, False),
    ("shrinkage_eta_grid", "n_points", lambda v: shrinkage_eta_grid(4.0, v), 1, True),
    ("BoundInputs", "n", lambda v: _bound(n=v), 1, False),
    ("BoundInputs", "y_card", lambda v: _bound(y_card=v), 2, False),
    ("l1_unit_ball", "n_angles", lambda v: l1_unit_ball(v), 0, True),
    ("l2_unit_ball", "n_angles", lambda v: l2_unit_ball(v), 0, True),
    ("norm_ball_boundary", "n_angles", lambda v: norm_ball_boundary(4.0, v), 0, True),
]
# Each real a public object takes: its name, a call that passes it, and
# the interval it must lie in, as chain._INTERVALS names it.  The last rows
# pass it as an entry of a Python list or tuple of numbers where a real
# array is taken, since numpy reads a bool there as a number.
_REALS = [
    ("SubgradConfig", "beta", lambda v: _subgrad(beta=v), "positive and finite"),
    ("SubgradConfig", "C", lambda v: _subgrad(C=v), "nonnegative and finite"),
    ("SubgradConfig", "radius", lambda v: _subgrad(radius=v), "positive and finite"),
    ("structured_hinge_objective", "C",
     lambda v: structured_hinge_objective([], FeatureSpec(2, 2), np.zeros(8), v),
     "nonnegative and finite"),
    ("LaplaceConfig", "lam", lambda v: LaplaceConfig(v, _subgrad()), "positive and finite"),
    ("LaplaceConfig", "C", lambda v: LaplaceConfig(1.0, _subgrad(C=v)), "positive and finite"),
    ("shrinkage_mean", "lam", lambda v: shrinkage_mean(0.0, v), "positive and finite"),
    ("shrinkage_mean", "eta", lambda v: shrinkage_mean(v, 4.0), "finite"),
    ("kl_norm", "lam", lambda v: kl_norm([0.0], v), "positive and finite"),
    ("shrinkage_eta_grid", "lam", lambda v: shrinkage_eta_grid(v), "positive and finite"),
    ("shrinkage_points", "lam", lambda v: shrinkage_points(v, [0.0]), "positive and finite"),
    ("norm_ball_level", "lam", lambda v: norm_ball_level(v), "positive and finite"),
    ("BoundInputs", "c", lambda v: _bound(c=v), "positive and finite"),
    ("BoundInputs", "gamma", lambda v: _bound(gamma=v), "positive and finite"),
    ("BoundInputs", "kl", lambda v: _bound(kl=v), "nonnegative and finite"),
    ("BoundInputs", "delta", lambda v: _bound(delta=v), "in (0, 1)"),
    ("BoundInputs", "empirical_margin_rate", lambda v: _bound(empirical_margin_rate=v),
     "in [0, 1]"),
    ("GeneratorConfig", "noise_sd", lambda v: _generator(noise_sd=v), "finite"),
    ("l1_ball_project", "radius", lambda v: l1_ball_project(np.ones(2), v), "positive"),
    ("MetricsReport", "per_label_err", lambda v: MetricsReport(v, 0.0, 1, 1), "in [0, 1]"),
    ("MetricsReport", "seq_err", lambda v: MetricsReport(0.0, v, 1, 1), "in [0, 1]"),
    ("structured_hinge_objective", "weights",
     lambda v: structured_hinge_objective(_DATA, _SPEC, [0.5] * 7 + [v], 1.0), "finite"),
    ("ModelFile", "var_diag", lambda v: _model(var_diag=(1.0,) * 7 + (v,)).var_diag,
     "positive and finite"),
    ("kl_norm", "mu", lambda v: kl_norm([[0.5, 0.25], [v, 0.5]], 4.0), "finite"),
    ("gibbs_chains", "xs", lambda v: gibbs_chains(TrueCrf(_SPEC, _W, np.arange(0)),
                                                  [[[0.5, 1.0], (1.0, v)]], [0], 2, 1), "finite"),
]
# Values past the ends of each interval; an infinite radius is valid.
_PAST_ENDS = {
    "positive and finite": (-1.0, 0.0, np.inf, 10**400),
    "nonnegative and finite": (-1.0, np.inf, 10**400),
    "finite": (-np.inf, np.inf, -(10**400), 10**400),
    "positive": (-np.inf, -1.0, 0.0),
    "in (0, 1)": (-1.0, 0.0, 1.0, np.inf),
    "in [0, 1]": (-1.0, -5e-324, 1.0000000000000002, np.inf),
}
_BAD_NUMBERS = [
    *[pytest.param(name, call, value, id=f"{owner}-{name}-{value!r:.20}")
      for owner, name, call, least, bounded in _COUNTS
      for value in (True, least + 0.5, str(least), least - 1, *[2**59] * bounded)],
    *[pytest.param(name, call, value, id=f"{owner}-{name}-{value!r:.20}")
      for owner, name, call, within in _REALS
      for value in (True, "1", np.nan, *_PAST_ENDS[within])],
]


@pytest.mark.parametrize("name, call, value", _BAD_NUMBERS)
def test_a_bad_count_or_positive_real_is_one_error_naming_it(name, call, value):
    """A bool, a float where an integer belongs, a string or a value out of
    range is one ValueError whose one line starts with the field's name,
    never a TypeError, numpy's error later, or a value taken as it is."""
    with pytest.raises(ValueError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{name} ") and "\n" not in message


# A numpy scalar of every count and real: each count at least + 2, which
# every call above accepts, and each real 0.5, which lies in every interval
# and is exact in every float type.
_GOOD_NUMBERS = [
    *[pytest.param(name, call, np.int64(least + 2), int, id=f"{owner}-{name}-int64")
      for owner, name, call, least, _ in _COUNTS],
    *[pytest.param(name, call, kind(0.5), float, id=f"{owner}-{name}-{kind.__name__}")
      for owner, name, call, _ in _REALS for kind in (np.float16, np.float32, np.float64)],
]


def _same_result(got, want) -> bool:
    """Equal values of exactly the same types, element by element; arrays of
    the same dtype, shape and bytes."""
    if type(got) is not type(want):
        return False
    if isinstance(got, np.ndarray):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    if isinstance(got, (tuple, list)):
        return len(got) == len(want) and all(map(_same_result, got, want))
    return got == want


@pytest.mark.parametrize("name, call, value, stored_type", _GOOD_NUMBERS)
def test_a_numpy_count_or_real_is_accepted_and_stored_as_a_python_number(
    name, call, value, stored_type
):
    """A numpy integer or float is accepted without a warning (the suite
    makes a warning an error), and the call returns exactly what it returns
    for the Python ``int`` or ``float``: a config stores it as exactly that
    type, and no numpy arithmetic runs on it later."""
    built = call(value)
    assert _same_result(built, call(stored_type(value)))
    if dataclasses.is_dataclass(built):
        owner = built.inner if isinstance(built, LaplaceConfig) and name == "C" else built
        stored = getattr(owner, name)
        assert type(stored) is stored_type and stored == value


@pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64])
def test_shrinkage_mean_of_a_numpy_eta_is_the_python_floats(kind):
    """A numpy eta is read as a Python float, so no float32 arithmetic
    rounds the mean."""
    mean = shrinkage_mean(kind(0.5), 4.0)
    assert type(mean) is float and mean == shrinkage_mean(0.5, 4.0) == 0.26666666666666666


_SPEC = FeatureSpec(2, 2)  # K = 8
_DATA = [SequenceInstance([[1.0, -1.0], [0.5, 2.0], [-2.0, 0.25]], [0, 1, 1])]
_W = np.linspace(-1.0, 1.0, _SPEC.K)


def _model(**fields):
    return ModelFile(**{"kind": "lapmedn", "spec": _SPEC, "weights": _W, "var_diag": np.ones(_SPEC.K),
                        "hyper": {}, **fields})


# Each real array a public object takes: its owner, its name, a call that
# passes it and returns what the array decides, the interval its entries
# must lie in, as chain._INTERVALS names it, and its shape, None along an
# axis of any length (a None shape: any shape).
_ARRAYS = [
    ("SequenceInstance", "features", lambda v: SequenceInstance(v, [0, 1, 1]).features, "finite",
     (3, None)),
    ("decode_instances", "weights", lambda v: decode_instances(_SPEC, v, _DATA), "finite", (None, 8)),
    ("evaluate_weight_rows", "weights", lambda v: evaluate_weight_rows(_SPEC, v, _DATA), "finite",
     (None, 8)),
    ("structured_hinge_objective", "weights",
     lambda v: structured_hinge_objective(_DATA, _SPEC, v, 1.0, np.ones(8)), "finite", (8,)),
    ("structured_hinge_objective", "inv_diag",
     lambda v: structured_hinge_objective(_DATA, _SPEC, _W, 1.0, v), "positive and finite", (8,)),
    ("TrueCrf", "weights", lambda v: TrueCrf(_SPEC, v, np.arange(0)).weights, "finite", (8,)),
    ("ModelFile", "weights", lambda v: _model(weights=v).weights, "finite", (8,)),
    ("ModelFile", "var_diag", lambda v: _model(var_diag=v).var_diag, "positive and finite", (8,)),
    ("l1_ball_project", "v", lambda v: l1_ball_project(v, 2.0), "finite", (None,)),
    ("kl_norm", "mu", lambda v: kl_norm(v, 4.0), "finite", None),
    ("gibbs_chains", "xs", lambda v: gibbs_chains(TrueCrf(_SPEC, _W, np.arange(0)), v, [0, 1, 2], 2, 1),
     "finite", (3, None, 2)),
    ("shrinkage_points", "etas", lambda v: shrinkage_points(100.0, v), "finite", (None,)),
    ("identity_points", "etas", identity_points, "finite", (None,)),
    ("mean_std", "values", mean_std, "finite", (None,)),
]


def _good_array(shape):
    """Small positive integers, exact in every integer and float type, in
    ``shape`` with 3 along each axis of any length."""
    concrete = (3,) if shape is None else tuple(3 if n is None else n for n in shape)
    return (np.arange(np.prod(concrete)) % 3 + 1).reshape(concrete)


def _bad_arrays(shape, within):
    """Labelled values that no real array of ``shape`` within ``within`` may
    take: a wrong dtype, an int past the float range, ragged sequences, a
    wrong shape, or a good array with one entry past the interval."""
    good = _good_array(shape)
    yield "bool", good.astype(bool)
    yield "str", good.astype(str)
    yield "complex", good + 1j
    yield "10**400", np.full(good.shape, 10**400, dtype=object).tolist()
    yield "ragged", [good.tolist(), good.tolist()[:-1]]
    if shape is not None:
        yield "0-d", np.float64(1.0)
        yield "extra-axis", good[..., None]
        if shape[-1] is not None:
            yield "long", np.ones(good.shape[:-1] + (shape[-1] + 1,))
    past = (np.nan, np.inf, -np.inf) + ((0.0, -1.0) if within.startswith("positive") else ())
    for value in past:
        bad = good.astype(float)
        bad.flat[1] = value
        yield repr(value), bad


_BAD_ARRAYS = [
    pytest.param(name, call, value, id=f"{owner}-{name}-{label}")
    for owner, name, call, within, shape in _ARRAYS
    for label, value in _bad_arrays(shape, within)
]


@pytest.mark.parametrize("name, call, value", _BAD_ARRAYS)
def test_a_bad_real_array_is_one_error_naming_it(name, call, value):
    """A bool, string, complex or object array, a wrong shape or an entry
    out of its interval is one ValueError whose one line starts with the
    field's name, with no warning before it: never a TypeError, an
    OverflowError, a ComplexWarning or a value taken as a number."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call(value)
    message = str(info.value)
    assert message.startswith(f"{name} ") and "\n" not in message


@pytest.mark.parametrize(
    "name, call, value, index",
    [
        ("weights", lambda v: structured_hinge_objective(_DATA, _SPEC, v, 1.0), [0.5] * 7 + [True], "7"),
        ("weights", lambda v: structured_hinge_objective(_DATA, _SPEC, v, 1.0), (1,) * 7 + (np.False_,), "7"),
        ("v", lambda v: l1_ball_project(v, 2.0), [1, False, True], "1"),
        ("mu", lambda v: kl_norm(v, 4.0), [[0.5, 1.0], (0.25, True)], r"\(1, 1\)"),
        ("mu", lambda v: kl_norm(v, 4.0), [[0.5, 1.0], np.array([True, False])], r"\(1, 0\)"),
        ("xs", lambda v: gibbs_chains(TrueCrf(_SPEC, _W, np.arange(0)), v, [0], 2, 1),
         [[[0.5, 1.0], [1.0, 2.0], [True, 0.0]]], r"\(0, 2, 0\)"),
    ],
    ids=["list", "tuple-numpy-bool", "ints", "nested", "bool-array-in-list", "gibbs-xs"],
)
def test_a_bool_among_numbers_is_refused_at_its_index(name, call, value, index):
    """numpy reads a list that mixes bools with numbers as numbers; the
    check refuses it, as it refuses a bool array, naming the field and the
    first bool's index."""
    with pytest.raises(ValueError, match=f"^{name} must be an array of real numbers, got a bool at index {index}$"):
        call(value)


_CHECKED_ARRAYS = [
    pytest.param(name, call, shape, id=f"{owner}-{name}")
    for owner, name, call, _, shape in _ARRAYS
    if owner != "SequenceInstance"  # whose features have their own check
]


@pytest.mark.parametrize("name, call, shape", _CHECKED_ARRAYS)
def test_a_ragged_array_names_its_first_entry_of_another_shape(name, call, shape):
    """Nested sequences that numpy cannot stack into one array are one
    error naming the first entry whose shape differs from the first
    entry's, or the first entry that is ragged itself."""
    good = _good_array(shape).tolist()
    short = good[:-1]
    with pytest.raises(ValueError) as info:
        call([good, good, short])
    assert str(info.value) == (f"{name} must have entries of one shared shape, got "
                               f"{np.shape(good)} at index 0 and {np.shape(short)} at index 2")
    with pytest.raises(ValueError) as info:
        call([good, [good, short]])
    assert str(info.value) == f"{name} must have entries of one shared shape, got a ragged entry at index 1"


_GOOD_ARRAYS = [
    pytest.param(call, shape, kind, id=f"{owner}-{name}-{np.dtype(kind).name}")
    for owner, name, call, _, shape in _ARRAYS
    for kind in (np.int64, np.float16, np.float32)
]


@pytest.mark.parametrize("call, shape, kind", _GOOD_ARRAYS)
def test_an_integer_or_narrow_float_array_gives_the_float64_result(call, shape, kind):
    """An int64, float16 or float32 array is read as the float64 array of
    the same values: the call returns exactly what it returns for that
    array, to the bit, with no warning."""
    good = _good_array(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_result(call(good.astype(kind)), call(good.astype(np.float64)))
