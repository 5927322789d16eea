"""Dataset and model files.

A dataset file is line-delimited JSON: one header line with dimensions and
generator metadata, then one object per instance with keys "x" (L x d
feature rows) and "y" (L label indices).  Model files are a single JSON
object carrying a format version, the model kind, weights, optional
variances, and hyperparameters.

Strict JSON in, canonical ``json.dumps`` out.  The readers split the file's
bytes at "\\n", "\\r\\n" and "\\r" and parse each line with ``orjson``,
which rounds every number exactly as ``float`` does but several times
faster; NaN, infinities, numbers past the double range, invalid UTF-8 and
lone surrogates are invalid JSON, and values nest at most 1000 levels.  The
writers keep the standard library, because ``orjson.dumps`` prints some
floats differently (``-0.00006420707435172087`` for
``-6.420707435172087e-05``): they emit sorted keys, fixed separators and
"\\n" newlines, so identical inputs produce byte-identical files.
"""

import json
from dataclasses import dataclass

import numpy as np
import orjson

from .chain import FeatureSpec, SequenceInstance, _check_weights, _integer_labels

__all__ = [
    "DATASET_FORMAT",
    "MODEL_FORMAT",
    "ModelFile",
    "write_dataset",
    "read_dataset",
    "write_model_file",
    "read_model_file",
]

DATASET_FORMAT = 1
MODEL_FORMAT = 1

_DATASET_KIND = "sequence-dataset"
_MODEL_KINDS = ("m3n", "lapmedn", "l1m3n")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_dataset(path, instances, spec: FeatureSpec, meta: dict | None = None):
    """Write instances with a header carrying d, m, and generator metadata."""
    header = {
        "format": DATASET_FORMAT,
        "kind": _DATASET_KIND,
        "d": spec.d,
        "m": spec.m,
        "meta": meta or {},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps(header) + "\n")
        for inst in instances:
            fh.write(_dumps({"x": inst.features.tolist(), "y": inst.labels.tolist()}) + "\n")


# What malformed JSON content raises on the way to arrays and dataclasses.
_PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _located(path, lineno, exc) -> ValueError:
    """One-line ``path:line`` error for a parse failure."""
    if isinstance(exc, json.JSONDecodeError):
        what = f"invalid JSON: {exc.msg}"
    elif isinstance(exc, KeyError):
        what = f"missing key {exc}"
    else:
        what = str(exc)
    return ValueError(f"{path}:{lineno}: {what}")


def _json_int(obj: dict, key: str) -> int:
    """``obj[key]`` if it is a JSON integer; booleans, floats and strings are not."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    return value


# orjson builds nested values on the C stack and crashes the interpreter
# past about 10^5 levels (far fewer in a thread); the standard library's
# reader stopped at the recursion limit, just under 1000.
_MAX_DEPTH = 1000
_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b"[]{}")))


def _depth(text: bytes) -> int:
    """How deep arrays and objects nest in valid JSON ``text``."""
    # Escaped backslashes go first, then escaped quotes; the quotes left
    # delimit strings, and every other piece lies outside them.
    outside = text.replace(b"\\\\", b"").replace(b'\\"', b"").split(b'"')[::2]
    brackets = np.frombuffer(b"".join(outside).translate(None, _NOT_BRACKETS), dtype=np.uint8)
    steps = np.where((brackets == ord("[")) | (brackets == ord("{")), 1, -1)
    return int(np.cumsum(steps).max(initial=0))


def _json_object(line: bytes) -> dict:
    # Text with at most _MAX_DEPTH opening brackets cannot nest deeper; "["
    # and "{" differ only in bit 0x20.
    opening = np.count_nonzero((np.frombuffer(line, dtype=np.uint8) | 0x20) == ord("{"))
    if opening > _MAX_DEPTH and _depth(line) > _MAX_DEPTH:
        raise ValueError(f"JSON nested deeper than {_MAX_DEPTH} levels")
    obj = orjson.loads(line)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _parse_header(line: bytes) -> tuple[FeatureSpec, dict]:
    header = _json_object(line)
    if header.get("kind") != _DATASET_KIND:
        raise ValueError("not a dataset file")
    if _json_int(header, "format") != DATASET_FORMAT:
        raise ValueError(f"unsupported dataset format {header['format']}")
    return FeatureSpec(_json_int(header, "d"), _json_int(header, "m")), header.get("meta", {})


def _parse_instance(line: bytes, spec: FeatureSpec) -> SequenceInstance:
    obj = _json_object(line)
    x = np.asarray(obj["x"], dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.d:
        raise ValueError("feature row width disagrees with header d")
    y = _integer_labels(np.asarray(obj["y"]))
    if np.any(y >= spec.m):
        raise ValueError("label index exceeds header m")
    return SequenceInstance(features=x, labels=y)


def read_dataset(path):
    """Parse a dataset file; returns (instances, spec, meta).

    Every line must parse and agree with the header's d and m; any
    malformed line raises ``ValueError`` naming ``path:line``.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    try:
        spec, meta = _parse_header(lines[0])
    except _PARSE_ERRORS as exc:
        raise _located(path, 1, exc) from None
    instances = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            instances.append(_parse_instance(line, spec))
        except _PARSE_ERRORS as exc:
            raise _located(path, lineno, exc) from None
    return instances, spec, meta


@dataclass
class ModelFile:
    """Deserialized model: kind, dimensions, prediction weights, extras.

    ``weights`` are the point weights used for prediction (the posterior
    mean for distribution-valued models); ``var_diag`` is present only for
    those.  ``hyper`` carries hyperparameters, the training seed, and
    bookkeeping such as n_train.
    """

    kind: str
    spec: FeatureSpec
    weights: np.ndarray
    var_diag: np.ndarray | None
    hyper: dict

    def __post_init__(self):
        if self.kind not in _MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        self.weights = _check_weights(self.spec, self.weights, 1)
        if self.var_diag is not None:
            self.var_diag = np.asarray(self.var_diag, dtype=float)
            if self.var_diag.shape != (self.spec.K,):
                raise ValueError("var_diag length disagrees with spec")
            if not np.all(np.isfinite(self.var_diag) & (self.var_diag > 0)):
                raise ValueError("var_diag must be finite and positive")
        if not isinstance(self.hyper, dict):
            raise ValueError("hyper must be a JSON object")


def write_model_file(path, model: ModelFile):
    payload = {
        "format": MODEL_FORMAT,
        "kind": model.kind,
        "d": model.spec.d,
        "m": model.spec.m,
        "weights": model.weights.tolist(),
        "var_diag": None if model.var_diag is None else model.var_diag.tolist(),
        "hyper": model.hyper,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps(payload) + "\n")


def read_model_file(path) -> ModelFile:
    """Parse a model file; any malformed content raises ``ValueError``
    naming ``path:line``."""
    with open(path, "rb") as fh:
        content = fh.read()
    try:
        payload = _json_object(content)
        if _json_int(payload, "format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format {payload['format']}")
        var = payload.get("var_diag")
        return ModelFile(
            kind=payload["kind"],
            spec=FeatureSpec(_json_int(payload, "d"), _json_int(payload, "m")),
            weights=np.asarray(payload["weights"], dtype=float),
            var_diag=None if var is None else np.asarray(var, dtype=float),
            hyper=payload.get("hyper", {}),
        )
    except _PARSE_ERRORS as exc:
        lineno = exc.lineno if isinstance(exc, json.JSONDecodeError) else 1
        raise _located(path, lineno, exc) from None
