"""Dataset and model files.

A dataset file is line-delimited JSON: one header line with dimensions and
generator metadata, then one object per instance with keys "x" (L x d
feature rows) and "y" (L label indices).  Model files are a single JSON
object carrying a format version, the model kind, weights, optional
variances, and hyperparameters.

Strict JSON in, canonical ``json.dumps`` out.  ``read_dataset`` streams the
file one "\\n"-terminated read at a time and ends lines at "\\n", "\\r\\n"
and "\\r", as ``bytes.splitlines()`` does, so it holds one line of text
and the arrays it returns, not the whole file; a file whose lines all end
in a bare "\\r" has no "\\n" and is still read whole.  The readers
parse each line with ``orjson``, which rounds every number exactly as
``float`` does but several times faster; NaN, infinities, numbers past
the double range, invalid UTF-8 and lone surrogates are invalid JSON, and
values nest at most 1000 levels.
Booleans and strings where numbers belong are errors too, though numpy
would read them as numbers.  Every file is written as ``json.dumps`` with
sorted keys, fixed separators and "\\n" newlines would write it, so
identical inputs produce byte-identical files.  Instance lines are printed
from their arrays with ``orjson.dumps``, which finds the same shortest
round-trip digits as ``repr`` but writes some floats differently
(``-0.00006420707435172087`` for ``-6.420707435172087e-05``, ``1e16`` for
``1e+16``): a line whose bytes hold an exponent, a value below 1e-4 or a
non-finite value is printed again with ``json.dumps``.  The header line and model files keep
``json.dumps``.
"""

import json
from dataclasses import dataclass

import numpy as np
import orjson

from .chain import FeatureSpec, SequenceInstance, _check_instance, _check_weights

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


def _orjson_may_differ(line: bytes) -> bool:
    """Whether orjson may have printed a number of ``line`` otherwise than
    ``json.dumps``: with an exponent ("1e16", "1e-7" where ``json.dumps``
    writes "1e+16", "1e-07"), below 1e-4 positionally ("0.0000642" for
    "6.42e-05"), or not finite ("null" for "NaN").  Both print every other
    float as ``repr`` does, with the same shortest round-trip digits."""
    return b"e" in line or b"E" in line or b"0.0000" in line or b"n" in line


_ARRAY_LINE = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


def write_dataset(path, instances, spec: FeatureSpec, meta: dict | None = None):
    """Write instances with a header carrying d, m, and generator metadata."""
    header = {
        "format": DATASET_FORMAT,
        "kind": _DATASET_KIND,
        "d": spec.d,
        "m": spec.m,
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(_dumps(header).encode() + b"\n")
        for inst in instances:
            # orjson prints an array as its .tolist() values, from C-ordered
            # memory only; an instance may keep F-ordered features.
            x = np.ascontiguousarray(inst.features, dtype=float)
            y = np.ascontiguousarray(inst.labels)
            line = orjson.dumps({"x": x, "y": y}, option=_ARRAY_LINE)
            if _orjson_may_differ(line):
                line = _dumps({"x": x.tolist(), "y": y.tolist()}).encode() + b"\n"
            fh.write(line)


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


def _json_object(text) -> dict:
    """The JSON object in ``text``, bytes or a memoryview of them."""
    # Text with at most _MAX_DEPTH opening brackets cannot nest deeper; "["
    # and "{" differ only in bit 0x20.
    opening = np.count_nonzero((np.frombuffer(text, dtype=np.uint8) | 0x20) == ord("{"))
    if opening > _MAX_DEPTH and _depth(bytes(text)) > _MAX_DEPTH:
        raise ValueError(f"JSON nested deeper than {_MAX_DEPTH} levels")
    obj = orjson.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _line_object(line: bytes) -> dict:
    """The JSON object on dataset line ``line``, which may end in "\\n".
    orjson reads a view of the line without it: with the "\\n", some
    errors read differently (a cut string is "unexpected control character
    in string", not "unexpected end of data")."""
    return _json_object(memoryview(line)[: len(line) - line.endswith(b"\n")])


def _json_numbers(value, key: str):
    """``value``, nested lists of JSON numbers; a boolean or a string among
    them is a ValueError naming ``key``."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, (bool, str)):
            raise ValueError(f"{key} must hold JSON numbers, got {item!r}")
    return value


def _may_hold_non_numbers(line: bytes) -> bool:
    """Whether a dataset line has a true, a false, or a string besides its
    keys "x" and "y"; no other line can hold a non-number, so the others
    skip :func:`_json_numbers`.  Each test is a memchr scan: no number or
    key has a "t" or an "f", and the two keys take four quotes."""
    if b"t" in line or b"f" in line:
        return True
    at = -1
    for _ in range(5):
        at = line.find(b'"', at + 1)
        if at < 0:
            return False
    return True


def _parse_header(line: bytes) -> tuple[FeatureSpec, dict]:
    header = _line_object(line)
    if header.get("kind") != _DATASET_KIND:
        raise ValueError("not a dataset file")
    if _json_int(header, "format") != DATASET_FORMAT:
        raise ValueError(f"unsupported dataset format {header['format']}")
    return FeatureSpec(_json_int(header, "d"), _json_int(header, "m")), header.get("meta", {})


def _parse_instance(line: bytes, spec: FeatureSpec) -> SequenceInstance:
    obj = _line_object(line)
    if _may_hold_non_numbers(line):
        _json_numbers(obj["x"], "x")
        _json_numbers(obj["y"], "y")
    return _check_instance(spec, SequenceInstance(obj["x"], obj["y"]))


# Dataset files are read this many bytes at a time.  A wide line, tens of
# kilobytes, then comes out of the buffer in one piece; the default 8 KiB
# buffer would rebuild it from pieces.
_READ_BUFFER = 1 << 20


def _lines(fh):
    """The lines of binary file ``fh`` as ``bytes.splitlines()`` splits the
    whole file, except that a line without "\\r" keeps its "\\n":
    ``splitlines()`` would scan it byte by byte and copy it."""
    for read in fh:
        if b"\r" in read:
            # Every read ends at a "\n", so no "\r\n" straddles two.
            yield from read.splitlines()
        else:
            yield read


def read_dataset(path):
    """Parse a dataset file; returns (instances, spec, meta).

    The file is read one "\\n"-terminated piece at a time, so a read holds
    one line of text besides the instances it has parsed; a file with no
    "\\n" (bare "\\r" line endings) is one piece and is read whole.  Every
    line must parse and agree with the header's d and m; blank and
    whitespace-only lines after the header are skipped, and any malformed
    line raises ``ValueError`` naming ``path:line``.
    """
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        lines = _lines(fh)
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty dataset file")
        try:
            spec, meta = _parse_header(first)
        except _PARSE_ERRORS as exc:
            raise _located(path, 1, exc) from None
        instances = []
        for lineno, line in enumerate(lines, start=2):
            if not line or line.isspace():  # a kept "\n" is whitespace too
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
        var = _json_numbers(payload.get("var_diag"), "var_diag")
        return ModelFile(
            kind=payload["kind"],
            spec=FeatureSpec(_json_int(payload, "d"), _json_int(payload, "m")),
            weights=np.asarray(_json_numbers(payload["weights"], "weights"), dtype=float),
            var_diag=None if var is None else np.asarray(var, dtype=float),
            hyper=payload.get("hyper", {}),
        )
    except _PARSE_ERRORS as exc:
        lineno = exc.lineno if isinstance(exc, json.JSONDecodeError) else 1
        raise _located(path, lineno, exc) from None
