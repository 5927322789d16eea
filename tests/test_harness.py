"""File formats, metrics, the bound calculator, and curve generation."""

import dataclasses
import json
import math
import re
import tracemalloc
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from medn import (
    BoundInputs,
    FeatureSpec,
    GeneratorConfig,
    SequenceInstance,
    TrueCrf,
    decode_instances,
    evaluate_weight_rows,
    gen_dataset,
    kl_norm,
    margin_sample_count,
    mean_std,
    pac_bound,
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
from medn import chain, dataio
from medn.dataio import (
    ModelFile,
    read_dataset,
    read_model_file,
    write_dataset,
    write_model_file,
)
from oracles import (
    laplace_tilted_mean,
    norm_ball_radius_oracle,
    reference_read_dataset,
    reference_write_dataset,
)


# Up to three single-character edits: (position, operation, character).
_EDITS = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.sampled_from(["delete", "insert", "replace"]),
        st.sampled_from(list('{}[]",:-+.0123456789eExydm \n')),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(path, edits):
    text = path.read_text()
    for pos, op, char in edits:
        i = pos % (len(text) + (op == "insert"))
        tail = text[i:] if op == "insert" else text[i + 1 :]
        text = text[:i] + ("" if op == "delete" else char) + tail
    path.write_text(text)


def _assert_parses_or_fails_in_one_located_line(reader, path):
    try:
        reader(path)
    except ValueError as exc:
        message = str(exc)
        assert re.match(rf"{re.escape(str(path))}:\d+: ", message), message
        assert "\n" not in message


# Doubles at the edges where orjson and json.dumps print differently: an
# exponent, or a value below 1e-4, and the neighbours on either side.
_WRITER_EDGES = [
    0.0, 5e-324, 9.99e-5, 1e21, 1.7976931348623157e308,
    *(math.nextafter(edge, toward)
      for edge in (1e-5, 1e-4, 1e16) for toward in (0.0, edge, math.inf)),
]
# Instances of d = 2 and m = 3: one (feature, feature, label) triple per position.
_WRITER_INSTANCES = st.lists(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_WRITER_EDGES),
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=5,
    ),
    min_size=1,
    max_size=6,
)


def _with_writer_edges(test):
    """One @example per edge double, a file of one line holding it and its negation."""
    for value in _WRITER_EDGES:
        test = example(rows=[[(value, -value, 1)]])(test)
    return test


_ONE_FEATURE_HEADER = '{"d":1,"format":1,"kind":"sequence-dataset","m":2,"meta":{}}'
_TWO_FEATURE_HEADER = '{"d":2,"format":1,"kind":"sequence-dataset","m":3,"meta":{"n":1}}'


@st.composite
def _dataset_lines(draw):
    """The lines of a valid d = 2, m = 3 dataset file: the header, then up
    to five instance lines with blank and whitespace-only lines among them."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        length = draw(st.integers(1, 3))
        x = draw(st.lists(st.lists(finite, min_size=2, max_size=2), min_size=length, max_size=length))
        y = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
        lines.append(json.dumps({"x": x, "y": y}))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t", " \t\x0b\x0c "])))
    return [_TWO_FEATURE_HEADER, *lines]


def _joined(draw, lines) -> bytes:
    """``lines``, each ended by "\\n", "\\r\\n" or "\\r", the last one's
    ending sometimes dropped."""
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text.encode()


def _assert_same_instances(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.features.shape == b.features.shape
        assert a.features.tobytes() == b.features.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)


@st.composite
def _decimal_literals(draw):
    """A JSON number with up to 25 mantissa digits and an exponent in
    [-330, 310]."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(1, len(digits)))
    whole, fraction = digits[:point].lstrip("0") or "0", digits[point:]
    sign = draw(st.sampled_from(["", "-"]))
    exponent = draw(st.integers(-330, 310))
    return f"{sign}{whole}{'.' + fraction if fraction else ''}e{exponent}"


def _halfway_literals():
    """About 800 significant digits at and just beside the exact midpoint of
    two neighbouring doubles, where only correct rounding picks the right
    neighbour (ties go to the even one)."""
    literals = []
    with localcontext() as ctx:
        ctx.prec = 2000
        for low in (5e-324, 2.225073858507201e-308, 1.0, 1.7976931348623155e308):
            mid = (Decimal(low) + Decimal(float(np.nextafter(low, math.inf)))) / 2
            nudge = Decimal(10) ** (mid.adjusted() - 800)
            for suffix, value in [("-minus", mid - nudge), ("", mid), ("-plus", mid + nudge)]:
                literals.append(pytest.param(f"{value:e}", id=f"midpoint-after-{low!r}{suffix}"))
    return literals


_HARD_LITERALS = [
    "2.2250738585072011e-308",
    "4.9406564584124654e-324",
    "2.4703282292062327e-324",
    "2.4703282292062328e-324",
    "1.7976931348623157e308",
    "1.7976931348623159e308",
    "-1e400",
    "1e-400",
    "-0.0",
    *_halfway_literals(),
]


class TestDatasetFiles:
    def test_round_trip_is_byte_stable(self, tmp_path):
        cfg = GeneratorConfig(d=3, d_rel=2, L=4, m=2, n_samples=6, gibbs_iters=30, seed=2)
        dataset = gen_dataset(cfg)
        spec = dataset.crf.spec
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        write_dataset(path_a, dataset.instances, spec, meta={"seed": 2})
        instances, spec_back, meta = read_dataset(path_a)
        assert spec_back == spec
        assert meta == {"seed": 2}
        assert len(instances) == 6
        for orig, back in zip(dataset.instances, instances):
            np.testing.assert_array_equal(orig.features, back.features)
            np.testing.assert_array_equal(orig.labels, back.labels)
        write_dataset(path_b, instances, spec_back, meta=meta)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_numpy_integer_dimensions_write_the_bytes_of_python_ints(self, tmp_path):
        """A spec and a generator config built from numpy scalars store Python
        numbers, so the file is the one Python numbers give; numpy integers
        used to end in json's ``TypeError``."""
        instances = [SequenceInstance(np.ones((2, 3)), np.array([0, 1]))]
        for name, num, real in (("python.jsonl", int, float), ("numpy.jsonl", np.int64, np.float32)):
            cfg = GeneratorConfig(d=num(3), d_rel=num(2), L=num(2), m=num(2), n_samples=num(1),
                                  gibbs_iters=num(1), noise_sd=real(0.5), seed=num(7))
            meta = {"generator": dataclasses.asdict(cfg)}
            write_dataset(tmp_path / name, instances, FeatureSpec(num(3), num(2)), meta=meta)
        assert (tmp_path / "python.jsonl").read_bytes() == (tmp_path / "numpy.jsonl").read_bytes()

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset(path, [], FeatureSpec(2, 2), meta={})
        instances, spec, _ = read_dataset(path)
        assert instances == [] and spec == FeatureSpec(2, 2)
        assert len(path.read_text().splitlines()) == 1

    @pytest.mark.parametrize(
        "text, error",
        [(b"", ": empty dataset file"),
         (b'{"d":1,"format":2,"kind":"sequence-dataset","m":2,"meta":{}}\n',
          ":1: unsupported dataset format 2"),
         (b'{"d":1,"format":true,"kind":"sequence-dataset","m":2,"meta":{}}\n',
          ":1: format must be an integer >= 1, got True"),
         (b'{"d":1,"format":1.0,"kind":"sequence-dataset","m":2,"meta":{}}\n',
          ":1: format must be an integer >= 1, got 1.0")],
        ids=["empty", "format-2", "format-true", "format-1.0"],
    )
    def test_a_file_without_a_readable_header_is_one_error(self, tmp_path, text, error):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(text)
        with pytest.raises(ValueError) as info:
            read_dataset(path)
        assert str(info.value) == f"{path}{error}"

    def test_bad_width_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_dataset(path, [SequenceInstance([[1.0, 2.0]], [0])], FeatureSpec(2, 2))
        lines = path.read_text().splitlines()
        lines.append('{"x":[[1.0]],"y":[0]}')
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}:3: expected 2 input features, got 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_dataset(path)

    def test_label_exceeding_arity_rejected(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        write_dataset(path, [], FeatureSpec(1, 2))
        with open(path, "a") as fh:
            fh.write('{"x":[[1.0]],"y":[2]}\n')
        message = f"{path}:2: label indices must lie in [0, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_dataset(path)

    @settings(max_examples=200, deadline=None)
    @given(edits=_EDITS)
    def test_mutated_file_parses_or_fails_with_one_located_line(self, tmp_path_factory, edits):
        """Deleting, inserting or replacing up to three characters of a valid
        file either leaves it readable or gives a one-line ``ValueError``
        that starts with ``path:line:``."""
        path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
        write_dataset(
            path,
            [SequenceInstance([[0.5, -1.0], [2.0, 0.0]], [1, 2]), SequenceInstance([[1.0, 3.0]], [0])],
            FeatureSpec(2, 3),
        )
        _mutate(path, edits)
        _assert_parses_or_fails_in_one_located_line(read_dataset, path)

    @settings(max_examples=300, deadline=None)
    @given(rows=_WRITER_INSTANCES)
    @_with_writer_edges
    @example(rows=[[(0.5, -1.0, 0)], [(1e-7, 2.0, 1), (3.0, 0.25, 2)], [(1e16, 0.1, 0)],
                   [(123.456, 1e-4, 1)]])
    def test_written_bytes_are_those_of_json_dumps(self, tmp_path_factory, rows):
        """Lines printed by orjson, and the ones that fall back to
        ``json.dumps``, are byte for byte the lines ``json.dumps`` writes,
        for an instance that keeps F-ordered features among them."""
        f_ordered = SequenceInstance(np.asfortranarray(np.arange(6).reshape(3, 2)), np.array([0, 1, 0]))
        assert not f_ordered.features.flags.c_contiguous
        instances = [f_ordered] + [
            SequenceInstance([position[:2] for position in row], [position[2] for position in row])
            for row in rows
        ]
        base = tmp_path_factory.getbasetemp()
        written, reference = base / "written.jsonl", base / "reference.jsonl"
        write_dataset(written, instances, FeatureSpec(2, 3), meta={"seed": 7})
        reference_write_dataset(reference, instances, FeatureSpec(2, 3), meta={"seed": 7})
        assert written.read_bytes() == reference.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    @example(values=[-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308])
    def test_any_finite_double_round_trips_bit_for_bit(self, tmp_path_factory, values):
        path = tmp_path_factory.getbasetemp() / "doubles.jsonl"
        x = np.array(values).reshape(-1, 1)
        write_dataset(path, [SequenceInstance(x, np.zeros(len(values), dtype=np.int64))],
                      FeatureSpec(1, 2))
        (back,), _, _ = read_dataset(path)
        assert back.features.tobytes() == x.tobytes()

    @staticmethod
    def _assert_reads_as_float(path, literal):
        """The file's one feature reads as ``float(literal)`` bit for bit, or
        fails with one located line where that is infinite."""
        path.write_text(f'{_ONE_FEATURE_HEADER}\n{{"x":[[{literal}]],"y":[0]}}\n')
        expected = float(literal)
        if math.isinf(expected):
            with pytest.raises(ValueError) as info:
                read_dataset(path)
            assert re.fullmatch(rf"{re.escape(str(path))}:2: invalid JSON: [^\n]*", str(info.value))
        else:
            (inst,), _, _ = read_dataset(path)
            assert inst.features.tobytes() == np.array([[expected]]).tobytes()

    @pytest.mark.parametrize("literal", _HARD_LITERALS)
    def test_hard_decimal_literals_read_exactly(self, tmp_path, literal):
        self._assert_reads_as_float(tmp_path / "literal.jsonl", literal)

    @settings(max_examples=500, deadline=None)
    @given(literal=_decimal_literals())
    def test_decimal_literals_read_exactly(self, tmp_path_factory, literal):
        self._assert_reads_as_float(tmp_path_factory.getbasetemp() / "literal.jsonl", literal)

    def test_raw_line_separator_in_a_string_is_kept(self, tmp_path):
        """U+2028 may stand unescaped in a JSON string; only newlines end a line."""
        path = tmp_path / "separator.jsonl"
        header = {"d": 1, "format": 1, "kind": "sequence-dataset", "m": 2, "meta": {"note": "a\u2028b"}}
        path.write_text(json.dumps(header, ensure_ascii=False) + '\n{"x":[[1.5]],"y":[1]}\n',
                        encoding="utf-8")
        instances, spec, meta = read_dataset(path)
        assert meta == {"note": "a\u2028b"}
        assert spec == FeatureSpec(1, 2) and len(instances) == 1

    @pytest.mark.parametrize(
        "meta, message",
        [
            ("[" * 999 + "]" * 999, None),
            ('{"note":"' + "[" * 5000 + '"}', None),
            ("[" * 1000 + "]" * 1000, "JSON nested deeper than 1000 levels"),
            ('{"note":"' + "]" * 5000 + '","deep":' + "[" * 10**6 + "]" * 10**6 + "}",
             "JSON nested deeper than 1000 levels"),
        ],
        ids=["1000-levels", "brackets-in-a-string", "1001-levels", "a-million-levels"],
    )
    def test_nesting_is_bounded(self, tmp_path, meta, message):
        """Values nest up to 1000 levels, counting the header object;
        deeper text is one located error, however deep, and brackets in
        strings do not count."""
        path = tmp_path / "deep.jsonl"
        path.write_text(f'{{"d":1,"format":1,"kind":"sequence-dataset","m":2,"meta":{meta}}}\n')
        if message is None:
            read_dataset(path)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: {message}$"):
                read_dataset(path)

    @pytest.mark.parametrize(
        "x, y, error",
        [
            ("[[1.0,true]]", "[0]", "x must hold JSON numbers, got True at index (0, 1)"),
            ('[[1.0,"2"]]', "[0]", "x must hold JSON numbers, got '2' at index (0, 1)"),
            ("[[1.0],[0.5]]", "[0,false]", "y must hold JSON numbers, got False at index 1"),
            ("[" * 999 + "true" + "]" * 999, "[0]", f"x must hold JSON numbers, got True at index {(0,) * 999}"),
            ("[" * 999 + '"a"' + "]" * 999, "[0]", f"x must hold JSON numbers, got 'a' at index {(0,) * 999}"),
        ],
        ids=["bool", "string", "bool-label", "bool-999-levels-deep", "string-999-levels-deep"],
    )
    def test_a_bool_or_string_among_the_numbers_is_one_located_line(self, tmp_path, x, y, error):
        """A JSON boolean or string in "x" or "y" is one error naming the key,
        the value and its index, at any depth the reader parses: the walk
        that finds it is not recursive, so 999 levels do not reach Python's
        recursion limit."""
        path = tmp_path / "non-number.jsonl"
        path.write_text(f'{_ONE_FEATURE_HEADER}\n{{"x":{x},"y":{y}}}\n')
        with pytest.raises(ValueError) as info:
            read_dataset(path)
        assert str(info.value) == f"{path}:2: {error}"

    def test_only_a_line_that_may_hold_a_non_number_is_walked(self, tmp_path, monkeypatch):
        """A line with no true, false or string besides its keys pays no walk
        of its lists, in the reader or in the instance it builds; a line
        with one has its "x" and "y" walked once each."""
        walk, walked = chain._first_non_number, []

        def spy(value):
            walked.append(isinstance(value, (list, tuple)))
            return walk(value)

        monkeypatch.setattr(chain, "_first_non_number", spy)
        monkeypatch.setattr(dataio, "_first_non_number", spy)
        path = tmp_path / "lines.jsonl"
        path.write_text(f'{_ONE_FEATURE_HEADER}\n{{"x":[[0.5],[1.0]],"y":[0,1]}}\n'
                        '{"x":[[0.5]],"y":[1],"note":"a"}\n')
        instances, _, _ = read_dataset(path)
        assert len(instances) == 2 and walked.count(True) == 2


    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_lines_end_as_bytes_splitlines_ends_them(self, tmp_path_factory, data):
        """Lines end at "\\n", "\\r\\n" or "\\r", with or without a final
        line break, exactly as ``bytes.splitlines()`` splits the whole file."""
        path = tmp_path_factory.getbasetemp() / "endings.jsonl"
        path.write_bytes(_joined(data.draw, data.draw(_dataset_lines())))
        (got, spec, meta), (want, want_spec, want_meta) = read_dataset(path), reference_read_dataset(path)
        assert (spec, meta) == (want_spec, want_meta)
        _assert_same_instances(got, want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), bad=st.sampled_from(
        ['{"x":[[1.0,2.0]],"y":[0]', '{"x":[],"y":[],}', "nope", '{"x":[[1.0,2.0]],"y":"a']))
    def test_invalid_json_is_located_at_the_line_splitlines_gives(self, tmp_path_factory, data, bad):
        """The error names the line ``bytes.splitlines()`` gives and words
        it as orjson does for that line alone, without its line break: a
        cut string followed by "\\n" would read "unexpected control
        character in string", not "unexpected end of data"."""
        lines = data.draw(_dataset_lines())
        at = data.draw(st.integers(1, len(lines)))
        lines[at : at + 1] = [bad]
        path = tmp_path_factory.getbasetemp() / "bad-line.jsonl"
        path.write_bytes(_joined(data.draw, lines))
        with pytest.raises(ValueError) as want:
            reference_read_dataset(path)
        with pytest.raises(ValueError) as got:
            read_dataset(path)
        where = str(want.value).split(": ")[0]
        with pytest.raises(orjson.JSONDecodeError) as alone:
            orjson.loads(bad)
        assert str(got.value) == f"{where}: invalid JSON: {alone.value.msg}"

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_line_longer_than_the_read_buffer_reads_bit_for_bit(self, tmp_path, end):
        rng = np.random.default_rng(16)
        instances = [SequenceInstance(rng.standard_normal((60_000, 1)), rng.integers(0, 2, 60_000)),
                     SequenceInstance([[0.25]], [1])]
        path = tmp_path / "long.jsonl"
        write_dataset(path, instances, FeatureSpec(1, 2))
        lines = path.read_bytes().splitlines()
        assert len(lines[1]) > dataio._READ_BUFFER
        path.write_bytes(b"".join(line + end.encode() for line in lines))
        back, _, _ = read_dataset(path)
        _assert_same_instances(back, instances)

    def test_a_read_holds_about_one_line_beyond_what_it_returns(self, tmp_path):
        """The reader streams: at its peak it holds what it returns plus its
        read buffer and about one line, under a quarter of a 6 MB file.  A
        reader that holds the file's bytes, or its lines, needs more than
        the file's size."""
        rng = np.random.default_rng(17)
        instances = [SequenceInstance(rng.standard_normal((40, 50)), rng.integers(0, 4, 40))
                     for _ in range(150)]
        path = tmp_path / "wide.jsonl"
        write_dataset(path, instances, FeatureSpec(50, 4))
        size = path.stat().st_size
        assert size > 4e6
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            back, _, _ = read_dataset(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(back) == 150
        assert peak - held < size / 4


class TestModelFiles:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(70)
        spec = FeatureSpec(3, 2)
        weights = rng.standard_normal(spec.K)
        var = np.abs(rng.standard_normal(spec.K)) + 0.1
        path = tmp_path / "model.json"
        write_model_file(
            path,
            ModelFile(kind="lapmedn", spec=spec, weights=weights, var_diag=var,
                      hyper={"lambda": 4.0, "seed": 1, "n_train": 10}),
        )
        loaded = read_model_file(path)
        assert loaded.kind == "lapmedn"
        np.testing.assert_array_equal(loaded.weights, weights)
        np.testing.assert_array_equal(loaded.var_diag, var)
        assert loaded.hyper["lambda"] == 4.0
        instances = [SequenceInstance(rng.standard_normal((5, 3)), np.zeros(5, dtype=np.int64))]
        (preds,) = decode_instances(spec, np.stack([weights, loaded.weights]), instances)
        np.testing.assert_array_equal(preds[0], preds[1])

    @settings(max_examples=200, deadline=None)
    @given(edits=_EDITS)
    def test_mutated_file_parses_or_fails_with_one_located_line(self, tmp_path_factory, edits):
        """Deleting, inserting or replacing up to three characters of a valid
        model file either leaves it readable or gives a one-line
        ``ValueError`` that starts with ``path:line:``."""
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        spec = FeatureSpec(1, 2)
        write_model_file(
            path,
            ModelFile(kind="lapmedn", spec=spec, weights=np.linspace(-1.0, 2.0, spec.K),
                      var_diag=np.full(spec.K, 0.5), hyper={"lambda": 4.0, "seed": 1}),
        )
        _mutate(path, edits)
        _assert_parses_or_fails_in_one_located_line(read_model_file, path)

    @pytest.mark.parametrize(
        "field, values, error",
        [
            ("weights", "[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, true]",
             "weights must be an array of real numbers, got a bool at index 7"),
            ("weights", '[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, "1"]',
             "weights must be an array of real numbers, got dtype <U32"),
            ("var_diag", "[1, 1, 1, 1, 1, 1, false, 1]",
             "var_diag must be an array of real numbers, got a bool at index 6"),
        ],
    )
    def test_a_bool_or_string_among_the_numbers_is_one_located_line(self, tmp_path, field, values, error):
        """The model's own check refuses a JSON boolean or string among the
        weights or variances, naming the field, in one line located at the
        file's line 1."""
        path = tmp_path / "model.json"
        spec = FeatureSpec(2, 2)
        write_model_file(path, ModelFile(kind="lapmedn", spec=spec, weights=np.ones(spec.K),
                                         var_diag=np.ones(spec.K), hyper={}))
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, field: "VALUES"}).replace('"VALUES"', values))
        with pytest.raises(ValueError) as info:
            read_model_file(path)
        assert str(info.value) == f"{path}:1: {error}"

    def test_numpy_integer_dimensions_write_the_bytes_of_python_ints(self, tmp_path):
        """A spec built from numpy integers stores Python ints, so the model
        file is the one Python ints give, not json's ``TypeError``."""
        for name, num in (("python.json", int), ("numpy.json", np.int64)):
            spec = FeatureSpec(num(3), num(2))
            model = ModelFile(kind="m3n", spec=spec, weights=np.ones(spec.K), var_diag=None,
                              hyper={"beta": 1.0})
            write_model_file(tmp_path / name, model)
        assert (tmp_path / "python.json").read_bytes() == (tmp_path / "numpy.json").read_bytes()

    def test_an_unsupported_format_is_one_located_line(self, tmp_path):
        path = tmp_path / "model.json"
        spec = FeatureSpec(2, 2)
        write_model_file(path, ModelFile(kind="m3n", spec=spec, weights=np.ones(spec.K),
                                         var_diag=None, hyper={}))
        path.write_text(json.dumps({**json.loads(path.read_text()), "format": 2}))
        with pytest.raises(ValueError) as info:
            read_model_file(path)
        assert str(info.value) == f"{path}:1: unsupported model format 2"

    @pytest.mark.parametrize("value", [True, 1.0, "1", 0], ids=["true", "1.0", "string", "0"])
    def test_a_format_that_is_not_a_count_is_one_located_line(self, tmp_path, value):
        """The format goes through the package's count check, which names it
        and refuses a bool, a float and a string alike."""
        path = tmp_path / "model.json"
        spec = FeatureSpec(2, 2)
        write_model_file(path, ModelFile(kind="m3n", spec=spec, weights=np.ones(spec.K),
                                         var_diag=None, hyper={}))
        path.write_text(json.dumps({**json.loads(path.read_text()), "format": value}))
        with pytest.raises(ValueError) as info:
            read_model_file(path)
        assert str(info.value) == f"{path}:1: format must be an integer >= 1, got {value!r}"

    def test_unknown_kind_rejected(self):
        spec = FeatureSpec(2, 2)
        with pytest.raises(ValueError):
            ModelFile(kind="other", spec=spec, weights=np.zeros(spec.K), var_diag=None, hyper={})


class TestMetrics:
    def test_counts_match_hand_evaluation(self):
        """Zero weights decode everything to label 0, so the error rates are
        exactly the fraction of nonzero gold labels."""
        spec = FeatureSpec(2, 2)
        instances = [
            SequenceInstance(np.zeros((4, 2)), [0, 0, 1, 1]),
            SequenceInstance(np.zeros((4, 2)), [0, 0, 0, 0]),
        ]
        report = evaluate_weight_rows(spec, np.zeros((1, spec.K)), instances)[0]
        assert report.per_label_err == pytest.approx(2 / 8)
        assert report.seq_err == pytest.approx(1 / 2)
        assert report.n_sequences == 2 and report.n_positions == 8

    def test_zero_weight_model_on_symmetric_data_errs_about_half(self):
        """Uniformly sampled binary labels: predicting all zeros is wrong on
        about half the positions."""
        spec = FeatureSpec(2, 2)
        crf = TrueCrf(spec, np.zeros(spec.K), relevant=np.arange(0))
        rng = np.random.default_rng(71)
        instances = [
            SequenceInstance(rng.standard_normal((8, 2)), rng.integers(0, 2, size=8))
            for _ in range(250)
        ]
        report = evaluate_weight_rows(spec, crf.weights[None], instances)[0]
        assert abs(report.per_label_err - 0.5) <= 0.05

    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 5), min_size=1, max_size=8),
        batch=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_equal_a_per_instance_count(self, lengths, batch, seed):
        """One comparison over all positions counts what one comparison per
        instance and weight row counts, for lengths 1 and up in any order."""
        rng = np.random.default_rng(seed)
        spec = FeatureSpec(2, 3)
        instances = [SequenceInstance(rng.standard_normal((n, 2)), rng.integers(0, 3, n))
                     for n in lengths]
        weights = rng.standard_normal((batch, spec.K))
        reports = evaluate_weight_rows(spec, weights, instances)
        for w, report in zip(weights, reports):
            wrong = [int((decode_instances(spec, w[None], [inst])[0][0] != inst.labels).sum())
                     for inst in instances]
            assert report.per_label_err == sum(wrong) / sum(lengths)
            assert report.seq_err == sum(map(bool, wrong)) / len(instances)
            assert (report.n_sequences, report.n_positions) == (len(instances), sum(lengths))

    @pytest.mark.parametrize("evaluate", [decode_instances, evaluate_weight_rows])
    def test_decoding_holds_scores_not_a_copy_of_the_inputs(self, evaluate):
        """Decoding 250 wide instances under one weight row peaks below half
        the 3.8 MB of their features: it holds node scores and labels, about
        a twelfth of the inputs at d = 50 and m = 4.  A decoder that stacks
        each length's inputs needs more than their size."""
        rng = np.random.default_rng(72)
        spec = FeatureSpec(50, 4)
        instances = [SequenceInstance(rng.standard_normal((40, 50)), rng.integers(0, 4, 40))
                     for _ in range(250)]
        weights = rng.standard_normal((1, spec.K))
        size = sum(inst.features.nbytes for inst in instances)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before, _ = tracemalloc.get_traced_memory()
            evaluate(spec, weights, instances)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - before < size / 2

    def test_an_empty_evaluation_set_raises(self):
        spec = FeatureSpec(2, 2)
        with pytest.raises(ValueError, match="^evaluation set must be nonempty$"):
            evaluate_weight_rows(spec, np.zeros((1, spec.K)), [])

    def test_mean_std_aggregation(self):
        mean, std = mean_std([0.1, 0.2, 0.3])
        assert mean == pytest.approx(0.2)
        assert std == pytest.approx(np.std([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            mean_std([])

    def test_rates_validated(self):
        from medn import MetricsReport

        with pytest.raises(ValueError):
            MetricsReport(per_label_err=1.5, seq_err=0.0, n_sequences=1, n_positions=1)


class TestPacBound:
    def test_fixture_against_high_precision_evaluation(self):
        """N=100, 256 labelings, c=gamma=1, kl=1, delta=0.1: the derived
        sample count is 241 and the bound about 1.304, recomputed here with
        50-digit arithmetic."""
        inputs = BoundInputs(
            n=100, y_card=256, c=1.0, gamma=1.0, kl=1.0, delta=0.1, empirical_margin_rate=0.0
        )
        assert margin_sample_count(inputs) == 241
        mpmath.mp.dps = 50
        m = int(mpmath.ceil(16 * mpmath.log(100 * mpmath.mpf(256) ** 2 / 2)))
        assert m == 241
        tail = 256 * mpmath.e ** (-mpmath.mpf(m) / 32)
        slack = mpmath.sqrt((m + mpmath.log(100) + 3 * mpmath.log((m + 1) / mpmath.mpf("0.1")) + 2) / 199)
        oracle = float(tail + slack)
        assert pac_bound(inputs) == pytest.approx(oracle, abs=1e-9)
        assert pac_bound(inputs) == pytest.approx(1.304, abs=5e-3)

    def test_monotone_in_kl(self):
        base = dict(n=500, y_card=64, c=1.0, gamma=0.5, delta=0.05, empirical_margin_rate=0.1)
        values = [pac_bound(BoundInputs(kl=kl, **base)) for kl in (0.0, 0.5, 1.0, 5.0, 50.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_inverse_delta(self):
        base = dict(n=500, y_card=64, c=1.0, gamma=0.5, kl=1.0, empirical_margin_rate=0.1)
        values = [pac_bound(BoundInputs(delta=d, **base)) for d in (0.5, 0.1, 0.01)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_complexity_term_shrinks_with_more_data(self):
        """For fixed m the third term decays like 1/sqrt(n); with n growing
        the whole bound approaches rate + discretization tail."""
        base = dict(y_card=64, c=1.0, gamma=1.0, kl=1.0, delta=0.1, empirical_margin_rate=0.2)
        big_n = BoundInputs(n=10**9, **base)
        m = margin_sample_count(big_n)
        residual = pac_bound(big_n) - 0.2 - 64 * math.exp(-m / 32.0)
        assert residual <= math.sqrt(m * 1.0 / (2e9 - 1)) + 1e-4
        assert residual < 0.01

    def test_vacuous_bounds_not_clipped(self):
        inputs = BoundInputs(
            n=10, y_card=1000, c=2.0, gamma=0.1, kl=10.0, delta=0.01, empirical_margin_rate=0.5
        )
        assert pac_bound(inputs) > 1.0

    def test_numpy_integers_give_the_bound_of_python_ints(self):
        """n and y_card are stored as Python ints, so n * y_card**2 is exact:
        in int64, 10 * (2**40)**2 wrapped to 0, giving m = 1 and a bound of
        1.07e12."""
        base = dict(c=1, gamma=1, kl=1, delta=0.1, empirical_margin_rate=0)
        for n, y_card in ((10, 2**40), (np.int64(10), np.int64(2**40))):
            inputs = BoundInputs(n=n, y_card=y_card, **base)
            assert (margin_sample_count(inputs), pac_bound(inputs)) == (913, 7.498106447820263)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(n=0, y_card=4, c=1.0, gamma=1.0, kl=0.0, delta=0.1, empirical_margin_rate=0.0)
        with pytest.raises(ValueError):
            BoundInputs(n=5, y_card=4, c=1.0, gamma=1.0, kl=-1.0, delta=0.1, empirical_margin_rate=0.0)
        with pytest.raises(ValueError):
            BoundInputs(n=5, y_card=4, c=1.0, gamma=1.0, kl=0.0, delta=1.5, empirical_margin_rate=0.0)


class TestShrinkageCurves:
    def test_identity_curve_is_exact(self):
        points = identity_points([0.7, -1.2])
        assert points[0].y == 0.7 and points[1].y == -1.2

    def test_known_point_and_quadrature(self):
        points = dict((p.x, p.y) for p in shrinkage_points(4.0, [0.0, 1.0]))
        assert points[1.0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert points[1.0] == pytest.approx(laplace_tilted_mean(1.0, 4.0), abs=1e-6)

    def test_sharper_prior_curve_lies_below(self):
        grid = np.linspace(0.05, 1.9, 60)
        four = [p.y for p in shrinkage_points(4.0, grid)]
        six = [p.y for p in shrinkage_points(6.0, grid)]
        assert all(s < f for s, f in zip(six, four))

    def test_grid_touching_the_domain_edge_rejected(self):
        with pytest.raises(ValueError):
            shrinkage_points(4.0, [0.0, 2.0])

    @pytest.mark.parametrize("eta", [1e200, -1e300, 1.7e308])
    def test_grid_whose_square_overflows_is_rejected_without_a_warning(self, eta):
        """A square past the float range is past any lam; the suite makes
        numpy's overflow warning an error."""
        with pytest.raises(ValueError, match="domain boundary"):
            shrinkage_points(4.0, [0.0, eta])

    def test_default_grid_stays_inside(self):
        grid = shrinkage_eta_grid(6.0)
        assert len(grid) == 50
        assert np.all(np.abs(grid) < math.sqrt(6.0))


class TestNormBall:
    def test_level_equals_the_two_coordinate_penalty_at_unit_point(self):
        for lam in (1.0, 4.0, 36.0):
            assert norm_ball_level(lam) == pytest.approx(
                kl_norm(np.array([0.0, 1.0]), lam), abs=1e-12
            )

    def test_boundary_points_satisfy_the_level_equation(self):
        for lam in (1.0, 16.0):
            level = norm_ball_level(lam)
            for w1, w2 in norm_ball_boundary(lam, 90):
                assert abs(kl_norm(np.array([w1, w2]), lam) - level) <= 1e-8

    def test_boundary_passes_the_unit_axis_points(self):
        points = norm_ball_boundary(4.0, 360)
        for target in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]):
            distance = np.min(np.linalg.norm(points - np.array(target), axis=1))
            assert distance <= 1e-6

    def test_boundary_radii_match_high_precision_oracle(self):
        """Down to lam = 1e-300, where the penalty and its level agree in
        their first 300 digits and the ball is the unit circle."""
        thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        for lam in (1e-300, 1e-100, 1e-12, 1e-6, 1.0, 16.0, 1e6):
            radii = np.hypot(*norm_ball_boundary(lam, 8).T)
            for radius, theta in zip(radii, thetas):
                assert abs(radius - norm_ball_radius_oracle(lam, theta)) <= 1e-12, (lam, theta)

    def test_large_lam_boundary_approaches_the_l1_diamond(self):
        points = norm_ball_boundary(1e6, 720)
        diamond = l1_unit_ball(720)
        distances = cdist(points, diamond)
        hausdorff = max(distances.min(axis=0).max(), distances.min(axis=1).max())
        assert hausdorff <= 0.01

    def test_unit_ball_helpers(self):
        circle = l2_unit_ball(64)
        np.testing.assert_allclose(np.linalg.norm(circle, axis=1), 1.0, atol=1e-12)
        diamond = l1_unit_ball(64)
        np.testing.assert_allclose(np.abs(diamond).sum(axis=1), 1.0, atol=1e-12)
