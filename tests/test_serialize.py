import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfsp import Presentation, build_standard
from qfsp.errors import ParseError
from qfsp.quasifree import thermal_form
from qfsp.serialize import (
    decode_complex_matrix,
    decode_complex_vector,
    decode_form,
    decode_phase_space,
    _json_default,
    dump_json,
    encode_complex_matrix,
    encode_complex_vector,
    encode_form,
    encode_phase_space,
    load_json,
)


def test_matrix_round_trip(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(decode_complex_matrix(encode_complex_matrix(m)), m)


def test_vector_round_trip(rng):
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert np.allclose(decode_complex_vector(encode_complex_vector(v)), v)


# signed zeros, the smallest subnormal, the largest finite double and the
# infinities, next to ordinary values
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, float("inf"), -float("inf"), 1.0, -0.1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6),
       st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                          st.floats(allow_nan=False)), min_size=72, max_size=72))
def test_complex_encoders_match_the_element_loop(rows, cols, values):
    """The vectorized encoders give the lists (and the dumped bytes) of the
    per-element loop they replace."""
    re, im = np.reshape(values, (2, 36))[:, :rows * cols].reshape(2, rows, cols)
    m = np.empty((rows, cols), dtype=complex)
    m.real, m.imag = re, im  # re + 1j * im would turn 0 * inf into nan
    loop_m = [[[float(v.real), float(v.imag)] for v in row] for row in m]
    loop_v = [[float(x.real), float(x.imag)] for x in m[0]]
    for got, want in ((encode_complex_matrix(m), loop_m),
                      (encode_complex_vector(m[0]), loop_v)):
        assert json.dumps(got) == json.dumps(want)  # repr keeps every bit and sign
        assert {type(x) for x in np.ravel(np.array(got, dtype=object))} == {float}


def test_phase_space_round_trip():
    ps = build_standard(2, Presentation.POSITION)
    back = decode_phase_space(encode_phase_space(ps))
    assert np.allclose(back.G, ps.G) and np.allclose(back.C, ps.C)


def test_form_round_trip(diag1):
    f = thermal_form(diag1, 0.7)
    back = decode_form(encode_form(f))
    assert np.allclose(back.sigma, f.sigma)
    assert np.allclose(back.space.G, diag1.G)


def test_decode_errors():
    with pytest.raises(ParseError):
        decode_complex_matrix([[1, 2], [3, 4]])
    with pytest.raises(ParseError):
        decode_complex_matrix([[[1, 2, 3]]])
    with pytest.raises(ParseError):
        decode_complex_vector([1, 2])
    with pytest.raises(ParseError):
        decode_phase_space({"dim": 2})
    with pytest.raises(ParseError):
        decode_phase_space({"dim": 3, "G": encode_complex_matrix(np.eye(2)),
                            "C": encode_complex_matrix(np.eye(2))})
    with pytest.raises(ParseError):
        decode_form({"Sigma": []})


def test_dump_and_load(tmp_path):
    path = tmp_path / "x.json"
    text = dump_json({"b": 1, "a": [1.5, np.float64(2.5)]}, str(path))
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    assert load_json(str(path)) == {"a": [1.5, 2.5], "b": 1}
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "missing.json"))


def oracle(obj) -> str:
    """The standard library's text, which dump_json reproduces byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, -2.5e300]),
                    _FINITE)
_STRINGS = st.one_of(st.text(), st.sampled_from(
    ['say "hi"', "back\\slash", "tab\tline\nnul\x00\x1f\x7f", "ünï ☃ 𝄞 \u2028"]))
_NUMPY = st.one_of(
    _FINITE.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
# encode_complex_vector's pairs and one encode_complex_matrix row
_ROWS = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(_FLOATS, min_size=k, max_size=k), min_size=1, max_size=6))


def _float64_at(rows, i):
    """The rows with one exact float turned into an np.float64."""
    rows = [list(row) for row in rows]
    row = rows[i % len(rows)]
    row[i % len(row)] = np.float64(row[i % len(row)])
    return rows


_FLOAT_LISTS = st.one_of(
    st.lists(_FLOATS), _ROWS,
    st.lists(st.lists(_FLOATS, max_size=3), max_size=4),  # ragged and empty
    st.builds(_float64_at, _ROWS, st.integers(0, 99)),
    st.builds(lambda row, i: _float64_at([row], i)[0],
              st.lists(_FLOATS, min_size=1), st.integers(0, 99)),
)
_KEYS = st.one_of(st.just(st.text()), st.just(st.integers()), st.just(_FINITE),
                  st.just(st.booleans()), st.just(st.none()))
_JSON = st.recursive(
    st.one_of(_STRINGS, st.integers(), st.booleans(), st.none(), _FLOATS,
              _NUMPY, _FLOAT_LISTS, st.just([1, 2.5])),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        _KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_dump_json_matches_the_stdlib_oracle(obj):
    assert dump_json(obj) == oracle(obj)


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), -float("inf"), np.float64("nan"),
    [1.0, float("nan")], [[0.5, -float("inf")], [1.0, 2.0]],
    {"a": {"b": (2.0, float("inf"))}}, {float("nan"): 1},
], ids=repr)
def test_non_finite_floats_raise_the_oracle_error(bad):
    with pytest.raises(ValueError) as want:
        oracle(bad)
    assert str(want.value).startswith("Out of range float values")
    with pytest.raises(ValueError) as got:
        dump_json(bad)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [{(1, 2): 0}, {np.int64(1): 0}, np.zeros(2), 1j])
def test_unencodable_values_raise_the_oracle_error(bad):
    with pytest.raises(TypeError) as want:
        oracle(bad)
    with pytest.raises(TypeError) as got:
        dump_json(bad)
    assert str(got.value) == str(want.value)


def test_written_file_is_the_text_and_a_newline(tmp_path):
    obj = {"Sigma": encode_complex_matrix(np.eye(2) * (0.5 + 1j)), "dim": 2}
    text = dump_json(obj, str(tmp_path / "x.json"))
    assert text == oracle(obj)
    assert (tmp_path / "x.json").read_bytes() == (text + "\n").encode()
