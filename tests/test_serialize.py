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
