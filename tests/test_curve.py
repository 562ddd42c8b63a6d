"""Closed curve container, length, resampling and CSV round trips."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from shrinker_index import (DiscreteCurve, curve, discrete_length,
                            read_curve, solver, write_curve)
from oracles import reflect_z, resample_uniform, spacing_deviation
from shrinker_index.curve import (CurveFileError, _resample_half,
                                  mirror_points, unfold)
from shrinker_index.metric import segment_distance


def _square(h=0.1):
    return DiscreteCurve(np.array([
        [1.0 + h, h], [1.0 - h, h], [1.0 - h, -h], [1.0 + h, -h]]))


def test_square_length_hand_sum():
    h = 0.1
    sq = _square(h)
    # top/bottom edges: midpoint (1, +-h); side edges: midpoints (1 -+ h, 0)
    top = 2 * h * 0.5 * 1.0 * math.exp(-(1.0 + h * h) / 4.0)
    left = 2 * h * 0.5 * (1 - h) * math.exp(-(1 - h) ** 2 / 4.0)
    right = 2 * h * 0.5 * (1 + h) * math.exp(-(1 + h) ** 2 / 4.0)
    expected = 2 * top + left + right
    assert np.isclose(discrete_length(sq), expected, rtol=1e-14, atol=0)
    # all four Euclidean edges are equal but the weighted spacings are not
    assert spacing_deviation(sq) > 1e-3


def test_length_matches_segment_sum():
    sq = _square()
    pts = sq.points
    total = sum(segment_distance(pts[m], pts[(m + 1) % 4]) for m in range(4))
    assert discrete_length(sq) == pytest.approx(total, rel=1e-15)


def test_reflection_preserves_length_bitwise(pipe):
    crv = pipe.curve(64)
    assert discrete_length(reflect_z(crv)) == discrete_length(crv)


def test_constructor_validation():
    with pytest.raises(ValueError):
        DiscreteCurve(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        DiscreteCurve(np.array([[1.0, 0.0], [2.0, 0.0]]))
    bad = np.ones((4, 2))
    bad[2, 0] = np.nan
    with pytest.raises(ValueError):
        DiscreteCurve(bad)
    neg = np.ones((4, 2))
    neg[1, 0] = -0.5
    with pytest.raises(ValueError):
        DiscreteCurve(neg)


def test_repr_names_the_point_count():
    assert repr(DiscreteCurve(np.ones((5, 2)))) == "DiscreteCurve(M=5)"


def test_resample_idempotent(pipe):
    crv = pipe.curve(128)
    res = resample_uniform(crv, 128)
    assert np.max(np.abs(res.points - crv.points)) < 1e-12


def test_resample_equalizes_nonuniform_circle():
    uu = np.linspace(0.0, 1.0, 256, endpoint=False) ** 1.7
    th = 2.0 * np.pi * uu
    circ = DiscreteCurve(np.column_stack([
        np.sqrt(2) + 0.5 * np.cos(th), 0.5 * np.sin(th)]))
    res = resample_uniform(circ, 256)
    assert spacing_deviation(circ) > 1.0
    assert spacing_deviation(res) < 1e-8
    rel = abs(discrete_length(res) - discrete_length(circ))
    rel /= discrete_length(circ)
    assert rel < 1e-4


def test_resample_changes_point_count(pipe):
    crv = pipe.curve(256)
    res = resample_uniform(crv, 200)
    assert res.M == 200
    assert spacing_deviation(res) < 1e-8
    rel = abs(discrete_length(res) - discrete_length(crv))
    rel /= discrete_length(crv)
    assert rel < 1e-4
    with pytest.raises(ValueError):
        resample_uniform(crv, 2)


def test_resample_refuses_zero_length_segment():
    # a repeated point leaves a segment of length 0, which has no
    # interpolant to place points on
    pts = _square().points
    repeated = DiscreteCurve(np.insert(pts, 1, pts[1], axis=0))
    with pytest.raises(ValueError, match="curve has a zero-length segment"):
        resample_uniform(repeated, 8)


@pytest.mark.parametrize("source", ["seed", "solved"])
@pytest.mark.parametrize("m, m_new", [(64, 64), (64, 101), (65, 65),
                                      (65, 32), (257, 2048), (2048, 2049)])
def test_half_resampling_is_the_mirror_averaged_closed_one(pipe, source, m,
                                                           m_new):
    # on the mirror half the arc ends at the inner axis crossing, where an
    # odd count's crossing segment counts as half; unfolded, the result is
    # the closed resampling averaged with its mirror image
    points = solver.seed_circle(m) if source == "seed" else pipe.curve(
        m).points
    half = _resample_half(points[:m // 2 + 1], m, m_new)
    closed = oracles.resample_points(points, m_new)
    want = 0.5 * (closed + mirror_points(closed))
    assert half.shape == (m_new // 2 + 1, 2)
    assert np.max(np.abs(unfold(half, m_new) - want)) <= 1e-13


def test_csv_round_trip_bitwise(pipe, tmp_path):
    crv = pipe.curve(64)
    path = tmp_path / "curve.csv"
    write_curve(crv, path)
    back = read_curve(path)
    assert np.array_equal(back.points, crv.points)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(points=st.integers(3, 40).flatmap(lambda m: st.tuples(
    arrays(float, m, elements=_POSITIVE), arrays(float, m, elements=_FINITE)
)).map(np.column_stack))
def test_csv_round_trip_bitwise_at_any_exponent(tmp_path_factory, points):
    # r from subnormal to 1.8e308, z of either sign and -0.0: the 17 digits
    # written parse back to the same bits, as they did row by row
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_curve(DiscreteCurve(points), path)
    assert read_curve(path).points.tobytes() == points.tobytes()
    assert oracles.read_curve_per_row(path).tobytes() == points.tobytes()


def _percent_rows(columns, literals):
    """The rows of `curve._text_blocks` written by `%`, one row at a time."""
    row = literals[0] + "".join(
        ("%.17g" if c.dtype.kind == "f" else "%d") + lit
        for c, lit in zip(columns, literals[1:]))
    return "".join(row % cells for cells in zip(*[c.tolist()
                                                   for c in columns]))


def _assert_text_is_percent(columns, literals, rows):
    with mock.patch.object(curve, "_TEXT_ROWS", rows):
        got = "".join(curve._text_blocks(columns, literals))
    want = _percent_rows(columns, literals)
    if got != want:  # name the first rows that differ, not a diff of all
        pairs = zip(got.splitlines(), want.splitlines())
        assert [(g, w) for g, w in pairs if g != w][:5] == []
        assert got == want


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(1, 40))
def test_text_kernel_writes_what_percent_writes(data, n):
    # any float64, from hypothesis and from raw 64-bit patterns (NaN and
    # infinities among them), either sign, and ints across 10^8
    ints = data.draw(arrays(np.int64, n, elements=st.integers(0, 10 ** 9)),
                     label="ints")
    floats = data.draw(arrays(float, n, elements=_FINITE), label="floats")
    bits = data.draw(arrays(np.uint64, n), label="bits").view(float)
    # seven rows to a block, so that the rows cross block boundaries
    _assert_text_is_percent([ints, floats, bits], ["v ", ",", " ", "\n"], 7)


def test_text_kernel_pinned_cases():
    powers = 10.0 ** np.arange(-12, 18)
    # ties at the 17th digit in each decade of the fast path: j 5^k has 18
    # digits, the last a 5 for odd j
    ties = [(-(-10 ** 17 // 5 ** k) + np.arange(100)) / 2.0 ** k
            for k in range(3, 22)]
    floats = np.concatenate(ties + [
        np.arange(1, 2 ** 18) / 2 ** 18,
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [1e-5, 9.9999999999999995e-5, 1e-4, 1e15, 1e16, 1e17, 0.0, 5e-324,
         2.0 ** 53 - 1, 2.0 ** 53 + 1, np.finfo(float).max]])
    floats = np.concatenate([floats, -floats])
    _assert_text_is_percent([floats], ["", "\n"], 4096)
    ints = np.array([0, 1, 9, 10, 9999, 10000, 99999999, 10 ** 8, 10 ** 9,
                     2 ** 62, -7, -10 ** 9])
    _assert_text_is_percent([ints, ints[::-1]], ["f ", " ", "\n"], 7)


@pytest.mark.parametrize("text", [
    "m,r,z\n\n0,1.0,0.0\n   \n1,1.1,0.1\n\t\n2,1.0,-0.2\n\n",
    "m,r,z\r\n0,1.0,0.0\r\n1,1.1,0.1\r\n\r\n2,1.0,-0.2\r\n",
    "m,r,z\r0,1.0,0.0\r1,1.1,0.1\r2,1.0,-0.2",
    "  m,r,z \n 0 , 1.0 ,0.0\t\n+1,+1.1, 0.1\n2,1e0,-2e-1  \n",
], ids=["blank-lines", "crlf", "cr", "spaces"])
def test_read_curve_reads_each_layout_as_row_by_row(tmp_path, text):
    path = tmp_path / "curve.csv"
    path.write_bytes(text.encode("utf-8"))
    points = read_curve(path).points
    assert points.tobytes() == oracles.read_curve_per_row(path).tobytes()
    assert points.tobytes() == np.array(
        [[1.0, 0.0], [1.1, 0.1], [1.0, -0.2]]).tobytes()


def test_read_curve_refuses_underscored_numbers(tmp_path):
    # Python's int and float accept "1_0"; numpy's parser does not, so such
    # a row is malformed
    path = tmp_path / "curve.csv"
    path.write_text("m,r,z\n0,1.0,0.0\n1,1_0,0.1\n2,1.0,0.2\n")
    assert oracles.read_curve_per_row(path)[1, 0] == 10.0
    with pytest.raises(CurveFileError) as err:
        read_curve(path)
    assert str(err.value) == "malformed row %r in %s" % ("1,1_0,0.1", path)


def test_read_curve_refuses_a_file_without_rows(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("m,r,z\n\n  \n")
    assert oracles.read_curve_per_row(path).size == 0
    with pytest.raises(CurveFileError) as err:
        read_curve(path)
    assert str(err.value) == (
        "invalid curve in %s: a closed curve needs at least 3 points" % path)


def test_read_curve_errors(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("r,z,m\n0,1,0\n")
    with pytest.raises(CurveFileError):
        read_curve(path)

    # a wrong field count and a bad number give the same message
    for body, row in [("0,1.0\n", "0,1.0"),
                      ("0,1.0,0.0,7\n", "0,1.0,0.0,7"),
                      ("0,1.0,0.0\n1.5,1.0,0.1\n", "1.5,1.0,0.1"),
                      ("0,1.0,0.0\n1,not_a_number,0.1\n2,1.0,0.2\n",
                       "1,not_a_number,0.1")]:
        path.write_text("m,r,z\n" + body)
        with pytest.raises(CurveFileError) as err:
            read_curve(path)
        assert str(err.value) == "malformed row %r in %s" % (row, path)

    # indices must run 0..M-1 in order
    path.write_text("m,r,z\n0,1.0,0.0\n2,1.1,0.1\n1,1.0,0.2\n")
    with pytest.raises(CurveFileError) as err:
        read_curve(path)
    assert str(err.value) == "row indices must run 0..M-1 in %s" % path

    # structurally valid file holding an invalid curve (r <= 0)
    path.write_text("m,r,z\n0,1.0,0.0\n1,-1.0,0.1\n2,1.0,0.2\n")
    with pytest.raises(ValueError):
        read_curve(path)
