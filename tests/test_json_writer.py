"""`cli._json_blocks` writes exactly the bytes of the stdlib's indenting encoder, in pieces that follow the value."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbattery.cli as cli
import qbattery.moments as moments
from qbattery.cli import _json_blocks, _json_bytes, main
from qbattery.operators import DensityMatrix, HermitianOperator, to_matrix_literal


def stdlib_bytes(obj, default=None) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True, default=default) + "\n").encode()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
               float("nan"), float("inf"), -float("inf"), 0.1, 1e16, 1e-7, -2.5]

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
scalars = (floats | st.integers() | st.booleans() | st.none()
           | st.text(st.characters(codec="utf-8"), max_size=8))
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=40,
)
float_lists = st.lists(floats, max_size=20) | st.lists(st.lists(floats, max_size=8), max_size=4)


@settings(max_examples=300, deadline=None)
@given(values)
def test_bytes_equal_the_stdlib_encoder(obj):
    assert _json_bytes(obj) == stdlib_bytes(obj)


@settings(max_examples=200, deadline=None)
@given(float_lists)
def test_float_lists_equal_the_stdlib_encoder(obj):
    assert _json_bytes(obj) == stdlib_bytes(obj)
    assert _json_bytes({"m": obj}) == stdlib_bytes({"m": obj})


@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], {"a": {}}, [1.0, 2, True, None, "x"], [True, 1.5], [1.5, "é"],
    {"ünï": "☃\n\t\"\\", "b": [1.0, float("nan")]}, {1: "a", 2: "b"}, {2.5: 1}, {None: 0},
    {True: 1, False: 0}, 10**40, -(10**40), "\x00\x1f\x7f ",
])
def test_edge_values(obj):
    assert _json_bytes(obj) == stdlib_bytes(obj)


JSON_SCALARS = [0, 1, -1, 7, 2**63, -(2**64), 10**40, True, False, None]


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("scalar", JSON_SCALARS, ids=repr)
def test_ints_bools_and_none_at_each_depth(monkeypatch, scalar, depth):
    # written by _json_text itself, not the stdlib fallback: alone, in lists
    # and tuples, among floats, and as dict values at each nesting depth
    obj = scalar
    for level in range(depth):
        obj = [obj, 1.5] if level % 2 else {"k": obj, "a": (obj,), "z": [2.5, obj]}
    want = stdlib_bytes(obj)
    monkeypatch.setattr(cli.json, "dumps", None)
    assert _json_bytes(obj) == want


@pytest.mark.parametrize("obj", [object(), [1.0, object()], {(1, 2): 3}, {1: 1, "a": 2}])
def test_rejects_what_the_stdlib_rejects(obj):
    with pytest.raises(TypeError):
        stdlib_bytes(obj)
    with pytest.raises(TypeError):
        _json_bytes(obj)


@pytest.mark.parametrize("argv", [
    ["verify", "--dims", "2,2,4,4", "--ensemble", "ginibre", "--rank", "4", "--trials", "8"],
    ["verify", "--dims", "2,2,1,1", "--trials", "50", "--format", "csv"],
    ["evolve", "--config", "exchange", "--format", "json"],
    ["search", "--mode", "saturation", "--dims", "2,1,1,1", "--budget", "400", "--restarts", "2"],
    ["demo", "--case", "saturating", "--format", "json"],
])
def test_payloads_and_manifests_equal_the_stdlib_encoder(tmp_path, monkeypatch, argv):
    written = []
    real = cli._json_blocks

    def checked(obj):
        out = b"".join(real(obj))
        written.append(out == stdlib_bytes(obj, default=to_matrix_literal))
        return iter([out])

    monkeypatch.setattr(cli, "_json_blocks", checked)
    main(argv + ["--out", str(tmp_path / "out.json")])
    assert written == [True, True]  # the payload, then its manifest


def test_a_verify_manifest_is_written_without_the_stdlib(tmp_path, monkeypatch):
    # its "input_digests" is {}, which is written as "{}", as every empty
    # list, tuple or dict is, and not by json.dumps
    encoded = []
    real = cli._json_blocks
    monkeypatch.setattr(cli, "_json_blocks", lambda obj: encoded.append(obj) or real(obj))
    main(["verify", "--dims", "2,2,1,1", "--trials", "5", "--out", str(tmp_path / "v.json")])
    manifest = encoded[-1]
    assert manifest["subcommand"] == "verify" and manifest["input_digests"] == {}
    want = stdlib_bytes(manifest)
    calls = []
    dumps = cli.json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda *args, **kwargs: calls.append(args) or dumps(*args, **kwargs))
    assert _json_bytes(manifest) == want
    assert calls == []


# ---------------------------------------------------------------- checked matrices

EXTREMES = [5e-324, -5e-324, 1e308, -1e308]


@st.composite
def hermitian_matrices(draw):
    """A value-Hermitian matrix (a_ji == conj(a_ij)), wrapped as a checked operator or state.

    GUE draws, or real symmetric ones whose imaginary part is all +0.0; then
    some entry pairs set to zeros of either sign in either triangle, or to
    +-5e-324 and +-1e308.
    """
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    if draw(st.booleans()):
        m = a + 1j * rng.standard_normal((n, n))
        m = (m + m.conj().T) / 2.0
    else:
        m = ((a + a.T) / 2.0).astype(complex)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        part = draw(st.sampled_from(["real", "imag"]))
        if draw(st.booleans()):  # a zero in each triangle, each of either sign
            upper, lower = draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0]))
        elif part == "imag" and i == j:
            continue  # a diagonal entry is real
        else:
            upper = draw(st.sampled_from(EXTREMES))
            lower = upper if part == "real" else -upper
        getattr(m, part)[i, j], getattr(m, part)[j, i] = upper, lower
    assert (m == m.conj().T).all()
    return draw(st.sampled_from([HermitianOperator, DensityMatrix])).wrap_checked(m)


nested_matrices = st.recursive(
    hermitian_matrices() | floats | st.integers(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(nested_matrices)
def test_hermitian_matrices_equal_the_stdlib_encoder(obj):
    assert _json_bytes(obj) == stdlib_bytes(obj, default=to_matrix_literal)


@pytest.mark.parametrize("mat", [
    np.array([[1.0, 2.0 + 1j], [2.0 + 1j, 3.0]]),  # not Hermitian
    np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]]),  # nearly Hermitian
    np.array([[1.0, float("nan")], [float("nan"), 3.0]]),
    np.array([[float("inf"), 0.0], [0.0, 1.0]]),
    np.array([[0.5j]]),  # an imaginary diagonal
], ids=["non-hermitian", "nearly", "nan", "inf", "imaginary-diagonal"])
def test_matrices_that_are_not_exactly_hermitian_are_written_in_full(mat):
    obj = {"m": [HermitianOperator.wrap_checked(mat.astype(complex))]}
    assert _json_bytes(obj) == stdlib_bytes(obj, default=to_matrix_literal)


# ---------------------------------------------------------------- pieces

def _d64(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))


def _hermitian64(seed):
    m = _d64(seed)
    return (m + m.conj().T) / 2.0


def _verify_summary(tmp_path, monkeypatch, argv):
    """The summary object `verify` hands the writer."""
    objs = []
    real = cli._json_blocks

    def kept(obj):
        objs.append(obj)
        return real(obj)

    monkeypatch.setattr(cli, "_json_blocks", kept)
    main(["verify", *argv, "--out", str(tmp_path / "o.json")])
    monkeypatch.setattr(cli, "_json_blocks", real)
    return objs[0]


def _nan64():
    m = _hermitian64(3)
    m[5, 7] = m[7, 5] = float("nan")
    return HermitianOperator.wrap_checked(m)


@pytest.mark.parametrize("case", ["hermitian", "state", "non-hermitian", "nan", "floats", "floats-nan",
                                  "summary", "violation"])
def test_blocks_join_to_the_payload_bytes_and_stay_small(tmp_path, monkeypatch, case):
    # a D = 64 matrix is about 175 kB of text, written a row (about 1.7 kB) at
    # a time, so no piece of a payload is a copy of the whole. A list of
    # scalars is one piece however long it is: no payload holds a long one
    if case == "hermitian":
        obj = {"v": HermitianOperator.wrap_checked(_hermitian64(1))}
    elif case == "state":
        q = _d64(2)[:, :4]
        obj = [DensityMatrix.from_factor(q / np.linalg.norm(q))]
    elif case == "non-hermitian":  # to_matrix_literal's dict, through the generic route
        obj = {"m": HermitianOperator.wrap_checked(_d64(4))}
    elif case == "nan":  # to_matrix_literal's dict, each NaN by the stdlib
        obj = {"a": [1.5, {"m": _nan64()}]}
    elif case == "floats":
        obj = {"x": np.random.default_rng(5).standard_normal(20000).tolist()}
    elif case == "floats-nan":  # a NaN after many floats
        obj = np.random.default_rng(6).standard_normal(9000).tolist() + [float("nan")]
    elif case == "summary":
        obj = _verify_summary(tmp_path, monkeypatch, ["--dims", "2,2,4,4", "--trials", "17"])
    else:
        # every row whose saturation ratio is above 0 fails: the worst case nests an "instance"
        *rest, (stage, residual, _, message) = moments._CHECKS
        assert "saturation ratio" in message
        monkeypatch.setattr(moments, "_CHECKS", (*rest, (stage, residual, lambda x: 0.0, message)))
        obj = _verify_summary(tmp_path, monkeypatch, ["--dims", "2,2,4,4", "--trials", "17"])
        assert obj["violations"] > 0 and "instance" in obj["worst_case"]
    blocks = list(_json_blocks(obj))
    want = stdlib_bytes(obj, default=to_matrix_literal)
    assert b"".join(blocks) == _json_bytes(obj) == want
    if not case.startswith("floats"):
        assert len(want) > 100_000 and len(blocks) > 2
        assert max(map(len, blocks)) <= 4 * 1024  # one matrix row's text at most
