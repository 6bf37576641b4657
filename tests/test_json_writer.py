"""`cli._json_bytes` writes exactly the bytes of the stdlib's indenting encoder."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbattery.cli as cli
from qbattery.cli import _json_bytes, main


def stdlib_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


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
    real = cli._json_bytes

    def checked(obj):
        out = real(obj)
        written.append(out == stdlib_bytes(obj))
        return out

    monkeypatch.setattr(cli, "_json_bytes", checked)
    main(argv + ["--out", str(tmp_path / "out.json")])
    assert written == [True, True]  # the payload, then its manifest
