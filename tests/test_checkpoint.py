import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgen import checkpoint as ckpt
from mvgen import pgmio
from mvgen import tokenizer as tok
from mvgen.numerics import Parameter
from mvgen.tokenizer import TokenizerConfig


def test_roundtrip_bit_exact_float32(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "layer.w": rng.normal(size=(6, 4)).astype(np.float32),
        "layer.b": rng.normal(size=(4,)).astype(np.float32),
        "scalar": np.array(3.0, dtype=np.float32),
    }
    config = {"kind": "test", "nested": {"a": [1, 2, 3]}, "flag": True}
    path = tmp_path / "model.mvckpt"
    ckpt.write_checkpoint(path, config, arrays)
    got_config, got_arrays = ckpt.read_checkpoint(path)
    assert got_config == config
    for name, arr in arrays.items():
        assert got_arrays[name].dtype == np.float32
        assert np.array_equal(got_arrays[name].reshape(-1), arr.reshape(-1))


def test_header_layout():
    blob = ckpt.encode_checkpoint({"k": 1}, {"x": np.zeros((2, 3), dtype=np.float32)})
    assert blob[:6] == b"MVCKPT"
    assert int.from_bytes(blob[6:10], "little") == 1
    header_len = int.from_bytes(blob[10:18], "little")
    header = blob[18:18 + header_len]
    assert b'"sections"' in header and b'"config"' in header
    assert len(blob) == 18 + header_len + 2 * 3 * 4


def test_section_offsets_respected():
    arrays = {"a": np.arange(4, dtype=np.float32), "b": np.arange(6, dtype=np.float32) + 10}
    config, got = ckpt.decode_checkpoint(ckpt.encode_checkpoint({}, arrays))
    assert np.array_equal(got["a"], arrays["a"])
    assert np.array_equal(got["b"], arrays["b"])


def test_float64_payload_truncates_to_float32():
    value = np.array([1.0 + 1e-12])
    _, got = ckpt.decode_checkpoint(ckpt.encode_checkpoint({}, {"v": value}))
    assert got["v"].dtype == np.float32
    assert got["v"][0] == np.float32(1.0 + 1e-12)


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        ckpt.decode_checkpoint(b"NOTCKPT" + b"\x00" * 32)


def test_encoding_deterministic():
    arrays = {"w": np.ones((2, 2), dtype=np.float32)}
    config = {"b": 2, "a": 1}
    assert ckpt.encode_checkpoint(config, arrays) == ckpt.encode_checkpoint(config, arrays)


def test_checkpoint_hash_stable(tmp_path):
    path = tmp_path / "c.mvckpt"
    ckpt.write_checkpoint(path, {"x": 1}, {"w": np.zeros(3, dtype=np.float32)})
    assert ckpt.checkpoint_hash(path) == ckpt.checkpoint_hash(path)


def _blob():
    return ckpt.encode_checkpoint({"kind": "test"}, {"w": np.arange(6, dtype=np.float32)})


def _with_header(header, payload=bytes(24)) -> bytes:
    """An MVCKPT blob whose header is `header`, valid or not, over payload."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    return b"MVCKPT" + (1).to_bytes(4, "little") + len(text).to_bytes(8, "little") + text + payload


def _section(**entry):
    return _with_header({"config": {}, "sections": [{"name": "w", "shape": [6], "offset": 0,
                                                     **entry}]})


@pytest.mark.parametrize("blob,needle", [
    (b"garbage\n", "not an MVCKPT"),
    (b"MVCKPT" + (2).to_bytes(4, "little") + bytes(8), "version 2"),
    (_blob()[:30], "header of 75 bytes"),
    (_blob()[:-4], "runs past the end"),
    (b"MVCKPT" + (1).to_bytes(4, "little") + (3).to_bytes(8, "little") + b"{x}", "header"),
    (_with_header({"config": {}, "sections": [{"name": "w", "offset": 0}]}),
     "malformed checkpoint section"),
    (_with_header({"config": {}, "sections": 5}), "section list"),
    (_section(shape=[-6]), "malformed checkpoint section"),
    (_section(shape="6"), "malformed checkpoint section"),
    (_section(shape=[6.0]), "malformed checkpoint section"),
    (_section(offset=-2), "malformed checkpoint section"),
    (_with_header({"config": [], "sections": []}), "config object"),
    (_with_header(b"[" * 100_000), "unreadable checkpoint header"),
], ids=["bad-magic", "bad-version", "short-header", "short-payload", "bad-json",
        "no-shape", "sections-not-a-list", "negative-shape", "string-shape", "float-shape",
        "negative-offset", "config-not-an-object", "deep-json"])
def test_unreadable_checkpoint_raises_artifact_error(blob, needle):
    with pytest.raises(ckpt.ArtifactError, match=needle):
        ckpt.decode_checkpoint(blob)
    assert issubclass(ckpt.ArtifactError, ValueError)


def test_read_names_the_file_and_missing_section_is_artifact_error(tmp_path):
    path = tmp_path / "short.mvckpt"
    path.write_bytes(_blob()[:-4])
    with pytest.raises(ckpt.ArtifactError, match="short.mvckpt"):
        ckpt.read_checkpoint(path)
    _, arrays = ckpt.decode_checkpoint(_blob())
    with pytest.raises(ckpt.ArtifactError, match="no section 'b'"):
        arrays["b"]


def test_load_model_rejects_wrong_kind(tmp_path):
    path = tmp_path / "c.mvckpt"
    ckpt.write_checkpoint(path, {"kind": "prior"}, {"x": np.zeros(2)})
    with pytest.raises(ckpt.ArtifactError, match="holds a prior, not a tokenizer"):
        ckpt.load_model(path, "tokenizer", TokenizerConfig)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(0, len(_blob())).map(lambda n: _blob()[:n]),
    st.tuples(st.integers(0, len(_blob()) - 1), st.integers(0, 255)).map(
        lambda t: _blob()[:t[0]] + bytes([t[1]]) + _blob()[t[0] + 1:]),
    st.fixed_dictionaries({}, optional={
        "config": st.one_of(st.none(), st.integers(), st.lists(st.integers(), max_size=2),
                            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)),
        "sections": st.one_of(st.integers(), st.text(max_size=3), st.lists(st.one_of(
            st.integers(), st.fixed_dictionaries({}, optional={
                "name": st.one_of(st.text(max_size=3), st.integers(), st.none()),
                "shape": st.one_of(st.lists(st.integers(-2, 2**40), max_size=3),
                                   st.text(max_size=2), st.integers(), st.floats()),
                "offset": st.one_of(st.integers(-8, 2**62), st.floats(), st.text(max_size=2)),
            })), max_size=3)),
    }).map(_with_header)))
def test_decode_checkpoint_parses_or_raises_artifact_error(blob):
    try:
        config, arrays = ckpt.decode_checkpoint(blob)
    except ckpt.ArtifactError:
        return
    assert isinstance(config, dict)
    assert all(arr.dtype == np.float32 for arr in arrays.values())


@pytest.mark.parametrize("write", [
    lambda path, v: ckpt.write_checkpoint(path, {"step": v + 1},
                                          {"w": np.full(64, v, dtype=np.float32)}),
    lambda path, v: pgmio.write_pgm(path, np.full((8, 8), float(v))),
    lambda path, v: tok.write_token_stream(path, tok.TokenPyramid((np.full((4, 4), v),)), 2),
], ids=["checkpoint", "pgm", "mvtk"])
def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch, write):
    """Every artifact writer replaces the old file only with a complete new one."""
    path = tmp_path / "c.out"
    write(path, 0)
    before = path.read_bytes()

    class HalfFile(io.FileIO):
        def write(self, data):
            super().write(data[:len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(ckpt, "open", HalfFile, raising=False)
    with pytest.raises(OSError, match="no space"):
        write(path, 1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.out"]


def test_section_of_the_wrong_shape_is_artifact_error():
    params = {"w": Parameter(np.zeros((2, 3)))}
    with pytest.raises(ckpt.ArtifactError, match=r"'w' has shape \(3, 3\), the model expects \(2, 3\)"):
        ckpt.load_params(params, {"w": np.zeros((3, 3))}, np.float64)
    arrays = {"w": np.ones((2, 3)), "opt.w.m": np.zeros(6), "opt.w.v": np.zeros((2, 3)),
              "opt.w.step": np.array([4.0])}
    with pytest.raises(ckpt.ArtifactError, match="'opt.w.m' has shape"):
        ckpt.load_params(params, arrays, np.float64)
    arrays["opt.w.m"] = np.zeros((2, 3))
    ckpt.load_params(params, arrays, np.float64)
    assert params["w"].values.sum() == 6.0 and params["w"].step == 4
