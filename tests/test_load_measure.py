"""load_measure against json: the same measure, or the same error.

The block reader must give every file what the whole-text route,
DiscreteMeasure.from_dict(json.loads(text)), gives it: the same array
bytes, shape, role and space, or an exception of the same type and text.
"""

import io
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

import tailbounds.measure
from tailbounds import DiscreteMeasure, PNormSpace, load_measure, save_measure
from tailbounds.measure import _read_measure_object


def _by_json(path) -> DiscreteMeasure:
    with open(path) as fh:
        return DiscreteMeasure.from_dict(json.loads(fh.read()))


def _outcome(load, path):
    try:
        m = load(path)
    except Exception as exc:  # the error is part of what is compared
        return type(exc), str(exc)
    return (m.atoms.tobytes(), m.atoms.shape, m.weights.tobytes(), m.weights.shape, m.role,
            m.space)


def _takes_fast_path(text: str) -> bool:
    try:
        _read_measure_object(io.StringIO(text))
    except (ValueError, TypeError, OverflowError, RecursionError):
        return False
    return True


class _CountedFile:
    """A text file that records every read: the size asked for and the length read."""

    def __init__(self, fh, sizes: list):
        self.fh, self.sizes = fh, sizes

    def read(self, size=-1):
        text = self.fh.read(size)
        self.sizes.append((size, len(text)))
        return text

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _assert_same(path, data: bytes, monkeypatch=None) -> None:
    """load_measure gives what json gives; with monkeypatch, it also reads
    the file _BLOCK_CHARS characters at a time, and the whole of it at once
    only to hand a text it does not take to json, after it has read it."""
    path.write_bytes(data)
    sizes: list = []
    if monkeypatch is not None:
        monkeypatch.setattr(tailbounds.measure, "open",
                            lambda *args: _CountedFile(open(*args), sizes), raising=False)
    loaded = _outcome(load_measure, path)
    if monkeypatch is not None:
        monkeypatch.delattr(tailbounds.measure, "open")
        block_chars = tailbounds.measure._BLOCK_CHARS
        blocks = sizes[:-1] if sizes[-1][0] == -1 else sizes
        assert blocks and {size for size, _ in blocks} == {block_chars}, sizes[:20]
        assert sizes[-1][0] == -1 or sizes[-1][1] < block_chars  # the whole file was read
    assert loaded == _outcome(_by_json, path), data[:300]


def _measure(n: int, dim: int, seed: int = 0, p=2.0, role="primal") -> DiscreteMeasure:
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n)
    return DiscreteMeasure(PNormSpace(dim, p), rng.standard_normal((n, dim)),
                           weights / weights.sum(), role)


def _bench_text(measure: DiscreteMeasure) -> str:
    """The form the benchmark writes its inputs in: compact json.dumps."""
    return json.dumps(measure.to_dict()) + "\n"


def _saved_text(measure: DiscreteMeasure, tmp_path) -> str:
    save_measure(measure, tmp_path / "saved.json")
    return (tmp_path / "saved.json").read_text()


def _bases(tmp_path) -> list:
    integral = {"dim": 2, "p": 2.0, "role": "primal",
                "atoms": [[1, 0], [-1, 0], [0, 2], [0, -2]], "weights": [0.25] * 4}
    return [
        _bench_text(_measure(4, 2, seed=1)),
        _saved_text(_measure(3, 2, seed=2), tmp_path),
        json.dumps(integral) + "\n",
        _bench_text(_measure(3, 3, seed=3, p=float("inf"), role="dual")),
    ]


_ALPHABET = list('[]{},:"-+.eE0123456789 \t\n\r\x0caNIfinty') + [
    "NaN", "Infinity", "true", "null", "[]", "[[", "]]", '"atoms": ', "1e400", "\ufeff",
]


def _mutate(text: str, rng) -> str:
    for _ in range(int(rng.integers(1, 3))):
        i = int(rng.integers(0, len(text) + 1))
        j = min(len(text), i + int(rng.integers(1, 12)))
        kind = int(rng.integers(0, 5))
        if kind == 0:  # delete a span
            text = text[:i] + text[j:]
        elif kind == 1:  # insert a token
            text = text[:i] + str(rng.choice(_ALPHABET)) + text[i:]
        elif kind == 2:  # replace one character
            text = text[:i] + str(rng.choice(_ALPHABET)) + text[i + 1 :]
        elif kind == 3:  # repeat a span
            text = text[:j] + text[i:j] + text[j:]
        else:  # truncate
            text = text[:i]
    return text


@pytest.mark.parametrize("block_chars", [2**16, 8])  # one block, or a cut after every value
def test_mutated_documents_load_as_json_loads_them(tmp_path, monkeypatch, block_chars):
    monkeypatch.setattr(tailbounds.measure, "_BLOCK_CHARS", block_chars)
    rng = np.random.default_rng(block_chars)
    path = tmp_path / "m.json"
    for base in _bases(tmp_path):
        assert _takes_fast_path(base)
        fast = 0
        for _ in range(375):
            text = _mutate(base, rng)
            fast += _takes_fast_path(text)
            _assert_same(path, text.encode(), monkeypatch)
        assert fast > 25  # the comparison is not all fallbacks


def _doc(atoms="[[1.0, 0.0], [-1.0, 0.0]]", weights="[0.5, 0.5]",
         head='"dim": 2, "p": 2.0, "role": "primal"') -> str:
    return "{" + head + ', "atoms": ' + atoms + ', "weights": ' + weights + "}\n"


_HAND_WRITTEN = {
    "nan": _doc(atoms="[[NaN, 0.0], [-1.0, 0.0]]"),
    "minus-infinity": _doc(atoms="[[-Infinity, 0.0], [-1.0, 0.0]]"),
    "1e400": _doc(weights="[1e400, 0.5]"),
    "big-int": _doc(atoms="[[1" + "0" * 400 + ", 0.0], [-1.0, 0.0]]"),
    "trailing-dot": _doc(atoms="[[1., 0.0], [-1.0, 0.0]]"),
    "leading-dot": _doc(atoms="[[.5, 0.0], [-1.0, 0.0]]"),
    "plus-sign": _doc(atoms="[[+1, 0.0], [-1.0, 0.0]]"),
    "leading-zero": _doc(atoms="[[01, 0.0], [-1.0, 0.0]]"),
    "string-number": _doc(atoms='[["1.5", 0.0], [-1.0, 0.0]]'),
    "string-weight": _doc(weights='["0.5", 0.5]'),
    "true-null": _doc(atoms="[[true, null], [-1.0, 0.0]]"),
    "true-false": _doc(atoms="[[true, false], [false, true]]"),
    "ragged": _doc(atoms="[[1.0, 0.0], [-1.0]]"),
    "wrong-dim": _doc(atoms="[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]"),
    "flat-atoms": _doc(atoms="[1.0, 0.0, -1.0, 0.0]"),
    "flat-atoms-dim-1": _doc(atoms="[1.0, -1.0]", head='"dim": 1, "p": 2.0, "role": "primal"'),
    "nested-weights": _doc(weights="[[0.5], [0.5]]"),
    "rows-then-numbers": _doc(atoms="[[1.0, 0.0], -1.0, 0.0]"),
    "numbers-then-rows": _doc(atoms="[1.0, 0.0, [-1.0, 0.0]]"),
    "deep-atoms": _doc(atoms="[[[1.0], [0.0]], [[-1.0], [0.0]]]"),
    "object-in-atoms": _doc(atoms='[[1.0, 0.0], {"x": 1}]'),
    "empty-atoms": _doc(atoms="[]"),
    "empty-row": _doc(atoms="[[]]", weights="[1.0]"),
    "empty-weights": _doc(weights="[]"),
    "atoms-not-array": _doc(atoms='"atoms"'),
    "trailing-comma-in-atoms": _doc(atoms="[[1.0, 0.0], [-1.0, 0.0],]"),
    "trailing-comma-in-row": _doc(atoms="[[1.0, 0.0,], [-1.0, 0.0]]"),
    "trailing-comma-in-object": _doc()[:-2] + ",}\n",
    "duplicate-atoms": '{"atoms": [[5.0]], ' + _doc()[1:],
    "duplicate-weights": _doc()[:-2] + ', "weights": [0.25, 0.75]}\n',
    "reordered-keys": '{"weights": [0.5, 0.5], "atoms": [[1.0, 0.0], [-1.0, 0.0]], '
                      '"role": "dual", "p": "inf", "dim": 2}',
    "extra-key": _doc()[:-2] + ', "note": {"atoms": [1, 2], "}": "]"}}\n',
    "missing-role": _doc(head='"dim": 2, "p": 2.0'),
    "missing-weights": '{"dim": 2, "p": 2.0, "role": "primal", "atoms": [[1.0, 0.0]]}',
    "crlf-tab": _doc().replace(", ", ",\r\n\t").replace(": ", "\t:\r\n "),
    "form-feed-between-tokens": _doc().replace(", [-1.0", ",\x0c[-1.0"),
    "form-feed-after-object": _doc() + "\x0c",
    "unicode-space-after-object": _doc() + "\u00a0",
    "trailing-garbage": _doc() + "}",
    "two-objects": _doc() + _doc(),
    "bom": "\ufeff" + _doc(),
    "truncated": _doc()[:-12],
    "empty-file": "",
    "array-document": "[" + _doc() + "]",
    "empty-object": "{}",
    "non-string-key": '{1: 2, ' + _doc()[1:],
    "unclosed-atoms": '{"dim": 2, "p": 2.0, "role": "primal", "weights": [0.5, 0.5], '
                      '"atoms": [[1.0, 0.0}',
    "unclosed-weights": '{"dim": 2, "p": 2.0, "role": "primal", "atoms": [[1.0, 0.0]], '
                        '"weights": [1.0}',
    "bad-dim": _doc(head='"dim": 0, "p": 2.0, "role": "primal"'),
    "bad-p": _doc(head='"dim": 2, "p": "two", "role": "primal"'),
    "weights-off": _doc(weights="[0.5, 0.4]"),
}


@pytest.mark.parametrize("block_chars", [2**16, 8, 1])
@pytest.mark.parametrize("name", sorted(_HAND_WRITTEN))
def test_hand_written_documents_load_as_json_loads_them(tmp_path, monkeypatch, name, block_chars):
    monkeypatch.setattr(tailbounds.measure, "_BLOCK_CHARS", block_chars)
    _assert_same(tmp_path / "m.json", _HAND_WRITTEN[name].encode(), monkeypatch)


def test_non_utf8_byte_fails_as_json_load_does(tmp_path):
    _assert_same(tmp_path / "m.json", _doc().encode().replace(b"0.5", b"0.\xff5", 1))


@pytest.mark.parametrize("name", ["duplicate-atoms", "duplicate-weights", "reordered-keys",
                                  "extra-key", "crlf-tab", "empty-row",
                                  "true-null", "flat-atoms", "nested-weights", "wrong-dim"])
def test_valid_json_of_other_shapes_takes_the_block_reader(name):
    assert _takes_fast_path(_HAND_WRITTEN[name])


def _spy_on_json_loads(monkeypatch) -> list:
    lengths = []
    real = json.loads

    def spy(text, *args, **kwargs):
        lengths.append(len(text))
        return real(text, *args, **kwargs)

    monkeypatch.setattr(tailbounds.measure.json, "loads", spy)
    return lengths


@pytest.mark.parametrize("form", ["bench", "save_measure"])
def test_measures_of_several_blocks_never_parse_the_whole_text(tmp_path, monkeypatch, form):
    measure = _measure(3000, 8, seed=7)
    text = _bench_text(measure) if form == "bench" else _saved_text(measure, tmp_path)
    path = tmp_path / "m.json"
    path.write_text(text)
    lengths = _spy_on_json_loads(monkeypatch)
    loaded = load_measure(path)
    assert len(lengths) > 8 and max(lengths) < 2**17  # atoms and weights both in blocks
    assert loaded.atoms.tobytes() == measure.atoms.tobytes()
    assert loaded.weights.tobytes() == measure.weights.tobytes()
    monkeypatch.undo()
    middle = text.index("[", len(text) // 3) + 1  # the start of a row in a middle block
    last = text.rindex("]")  # the end of the weights
    for damaged in (
        text.replace("],", "]]", 1),  # the first row ends the array
        text[:middle] + "NaN, " + text[middle:],  # a row of 9 in a middle block
        text.replace("]", ", 1.0]", 1),  # a first row of 9: every other block disagrees
        text[:last] + "," + text[last:],  # a trailing comma in the last block
    ):
        _assert_same(path, damaged.encode())


def test_load_measure_peak_is_the_arrays_not_the_file(tmp_path):
    measure = _measure(20_000, 8, seed=11)
    path = tmp_path / "m.json"
    path.write_text(_bench_text(measure))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_measure(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert loaded.atoms.tobytes() == measure.atoms.tobytes()
    # the atom blocks and their concatenation, the weights and two blocks of
    # text: 1.97x the arrays; a read of the whole file took 5.3x
    assert peak < 2.25 * (loaded.atoms.nbytes + loaded.weights.nbytes)


def test_a_pipe_loads_and_fails_as_a_file_does(tmp_path):
    """A pipe cannot be read again from the start, so its text is held."""
    for text in (_doc(), _HAND_WRITTEN["truncated"], _HAND_WRITTEN["extra-key"]):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            piped = _outcome(load_measure, fifo)
        finally:
            writer.join()
            fifo.unlink()
        (tmp_path / "m.json").write_text(text)
        assert piped == _outcome(_by_json, tmp_path / "m.json")


@pytest.mark.parametrize("pad", range(16))
def test_values_cut_by_a_read_take_the_block_reader(monkeypatch, pad):
    """With 8-character reads, every cut through a number, a literal or a
    key falls somewhere in these values; each is read on, not refused."""
    monkeypatch.setattr(tailbounds.measure, "_BLOCK_CHARS", 8)
    text = " " * pad + _doc()[:-2] + (
        ', "n": -12345.678e-3, "m": 1E+22, "t": true, "f": false, "z": null, "x": NaN, '
        '"y": -Infinity, "long key of a small value": 0.000125}\n'
    )
    assert _takes_fast_path(text)
    data = _read_measure_object(io.StringIO(text))
    expected = json.loads(text)
    assert json.dumps({k: v for k, v in data.items() if k not in ("atoms", "weights")}) == (
        json.dumps({k: v for k, v in expected.items() if k not in ("atoms", "weights")})
    )


@pytest.mark.parametrize("long", ["value", "row"])
def test_a_long_value_is_read_on_a_doubling_number_of_times(monkeypatch, long):
    """A value or an atom row longer than a block is read on by doubling
    what is held, so it is copied and decoded O(log length) times."""
    monkeypatch.setattr(tailbounds.measure, "_BLOCK_CHARS", 8)
    calls = []
    real = tailbounds.measure._Text.more

    def more(self, chars=0):
        calls.append(chars)
        return real(self, chars)

    monkeypatch.setattr(tailbounds.measure._Text, "more", more)
    if long == "value":
        text = _doc()[:-2] + ', "note": "' + "x" * 100_000 + '"}\n'
    else:
        row = ", ".join(["1.5"] * 20_000)
        text = _doc(atoms=f"[[{row}]]", weights="[1.0]", head='"dim": 20000, "p": 2.0')
    assert _takes_fast_path(text)
    assert len(calls) < 100
