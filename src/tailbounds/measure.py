"""Discrete probability measures, reproducible samplers, and grid quantization."""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError
from .space import (
    PNormSpace,
    ROLE_PRIMAL,
    ROLES,
    exponent_from_json,
    exponent_to_json,
    p_norm_rows,
)

WEIGHT_SUM_TOL = 1e-12

GAUSSIAN = "gaussian"
UNIFORM_BALL = "uniform-ball"
SYMMETRIC_ATOMS = "symmetric-atoms"
FAMILIES = (GAUSSIAN, UNIFORM_BALL, SYMMETRIC_ATOMS)

_UINT64_MASK = (1 << 64) - 1
_CHUNK_DRAWS = 256  # draws made whole from one generator key
_BLOCK_ATOMS = 256  # atoms written per string by _measure_json
_BLOCK_CHARS = 2**16  # text of atoms or weights parsed per json.loads call by load_measure
_JSON_SPACE = re.compile(r"[ \t\n\r]*")  # json's whitespace: str.strip also takes \x0c
_DECODER = json.JSONDecoder()


def _slices(terms: np.ndarray):
    """Slices adding up to `terms` exactly, each summing exactly along the last axis.

    q = (t + sigma) - sigma with sigma = 1.5 * 2**k rounds t to the grid
    ulp(sigma); k is set by the row's largest |t| and its length, so q and
    t - q are exact and no partial sum of q is rounded (Demmel & Nguyen,
    "Fast reproducible floating-point summation", ARITH 2013).
    """
    headroom = max(1, (terms.shape[-1] - 1).bit_length() - 1)  # 2**(headroom+1) >= length
    top = np.abs(terms).max(axis=-1, initial=0.0, keepdims=True)
    if not np.all(top < 2.0 ** (1022 - headroom)):  # t + sigma must not overflow
        raise ValueError(f"terms must be finite and below 2**{1022 - headroom} to sum exactly")
    rest = terms.copy()
    while True:
        sigma = np.ldexp(1.5, np.frexp(top)[1] + headroom)
        q = rest + sigma
        q -= sigma
        yield q
        rest -= q
        top = np.maximum(rest.max(axis=-1, keepdims=True), -rest.min(axis=-1, keepdims=True))
        if not top.any():
            return


def _rounded(table: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each column of a table of exact values."""
    if len(table) <= 2:
        return table.sum(axis=0)  # one rounding of at most two values
    return np.array([math.fsum(column) for column in table.T.tolist()])


def _exact_sum(terms):
    """Correctly rounded sum along the last axis: math.fsum of each row's terms.

    `terms` is an array, or an iterable of its blocks along the last axis.
    Every slice sum is exact and all are rounded once, so the order of the
    terms does not matter.
    """
    blocks = [terms] if isinstance(terms, np.ndarray) else terms
    partials = [q.sum(axis=-1) for block in blocks for q in _slices(np.ascontiguousarray(block))]
    sums = _rounded(np.reshape(partials, (len(partials), -1))).reshape(partials[0].shape)
    return float(sums) if sums.ndim == 0 else sums


def _grid_tails(values: np.ndarray, weights: np.ndarray | None, grid: np.ndarray) -> np.ndarray:
    """The exact tail sums of the weights at every point of an ascending grid.

    In the (K, 2, G) table, [k, 0, j] sums slice k of the weights of values
    >= grid[j] and [k, 1, j] of values > grid[j]; with weights None each value
    counts 1, in one integer row.  Every entry is exact, so the rows of any
    blocks of values stack (or counts add) and _rounded gives each tail.
    """
    order = np.argsort(values)
    ranked = values[order]
    cuts = np.array([ranked.searchsorted(grid, "left"), ranked.searchsorted(grid, "right")])
    if weights is None:
        return (len(values) - cuts)[None]
    heads = np.zeros(len(values) + 1)
    rows = []
    for q in _slices(weights[order]):  # one grid per slice: exact cumsums and differences
        np.cumsum(q, out=heads[1:])
        rows.append(heads[-1] - heads[cuts])
    return np.array(rows)


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure on a p-norm space.

    Atoms are rows of `atoms`; weights are nonnegative and must sum to one
    within WEIGHT_SUM_TOL (no silent renormalization).  A dual-role measure
    lives on the same coordinates but its atoms are functionals, so norms
    are taken in the conjugate exponent.
    """

    space: PNormSpace
    atoms: np.ndarray
    weights: np.ndarray
    role: str = ROLE_PRIMAL

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 2 or atoms.shape[1] != self.space.dim:
            raise ShapeError(
                f"atoms must be (n, {self.space.dim}), got shape {atoms.shape}"
            )
        if atoms.shape[0] < 1:
            raise ValueError("a measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atom coordinates must be finite")
        if weights.shape != (atoms.shape[0],):
            raise ShapeError(
                f"weights must be ({atoms.shape[0]},), got shape {weights.shape}"
            )
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and nonnegative")
        total = _exact_sum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}"
            )
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def exponent(self) -> float:
        return self.space.p if self.role == ROLE_PRIMAL else self.space.q

    def atom_norms(self) -> np.ndarray:
        return p_norm_rows(self.atoms, self.exponent)

    def to_dict(self) -> dict:
        return {
            "dim": self.space.dim,
            "p": exponent_to_json(self.space.p),
            "role": self.role,
            "atoms": self.atoms.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteMeasure":
        missing = {"dim", "p", "role", "atoms", "weights"} - set(data)
        if missing:
            raise ValueError(f"measure object is missing fields: {sorted(missing)}")
        space = PNormSpace(data["dim"], exponent_from_json(data["p"]))
        return cls(space, data["atoms"], data["weights"], data["role"])


def _reprs(values: np.ndarray) -> list:
    """repr of each value in row-major order, each distinct float formatted once.

    Values are told apart by bit pattern, not by ==: -0.0 == 0.0, but the
    two print differently.
    """
    keys, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    table = np.array([repr(value) for value in keys.view(float).tolist()], dtype=object)
    return table[inverse].tolist()


def _measure_json(measure: DiscreteMeasure):
    """Yield the text of json.dumps(measure.to_dict(), indent=2) and a newline.

    json's indenting encoder is pure Python.  Atoms and weights are finite
    floats, whose JSON text is their repr, so they are written into the
    indented layout directly, one %-template string per block of
    _BLOCK_ATOMS atoms, with each distinct float of a block formatted once.
    No list of Python floats is built, which keeps the peak low; quantized
    measures repeat few values, so most reprs are saved.
    """
    space = measure.space
    header = {"dim": space.dim, "p": exponent_to_json(space.p), "role": measure.role}
    atom = "\n    [\n      " + ",\n      ".join(["%s"] * space.dim) + "\n    ]"

    def blocks(values: np.ndarray, item: str):
        for start in range(0, len(values), _BLOCK_ATOMS):
            block = values[start : start + _BLOCK_ATOMS]
            yield ("," if start else "") + ",".join([item] * len(block)) % tuple(_reprs(block))

    yield json.dumps(header, indent=2)[:-2] + ',\n  "atoms": ['
    yield from blocks(measure.atoms, atom)
    yield '\n  ],\n  "weights": ['
    yield from blocks(measure.weights, "\n    %s")
    yield "\n  ]\n}\n"


def save_measure(measure: DiscreteMeasure, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_measure_json(measure))


class _Text:
    """A text file read _BLOCK_CHARS characters at a time: `buf` from `i` is
    what has been read and not yet taken."""

    def __init__(self, fh):
        self.fh, self.buf, self.i, self.eof = fh, "", 0, False

    def more(self, chars: int = 0) -> bool:
        """Read on by _BLOCK_CHARS characters, or by as many blocks as make at
        least `chars`; False at the end of the file."""
        parts, read = [self.buf[self.i :]], 0
        while not self.eof:
            parts.append(self.fh.read(_BLOCK_CHARS))
            read += len(parts[-1])
            self.eof = not parts[-1]
            if read >= chars:
                break
        self.buf, self.i = "".join(parts), 0
        return read > 0

    def space(self) -> None:
        """Take whitespace, reading on while it runs to the end of what was read."""
        while True:
            self.i = _JSON_SPACE.match(self.buf, self.i).end()
            if self.i < len(self.buf) or not self.more():
                return

    def take(self, char: str) -> None:
        """Take whitespace, `char`, which must come next, and the whitespace after it."""
        self.space()
        if not self.buf.startswith(char, self.i):
            raise ValueError(f"expected {char!r}")
        self.i += 1
        self.space()

    def value(self):
        """raw_decode of the next value, reading on while it may run past what was read:
        a number cut after a digit or a '.', 'e', '+' or '-' could go on."""
        while True:
            pending = len(self.buf) - self.i  # doubled per retry: linear in the value
            try:
                value, end = _DECODER.raw_decode(self.buf, self.i)
            except ValueError:
                if self.eof or not self.more(pending):
                    raise
                continue
            if self.eof or (end < len(self.buf) and self.buf[end] not in "0123456789.eE+-"):
                self.i = end
                return value
            self.more(pending)


def _read_array(text: _Text, separator: str) -> np.ndarray:
    """The JSON array at the reader's '[' as a float array, taken whole.

    It ends at its last ']' before the next '"', and is parsed a block of
    about _BLOCK_CHARS characters at a time, cut after a `separator`.  Until
    that '"' has been read, the last ']' read bounds the end from below, so
    the cuts fall where they would in the whole text.  Nonempty blocks that
    all parse make the span one valid JSON array wherever the cuts fall;
    np.concatenate refuses rows of unequal shape.
    """
    text.i += 1
    blocks = []
    while True:
        buf, i = text.buf, text.i
        quote = buf.find('"', i)  # the next key, if the array is not the last value
        if quote == -1 and not text.eof:
            end, bound = -1, buf.rfind("]", i)
        else:
            end = bound = buf.rindex("]", i, len(buf) if quote == -1 else quote)
        cut = buf.find(separator, i + _BLOCK_CHARS, max(bound, 0))
        if cut != -1:
            cut += len(separator) - 1
        elif end == -1:  # no cut nor end read yet: read on, doubling what is held
            text.more(len(buf) - i)
            continue
        else:
            cut = end
        block = np.asarray(json.loads("[" + buf[i:cut] + "]"), dtype=float)
        if not len(block) and (blocks or cut != end):  # a separator without a value
            raise ValueError("empty block")
        blocks.append(block)
        text.i = cut + 1
        if cut == end:
            return np.concatenate(blocks)


def _read_measure_object(fh) -> dict:
    """json.load(fh) of one measure object, its atoms and weights as float arrays."""
    text = _Text(fh)
    text.take("{")
    data = {}
    while True:
        key = text.value()
        if type(key) is not str:
            raise ValueError(f"object key {key!r} is not a string")
        text.take(":")
        if key in ("atoms", "weights") and text.buf.startswith("[", text.i):
            data[key] = _read_array(text, "]," if key == "atoms" else ",")
        else:
            data[key] = text.value()
        text.space()
        if text.buf.startswith("}", text.i):
            text.i += 1
            text.space()
            if text.i < len(text.buf):
                raise ValueError("text after the object")
            return data
        text.take(",")


def load_measure(path) -> DiscreteMeasure:
    """Read a measure file _BLOCK_CHARS characters at a time, its atoms and
    weights parsed a block of rows at a time.

    A text that _read_measure_object does not take is read again from the
    start and goes through json.loads whole, so every error is the one json
    or from_dict gives.
    """
    with open(path) as fh:
        if not fh.seekable():  # a pipe cannot be read again: hold its text
            fh = io.StringIO(fh.read())
        try:
            data = _read_measure_object(fh)
        except (ValueError, TypeError, OverflowError, RecursionError):
            fh.seek(0)
            data = json.loads(fh.read())
    return DiscreteMeasure.from_dict(data)


def second_moment(measure: DiscreteMeasure) -> float:
    """Weighted mean of the squared atom norms (role-appropriate exponent)."""
    return _moment_from_norms(measure.weights, measure.atom_norms())


def _moment_from_norms(weights: np.ndarray, norms: np.ndarray) -> float:
    """sum_i w_i norms_i^2, correctly rounded: second_moment from the atom norms."""
    return _exact_sum(weights * norms**2)


def mean(measure: DiscreteMeasure) -> np.ndarray:
    """sum_i w_i x_i, each coordinate correctly rounded, summed a block of atoms at a time."""
    w, x = measure.weights, measure.atoms
    step = max(256, 2**14 // measure.space.dim)  # atoms per block, as in accumulate_outer
    return _exact_sum(w[i : i + step] * x[i : i + step].T for i in range(0, len(w), step))


def center(measure: DiscreteMeasure) -> DiscreteMeasure:
    """Translate atoms so the mean is zero.  Exactly-centered input is returned as is."""
    m = mean(measure)
    if not m.any():
        return measure
    with np.errstate(over="ignore"):  # an overflow is the measure's own finiteness error
        atoms = measure.atoms - m
    return replace(measure, atoms=atoms)


def empirical(space: PNormSpace, points, role: str = ROLE_PRIMAL) -> DiscreteMeasure:
    """Uniform measure on the given points (kept distinct even if equal)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ShapeError(f"expected a 2-d array of points, got shape {pts.shape}")
    n = pts.shape[0]
    counts = np.ones(n)
    return DiscreteMeasure(space, pts, counts / n, role)


@dataclass(frozen=True, eq=False)
class Sampler:
    """Counter-based sampler: draw(i) depends only on (seed, i), never on order.

    Families:
      * gaussian:        mean + cov_factor @ z, z standard normal,
      * uniform-ball:    uniform on the radius-r p-ball (exact construction
                         from Gamma(1/p) magnitudes and an Exp(1) pad; p = inf
                         is coordinatewise uniform),
      * symmetric-atoms: uniform over {+-a_1, ..., +-a_k}.

    Draws come in chunks: chunk c holds draws 256c to 256c + 255 and is
    always made whole, by numpy's Generator on a Philox keyed [seed, c], so
    draw i is row i mod 256 of chunk i // 256 whatever block it is drawn in.
    Drawing one index alone still makes its whole chunk.  The bits rest on
    numpy's Generator algorithms and float64 operations: they depend on
    (seed, i) for one numpy build, not across builds.
    """

    space: PNormSpace
    family: str
    seed: int = 0
    mean: np.ndarray | None = None
    cov_factor: np.ndarray | None = None
    radius: float = 1.0
    atoms: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        d = self.space.dim
        if self.family == GAUSSIAN:
            m = np.zeros(d) if self.mean is None else np.asarray(self.mean, dtype=float)
            if m.shape != (d,):
                raise ShapeError(f"mean must be ({d},), got {m.shape}")
            f = np.eye(d) if self.cov_factor is None else np.asarray(self.cov_factor, dtype=float)
            if f.ndim != 2 or f.shape[0] != d or f.shape[1] < 1:
                raise ShapeError(f"cov_factor must be ({d}, k) with k >= 1, got {f.shape}")
            object.__setattr__(self, "mean", m)
            object.__setattr__(self, "cov_factor", f)
        elif self.family == UNIFORM_BALL:
            if not (self.radius > 0.0 and math.isfinite(self.radius)):
                raise ValueError(f"radius must be positive, got {self.radius}")
        else:
            if self.atoms is None:
                raise ValueError("symmetric-atoms sampler needs atoms")
            a = np.asarray(self.atoms, dtype=float)
            if a.ndim != 2 or a.shape[1] != d or a.shape[0] < 1:
                raise ShapeError(f"atoms must be (k, {d}) with k >= 1, got {a.shape}")
            object.__setattr__(self, "atoms", a)

    def draw(self, index: int) -> np.ndarray:
        return self.draw_block(index, 1)[0]

    def draw_block(self, start: int, count: int) -> np.ndarray:
        """Draws start to start + count - 1 as the rows of one array (see _blocks)."""
        if start < 0:
            raise ValueError(f"draw index must be nonnegative, got {start}")
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        draws = np.empty((count, self.space.dim))
        at = 0
        for block in self._blocks(start, start + count):
            draws[at : at + len(block)] = block
            at += len(block)
        return draws

    def _blocks(self, start: int, stop: int):
        """Draws start to stop - 1 in order, at most one chunk's rows per block.

        Every chunk is made whole and cut to the range; one Philox and its
        Generator serve all of them, rekeyed per chunk.  A block may be in
        either memory order (a gaussian chunk is column-major).
        """
        # Philox(0) fetches no OS entropy; a key set through its state starts
        # from the fresh counter and buffer that Philox(key=...) would
        bits = np.random.Philox(0)
        state = bits.state
        gen = np.random.Generator(bits)
        for chunk in range(start // _CHUNK_DRAWS, -(-stop // _CHUNK_DRAWS)):
            state["state"]["key"] = np.array([self.seed & _UINT64_MASK, chunk], dtype=np.uint64)
            bits.state = state
            first = chunk * _CHUNK_DRAWS
            lo, hi = max(start, first) - first, min(stop, first + _CHUNK_DRAWS) - first
            yield self._draw_chunk(gen)[lo:hi]

    def _draw_chunk(self, gen: np.random.Generator) -> np.ndarray:
        """The _CHUNK_DRAWS draws of one chunk, made whole from its own generator."""
        d = self.space.dim
        if self.family == GAUSSIAN:
            # mean + cov_factor @ z, summed over the columns of cov_factor in order
            z = gen.standard_normal((self.cov_factor.shape[1], _CHUNK_DRAWS))
            total = self.cov_factor[:, :1] * z[0]
            for j in range(1, len(z)):
                total += self.cov_factor[:, j : j + 1] * z[j]
            return total.T + self.mean
        if self.family == UNIFORM_BALL and self.space.p == math.inf:
            return self.radius * (2.0 * gen.random((_CHUNK_DRAWS, d)) - 1.0)
        if self.family == UNIFORM_BALL:
            # |g_i|^p ~ Gamma(1/p); (g, pad) normalized lands uniformly in the ball
            p = self.space.p
            magnitudes = gen.gamma(1.0 / p, 1.0, (_CHUNK_DRAWS, d))
            signs = 2.0 * gen.integers(0, 2, (_CHUNK_DRAWS, d)) - 1.0
            pad = gen.standard_exponential(_CHUNK_DRAWS)
            scale = (magnitudes.sum(axis=1) + pad) ** (1.0 / p)
            return self.radius * signs * magnitudes ** (1.0 / p) / scale[:, None]
        k = self.atoms.shape[0]
        picks = gen.integers(0, 2 * k, _CHUNK_DRAWS)
        return np.where(picks < k, 1.0, -1.0)[:, None] * self.atoms[picks % k]

    def to_dict(self) -> dict:
        out = {
            "dim": self.space.dim,
            "p": exponent_to_json(self.space.p),
            "family": self.family,
            "seed": self.seed,
        }
        if self.family == GAUSSIAN:
            out["mean"] = self.mean.tolist()
            out["cov_factor"] = self.cov_factor.tolist()
        elif self.family == UNIFORM_BALL:
            out["radius"] = self.radius
        else:
            out["atoms"] = self.atoms.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Sampler":
        missing = {"dim", "p", "family"} - set(data)
        if missing:
            raise ValueError(f"sampler object is missing fields: {sorted(missing)}")
        space = PNormSpace(data["dim"], exponent_from_json(data["p"]))
        return cls(
            space,
            data["family"],
            seed=int(data.get("seed", 0)),
            mean=data.get("mean"),
            cov_factor=data.get("cov_factor"),
            radius=float(data.get("radius", 1.0)),
            atoms=data.get("atoms"),
        )


def load_sampler(path) -> Sampler:
    with open(path) as fh:
        return Sampler.from_dict(json.load(fh))


def grid_indices(points, resolution: float) -> np.ndarray:
    """Round each coordinate toward zero to an integer grid index.

    trunc(x / delta) alone can land past x when x / delta rounds up across an
    integer (e.g. delta = 0.1, x = 1.7: 17 * 0.1 > 1.7), so indices are walked
    back toward zero until |k * delta| <= |x| holds coordinatewise.
    """
    if not (resolution > 0.0 and math.isfinite(resolution)):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    k = np.trunc(pts / resolution)
    over = np.abs(k * resolution) > np.abs(pts)
    while np.any(over):
        k = np.where(over, k - np.sign(k), k)
        over = np.abs(k * resolution) > np.abs(pts)
    if np.any(np.abs(k) > 2.0**62):
        raise ValueError("resolution is too small relative to the data")
    return k.astype(np.int64)


def quantize_points(points, resolution: float) -> np.ndarray:
    """Snap points toward zero onto the resolution grid (coordinatewise)."""
    return grid_indices(points, resolution) * resolution


def quantize(
    sampler: Sampler, n_samples: int, resolution: float, merge: bool = True
) -> DiscreteMeasure:
    """Empirical measure of the first n draws, quantized (see quantize_draws)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    return quantize_draws(sampler.space, sampler.draw_block(0, n_samples), resolution, merge)


def quantize_draws(space, draws, resolution: float, merge: bool = True) -> DiscreteMeasure:
    """Empirical measure of the rows of draws, each snapped to the grid.

    Coincident grid cells are merged by integer index with integer count
    accounting, so weights sum to exactly one after a single final division:
    one lexsort of the index rows, whose runs of equal rows are the cells,
    in the lexicographic (signed int64) order np.unique(axis=0) would give.
    With merge=False atoms stay aligned one-to-one with the rows, which is
    what the coupled two-resolution comparisons need.
    """
    n_samples = draws.shape[0]
    indices = grid_indices(draws, resolution)
    if merge:
        rows = indices[np.lexsort(indices.T[::-1])]  # lexicographic, first column first
        first = np.ones(n_samples, dtype=bool)
        first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
        starts = np.flatnonzero(first)
        atoms = rows[starts] * resolution
        weights = np.diff(starts, append=n_samples) / float(n_samples)
    else:
        atoms = indices * resolution
        weights = np.full(n_samples, 1.0 / n_samples)
    return DiscreteMeasure(space, atoms, weights, ROLE_PRIMAL)
