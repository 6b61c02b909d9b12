"""Dataset ingestion.

Three on-disk formats, named by :data:`FORMATS` as the CLI's ``--format``
names them, map to a :class:`WeightedHistogramSet`:

* ``csv`` -- one histogram per row; an optional first column
  ``weight:<value>`` carries the row weight (all rows or none).  An
  unweighted file is read in one vectorised parse; a weighted file, or one
  that parse rejects, is read cell by cell, which gives the same numbers
  and reports the first bad cell as ``path:line:col``.
* ``json`` -- ``{"histograms": [[...], ...], "weights": [...]}`` with the
  weights key optional.
* ``pgm-dir`` -- binary 8-bit grayscale (P5); every image becomes one
  256-bin intensity histogram on the 0..255 scale, whatever its
  ``maxval``; header comments may sit anywhere between tokens.  The path
  is a directory, which ingests every ``*.pgm`` inside, or a single image.

Missing weights default to uniform; explicit weights are normalized to sum
to one.  Empty bins are smoothed with a small epsilon, whose scale only
the ``JEFFREYS_EPSILON`` environment variable overrides, and data declared as
frequency histograms must already sum to one per row, except PGM counts,
which are normalized after smoothing.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .histograms import DEFAULT_EPSILON_SCALE, RENORMALIZE_ATOL, WeightedHistogramSet, smooth_bins

FORMAT_CSV = "csv"
FORMAT_JSON = "json"
FORMAT_PGM = "pgm-dir"
FORMATS = (FORMAT_CSV, FORMAT_JSON, FORMAT_PGM)

KIND_POSITIVE = "positive"
KIND_FREQUENCY = "frequency"
KINDS = (KIND_POSITIVE, KIND_FREQUENCY)

EPSILON_ENV = "JEFFREYS_EPSILON"

_WEIGHT_PREFIX = "weight:"

# A comment ends at its newline, so a failed match backtracks in linear time;
# int() refuses over 4,300 digits, hence nine at most.
_PGM_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(rb"P5%s(\d{1,9})%s(\d{1,9})%s(\d{1,9})\s" % ((_PGM_SEP,) * 3))


@dataclass(frozen=True)
class DatasetFile:
    """A parsed dataset and the smoothing scale that its ingestion used."""

    histograms: WeightedHistogramSet
    epsilon_scale: float


def epsilon_scale_from_env() -> float:
    """Smoothing scale: JEFFREYS_EPSILON if set, else the default."""
    raw = os.environ.get(EPSILON_ENV)
    if raw is None:
        return DEFAULT_EPSILON_SCALE
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValidationError(f"{EPSILON_ENV} must be a float, got {raw!r}") from exc
    # NaN fails both comparisons; float() reads "1e400" as inf.
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{EPSILON_ENV} must be positive and finite, got {value!r}")
    return value


def _parse_csv(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse an unweighted CSV file in one vectorised call, or cell by cell.

    ``np.loadtxt``'s number syntax is a subset of ``float()``'s (no
    underscores, no non-ASCII digits, no quotes), so any file it accepts
    gives the per-cell parser's matrix, bit for bit.  Anything it rejects,
    a ``weight:`` column included, is parsed again by
    :func:`_parse_csv_cells`, which owns every rule and every
    ``path:line:col`` message.
    """
    lines = [line for line in Path(path).read_text().split("\n") if line.strip()]
    if lines:
        try:
            # comments=None: with the default "#", "1#" would parse as 1.
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2), None
        except ValueError:
            pass
    return _parse_csv_cells(path)


def _parse_csv_cells(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """The reference CSV parser: ``csv.reader`` and ``float()`` per cell."""
    rows: list[list[float]] = []
    weights: list[float] = []
    has_weights: bool | None = None
    with open(path, newline="") as fh:
        for line_no, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            cells = [cell.strip() for cell in record]
            row_weight = None
            if cells[0].startswith(_WEIGHT_PREFIX):
                try:
                    row_weight = float(cells[0][len(_WEIGHT_PREFIX):])
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}:{line_no}:1: malformed weight {cells[0]!r}"
                    ) from exc
                cells = cells[1:]
            if has_weights is None:
                has_weights = row_weight is not None
            elif has_weights != (row_weight is not None):
                raise ValidationError(
                    f"{path}:{line_no}: weight column must appear on all rows or none"
                )
            values = []
            for col_no, cell in enumerate(cells, start=1):
                try:
                    values.append(float(cell))
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}:{line_no}:{col_no}: malformed value {cell!r}"
                    ) from exc
            if not values:
                raise ValidationError(f"{path}:{line_no}: empty histogram row")
            if rows and len(values) != len(rows[0]):
                raise ValidationError(
                    f"{path}:{line_no}: row has {len(values)} bins, expected {len(rows[0])}"
                )
            rows.append(values)
            if row_weight is not None:
                weights.append(row_weight)
    if not rows:
        raise ValidationError(f"{path}: no histograms found")
    return np.asarray(rows, dtype=np.float64), (np.asarray(weights) if has_weights else None)


def _parse_json(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(payload, dict) or "histograms" not in payload:
        raise ValidationError(f"{path}: expected an object with a 'histograms' key")
    try:
        rows = np.asarray(payload["histograms"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: histograms must be numeric rows") from exc
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
        raise ValidationError(f"{path}: histograms must form a non-empty 2-D array")
    # numpy converts "0.5", true and null to floats; JSON numbers only.
    if not _json_numbers(chain.from_iterable(payload["histograms"])):
        raise ValidationError(f"{path}: histograms must be numeric rows")
    weights = payload.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or not _json_numbers(weights):
            raise ValidationError(f"{path}: weights must be finite and strictly positive")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (rows.shape[0],):
            raise ValidationError(
                f"{path}: weights length {weights.size} does not match {rows.shape[0]} histograms"
            )
    return rows, weights


def _json_numbers(values) -> bool:
    """True when every value is a JSON number: no string, boolean or null."""
    return set(map(type, values)) <= {int, float}


def read_pgm(path: Path) -> np.ndarray:
    """Read a binary 8-bit PGM (P5) image into a flat array of pixel values.

    The header is Netpbm's: ``P5``, width, height and maxval in ASCII
    decimal digits, separated by whitespace or ``#`` comments that run to
    the end of their line and may start anywhere, even against a token;
    exactly one whitespace byte follows maxval.  Pixels are rescaled from
    ``0..maxval`` to ``0..255`` (rounded to nearest), so images of one
    scene at different ``maxval`` give the same histogram; a pixel above
    ``maxval`` is rejected.
    """
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValidationError(f"{path}: not a binary PGM: expected P5, width, height and maxval")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise ValidationError(f"{path}: invalid PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ValidationError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    raster = data[header.end() : header.end() + width * height]
    if len(raster) != width * height:
        raise ValidationError(f"{path}: PGM raster truncated")
    pixels = np.frombuffer(raster, dtype=np.uint8)
    if pixels.max() > maxval:
        raise ValidationError(f"{path}: pixel value {pixels.max()} exceeds maxval {maxval}")
    return ((pixels.astype(np.uint16) * 255 + maxval // 2) // maxval).astype(np.uint8)


def _parse_pgm(path: Path) -> tuple[np.ndarray, None]:
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.pgm"))
        if not files:
            raise ValidationError(f"{path}: directory contains no .pgm files")
    else:
        files = [p]
    rows = np.vstack([np.bincount(read_pgm(f), minlength=256) for f in files]).astype(np.float64)
    return rows, None


def load_dataset(path, format: str, kind: str) -> DatasetFile:
    """Parse a dataset file into a weighted histogram set.

    Empty bins are smoothed with the scale from ``JEFFREYS_EPSILON`` (or the
    default), which the returned :class:`DatasetFile` reports.
    """
    if format not in FORMATS:
        raise ValidationError(f"unknown format {format!r}; choose from {FORMATS}")
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; choose from {KINDS}")
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{path}: no such file or directory")
    eps = epsilon_scale_from_env()

    parser = {FORMAT_CSV: _parse_csv, FORMAT_JSON: _parse_json, FORMAT_PGM: _parse_pgm}[format]
    rows, weights = parser(p)
    if np.any(rows < 0.0) or not np.all(np.isfinite(rows)):
        raise ValidationError(f"{path}: bins must be finite and non-negative")

    if kind == KIND_FREQUENCY and format != FORMAT_PGM:
        # Counts from images are normalized below; tabular data declared
        # as frequency must already be on the simplex.
        sums = rows.sum(axis=1)
        off = np.flatnonzero(np.abs(sums - 1.0) > RENORMALIZE_ATOL)
        if off.size:
            raise ValidationError(
                f"{path}: histogram {off[0]} declared frequency but sums to {float(sums[off[0]])!r}"
            )
    rows = smooth_bins(rows, eps)
    if kind == KIND_FREQUENCY:
        rows = rows / rows.sum(axis=1, keepdims=True)

    if weights is not None:
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ValidationError(f"{path}: weights must be finite and strictly positive")
        weights = weights / weights.sum()

    histograms = WeightedHistogramSet(rows, weights, frequency=kind == KIND_FREQUENCY)
    return DatasetFile(histograms=histograms, epsilon_scale=eps)
