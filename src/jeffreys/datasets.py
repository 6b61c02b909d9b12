"""Dataset ingestion: three on-disk formats, named by :data:`FORMATS`.

* ``csv`` -- one histogram per row, with an optional first column
  ``weight:<value>`` on all rows or none (:func:`_parse_csv`).
* ``json`` -- ``{"histograms": [[...], ...], "weights": [...]}`` with the
  weights key optional; JSON numbers only.
* ``pgm-dir`` -- a directory of binary 8-bit grayscale (P5) images, every
  ``*.pgm`` in it, or a single image; each image becomes one 256-bin
  intensity histogram (:func:`read_pgm`).

:func:`load_dataset` maps each to a :class:`WeightedHistogramSet`.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_scale
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
    """Smoothing scale: JEFFREYS_EPSILON if set, else the default; see :func:`check_scale`."""
    raw = os.environ.get(EPSILON_ENV)
    if raw is None:
        return DEFAULT_EPSILON_SCALE
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValidationError(f"{EPSILON_ENV} must be a float, got {raw!r}") from exc
    # float() reads "nan" and "1e400" as numbers, which check_scale rejects.
    return check_scale(EPSILON_ENV, value)


def _parse_csv(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse an unweighted CSV file in one vectorised call, or cell by cell.

    ``np.loadtxt``'s number syntax is a subset of the per-cell parser's
    (:func:`_csv_number`; it also refuses quoted cells), so any file it
    accepts gives the per-cell parser's matrix, bit for bit.  Anything it
    rejects, a ``weight:`` column included, is parsed again by
    :func:`_parse_csv_cells`, which owns every rule and every
    ``path:line:col`` message.
    """
    lines = [line for line in Path(path).read_text(encoding="utf-8").split("\n") if line.strip()]
    if lines:
        try:
            # comments=None: with the default "#", "1#" would parse as 1.
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2), None
        except ValueError:
            pass
    return _parse_csv_cells(path)


def _csv_number(text: str) -> float:
    """``float(text)`` in ``np.loadtxt``'s syntax: no underscore and no non-ASCII character.

    ``float()`` reads ``0_5`` as 5 and ``\u0661`` (ARABIC-INDIC DIGIT ONE)
    as 1; both raise :class:`ValueError` here, as any text ``float()``
    refuses does.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a CSV number: {text!r}")
    return float(text)


def _parse_csv_cells(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """The reference CSV parser: ``csv.reader`` and :func:`_csv_number` per cell."""
    rows: list[list[float]] = []
    weights: list[float] = []
    has_weights: bool | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            cells = [cell.strip() for cell in record]
            row_weight = None
            if cells[0].startswith(_WEIGHT_PREFIX):
                try:
                    row_weight = _csv_number(cells[0][len(_WEIGHT_PREFIX):])
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
                    values.append(_csv_number(cell))
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
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
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

    CSV and JSON files are read as UTF-8; a file that cannot be read or
    decoded raises :class:`ValidationError` (``<path>: cannot read:
    ...``), as does a bin that is negative or not finite.  Missing weights
    are uniform, and explicit ones are normalized to sum to one, also where
    their sum overflows.  Empty bins are smoothed (:func:`smooth_bins`)
    with the scale from ``JEFFREYS_EPSILON``, or the default, which the
    returned :class:`DatasetFile` reports.  Rows of a frequency ``kind``
    must already sum to one, except PGM counts, which are normalized after
    smoothing.
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
    try:
        rows, weights = parser(p)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read: {exc}") from exc
    if np.any(rows < 0.0) or not np.all(np.isfinite(rows)):
        raise ValidationError(f"{path}: bins must be finite and non-negative")

    if kind == KIND_FREQUENCY and format != FORMAT_PGM:
        # Counts from images are normalized below; tabular data declared
        # as frequency must already be on the simplex.
        # A sum past the double range is off the simplex too, without a warning.
        with np.errstate(over="ignore"):
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
        with np.errstate(over="ignore"):
            total = weights.sum()
        if np.isinf(total):
            # Finite weights whose sum overflows: scale by the largest first.
            weights = weights / weights.max()
            total = weights.sum()
        weights = weights / total

    histograms = WeightedHistogramSet(rows, weights, frequency=kind == KIND_FREQUENCY)
    return DatasetFile(histograms=histograms, epsilon_scale=eps)
