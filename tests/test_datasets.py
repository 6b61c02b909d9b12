"""Dataset parsing, smoothing policy, and serialization round trips."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jeffreys import ValidationError, datasets, load_dataset, read_pgm
from jeffreys.datasets import FORMAT_CSV, FORMAT_JSON, FORMAT_PGM, _parse_csv, _parse_csv_cells
from references import write_dataset


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_pgm(path, width, height, pixels, maxval=255, comment=True):
    header = b"P5\n"
    if comment:
        header += b"# synthetic test image\n"
    header += f"{width} {height}\n{maxval}\n".encode()
    path.write_bytes(header + bytes(pixels))
    return path


class TestCSV:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "x.csv", "1,2,3\n4,5,6\n")
        s = load_dataset(p, FORMAT_CSV, "positive").histograms
        assert s.n == 2 and s.d == 3
        assert np.allclose(s.weights, [0.5, 0.5])
        assert np.allclose(s.matrix, [[1, 2, 3], [4, 5, 6]])

    def test_weight_prefix(self, tmp_path):
        p = write(tmp_path, "w.csv", "weight:0.25,1,2\nweight:0.75,3,4\n")
        s = load_dataset(p, FORMAT_CSV, "positive").histograms
        assert np.allclose(s.weights, [0.25, 0.75])

    def test_mixed_weight_rows_rejected(self, tmp_path):
        p = write(tmp_path, "m.csv", "weight:0.25,1,2\n3,4\n")
        with pytest.raises(ValidationError, match="all rows or none"):
            load_dataset(p, FORMAT_CSV, "positive").histograms

    def test_malformed_cell_reports_position(self, tmp_path):
        p = write(tmp_path, "bad.csv", "1,2\n1,zap\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:2:2"):
            load_dataset(p, FORMAT_CSV, "positive").histograms

    def test_ragged_rows_rejected(self, tmp_path):
        p = write(tmp_path, "ragged.csv", "1,2,3\n1,2\n")
        with pytest.raises(ValidationError, match="expected 3"):
            load_dataset(p, FORMAT_CSV, "positive").histograms

    def test_frequency_validation(self, tmp_path):
        good = write(tmp_path, "f.csv", "0.5,0.5\n0.9,0.1\n")
        s = load_dataset(good, FORMAT_CSV, "frequency").histograms
        assert s.frequency
        bad = write(tmp_path, "g.csv", "0.5,0.4\n0.9,0.1\n")
        with pytest.raises(ValidationError, match="declared frequency"):
            load_dataset(bad, FORMAT_CSV, "frequency").histograms

    @pytest.mark.parametrize("text, message", [
        ("0_5,1\n1,2\n", r"x\.csv:1:1: malformed value '0_5'"),
        ("1,2\n\u0661,2\n", r"x\.csv:2:1: malformed value '\u0661'"),
        ("weight:0_5,1,2\nweight:1,1,2\n", r"x\.csv:1:1: malformed weight 'weight:0_5'"),
        ("weight:1,1,2\nweight:\u0661,1,2\n", r"x\.csv:2:1: malformed weight"),
    ])
    def test_number_syntax_is_ascii_without_underscores(self, tmp_path, text, message):
        # float() reads "0_5" as 5 and U+0661 as 1; np.loadtxt reads neither.
        p = tmp_path / "x.csv"
        p.write_bytes(text.encode())
        with pytest.raises(ValidationError, match=message):
            load_dataset(p, FORMAT_CSV, "positive")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt, text", [
        (FORMAT_JSON, json.dumps({"histograms": [[1, 2], [2, 1]], "weights": [1e308, 1e308]})),
        (FORMAT_CSV, "weight:1e308,1,2\nweight:1e308,2,1\n"),
    ])
    def test_weights_whose_sum_overflows(self, tmp_path, fmt, text):
        p = write(tmp_path, f"w.{fmt}", text)
        assert load_dataset(p, fmt, "positive").histograms.weights.tolist() == [0.5, 0.5]

    @pytest.mark.filterwarnings("error")
    def test_frequency_sum_that_overflows_is_rejected_without_a_warning(self, tmp_path):
        p = write(tmp_path, "f.csv", "1e308,1e308\n1,1\n")
        with pytest.raises(ValidationError, match="histogram 0 declared frequency but sums to inf"):
            load_dataset(p, FORMAT_CSV, "frequency")

    def test_zero_bins_smoothed(self, tmp_path):
        p = write(tmp_path, "z.csv", "0,4\n2,2\n")
        s = load_dataset(p, FORMAT_CSV, "positive").histograms
        assert s.matrix[0, 0] == pytest.approx(2e-10)
        assert np.all(s.matrix > 0.0)


class TestJSON:
    def test_with_weights(self, tmp_path):
        payload = {"weights": [0.25, 0.75], "histograms": [[1, 2], [3, 4]]}
        p = write(tmp_path, "d.json", json.dumps(payload))
        s = load_dataset(p, FORMAT_JSON, "positive").histograms
        assert np.allclose(s.weights, [0.25, 0.75])

    def test_without_weights(self, tmp_path):
        p = write(tmp_path, "d.json", json.dumps({"histograms": [[1, 2], [3, 4]]}))
        s = load_dataset(p, FORMAT_JSON, "positive").histograms
        assert np.allclose(s.weights, [0.5, 0.5])

    def test_malformed(self, tmp_path):
        p = write(tmp_path, "d.json", "{nope")
        with pytest.raises(ValidationError, match="malformed JSON"):
            load_dataset(p, FORMAT_JSON, "positive").histograms
        q = write(tmp_path, "e.json", json.dumps({"rows": []}))
        with pytest.raises(ValidationError, match="histograms"):
            load_dataset(q, FORMAT_JSON, "positive").histograms

    @pytest.mark.parametrize("histograms", [
        [["0.5", "0.5"], [0.25, 0.75]],
        [[True, 1], [0.5, 0.5]],
        [[False, 1.0]],
        [[None, 1.0]],
        [[10**400, 1.0]],
    ], ids=["string", "true", "false", "null", "overflow"])
    def test_non_number_bins_rejected(self, tmp_path, histograms):
        p = write(tmp_path, "d.json", json.dumps({"histograms": histograms}))
        with pytest.raises(ValidationError, match="histograms must be numeric rows"):
            load_dataset(p, FORMAT_JSON, "positive")

    @pytest.mark.parametrize("weights", [["1", 1], [True, 1], [None, 1], "1", [[1], [1]]])
    def test_non_number_weights_rejected(self, tmp_path, weights):
        payload = {"histograms": [[1, 2], [3, 4]], "weights": weights}
        p = write(tmp_path, "d.json", json.dumps(payload))
        with pytest.raises(ValidationError, match="weights must be finite and strictly positive"):
            load_dataset(p, FORMAT_JSON, "positive")

    def test_non_positive_weight(self, tmp_path):
        payload = {"weights": [0.0, 1.0], "histograms": [[1, 2], [3, 4]]}
        p = write(tmp_path, "d.json", json.dumps(payload))
        with pytest.raises(ValidationError, match="weights"):
            load_dataset(p, FORMAT_JSON, "positive").histograms


@pytest.mark.parametrize("fmt, text", [
    (FORMAT_CSV, "0.5,5\n0.5,0.5\n"),
    (FORMAT_JSON, json.dumps({"histograms": [[0.5, 5], [0.5, 0.5]]})),
])
def test_frequency_sum_is_printed_as_a_plain_float(tmp_path, fmt, text):
    p = write(tmp_path, f"x.{fmt}", text)
    with pytest.raises(ValidationError) as info:
        load_dataset(p, fmt, "frequency")
    assert str(info.value).endswith("histogram 0 declared frequency but sums to 5.5")


def both_parsers(path):
    """What the one-call CSV parser and the per-cell one make of ``path``."""
    outcomes = []
    for parse in (_parse_csv, _parse_csv_cells):
        try:
            rows, weights = parse(path)
        except Exception as exc:  # the type and message must match too
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((rows.shape, rows.tobytes(), None if weights is None else weights.tobytes()))
    return outcomes


@st.composite
def csv_files(draw):
    """Well-formed CSV text: repr floats, optional weights, blank lines, padding, any newline."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 0.1])
    rows = draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=n, max_size=n))
    weights = draw(st.none() | st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = []
    for j, row in enumerate(rows):
        texts = [repr(v) for v in row]
        if weights is not None:
            texts.insert(0, f"weight:{weights[j]!r}")
        lines.append(",".join(draw(pad) + t + draw(pad) for t in texts))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestCSVFastPath:
    """The one-call CSV parse gives what the per-cell parser gives, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(text=csv_files())
    def test_well_formed_files(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        path.write_bytes(text.encode())
        fast, cells = both_parsers(path)
        assert fast == cells
        assert isinstance(fast[0], tuple)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="0123456789.,-+e \t\r\n\"#_nafiweight:", max_size=40))
    def test_any_text(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        path.write_bytes(text.encode())
        fast, cells = both_parsers(path)
        assert fast == cells

    @pytest.mark.parametrize("text", [
        "1,2\n1,zap\n", "1,2,3\n1,2\n", "1#,2\n", '"1",2\n', '1,"2\n3",4\n', "1_0,2\n",
        "", "\n \n\t\n", "1,,2\n", "1,2,\n", ",,\n1,2\n", "weight:0.5\n", "weight:0.5,\n",
        "weight:1,1\n2,3\n", "1,2\nweight:1,3\n", "weight:x,1\n", "weight:1_0,1\n",
        "\xa01,2\n", "\u0661,2\n", "1e400,-inf\n", "1\n2\n", "1,2\r\n3,4",
    ])
    def test_malformed_and_edge_files(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        fast, cells = both_parsers(path)
        assert fast == cells

    def test_only_weighted_or_rejected_files_are_read_cell_by_cell(self, tmp_path, monkeypatch, rng):
        read = []
        real = datasets._parse_csv_cells

        def spy(path):
            read.append(path)
            return real(path)

        monkeypatch.setattr(datasets, "_parse_csv_cells", spy)
        rows = rng.uniform(0.0, 1.0, size=(20, 16)).tolist()
        plain = write(tmp_path, "plain.csv", "".join(",".join(map(repr, r)) + "\n" for r in rows))
        load_dataset(plain, FORMAT_CSV, "positive")
        assert read == []
        weighted = write(tmp_path, "weighted.csv", "".join(
            f"weight:{j + 1},{','.join(map(repr, r))}\n" for j, r in enumerate(rows)
        ))
        s = load_dataset(weighted, FORMAT_CSV, "positive").histograms
        assert read == [weighted]
        assert np.allclose(s.weights, np.arange(1, 21) / 210)


class TestUnreadableInput:
    """Reading errors become :class:`ValidationError`, which the CLI reports with exit 1."""

    @pytest.mark.parametrize("fmt", [FORMAT_CSV, FORMAT_JSON])
    def test_directory(self, tmp_path, fmt):
        with pytest.raises(ValidationError, match="cannot read: .*Is a directory"):
            load_dataset(tmp_path, fmt, "positive")

    def test_pgm_directory_entry(self, tmp_path):
        (tmp_path / "sub.pgm").mkdir()
        with pytest.raises(ValidationError, match=r"cannot read: .*Is a directory: .*sub\.pgm"):
            load_dataset(tmp_path, FORMAT_PGM, "positive")

    @pytest.mark.parametrize("fmt", [FORMAT_CSV, FORMAT_JSON])
    def test_not_utf8(self, tmp_path, fmt):
        p = tmp_path / f"x.{fmt}"
        p.write_bytes(b"\xff\xfe,1\n")
        with pytest.raises(ValidationError, match="cannot read: 'utf-8' codec can't decode"):
            load_dataset(p, fmt, "positive")


class TestPGM:
    def test_four_pixel_image(self, tmp_path):
        p = write_pgm(tmp_path / "t.pgm", 2, 2, [0, 0, 255, 255])
        pixels = read_pgm(p)
        assert list(pixels) == [0, 0, 255, 255]
        s = load_dataset(p, FORMAT_PGM, "positive").histograms
        assert s.d == 256
        # the two populated bins keep their counts (plus epsilon smoothing)
        assert s.matrix[0, 0] == pytest.approx(2.0, abs=1e-6)
        assert s.matrix[0, 255] == pytest.approx(2.0, abs=1e-6)
        assert np.all(s.matrix[0] > 0.0)

    def test_frequency_kind_normalizes_counts(self, tmp_path):
        p = write_pgm(tmp_path / "t.pgm", 2, 2, [7, 7, 7, 9])
        s = load_dataset(p, FORMAT_PGM, "frequency").histograms
        assert s.matrix[0].sum() == pytest.approx(1.0, abs=1e-12)
        # 3/4 of the pixels, up to the 256-bin epsilon smoothing mass
        assert s.matrix[0, 7] == pytest.approx(0.75, abs=1e-7)

    def test_directory_ingestion(self, tmp_path):
        d = tmp_path / "imgs"
        d.mkdir()
        write_pgm(d / "b.pgm", 1, 2, [1, 2])
        write_pgm(d / "a.pgm", 2, 1, [3, 4])
        s = load_dataset(d, FORMAT_PGM, "positive").histograms
        assert s.n == 2
        # sorted order: a.pgm first
        assert s.matrix[0, 3] == pytest.approx(1.0, abs=1e-6)
        assert s.matrix[1, 1] == pytest.approx(1.0, abs=1e-6)

    def test_rejects_16_bit(self, tmp_path):
        p = write_pgm(tmp_path / "t.pgm", 1, 1, [0, 0], maxval=65535)
        with pytest.raises(ValidationError, match="8-bit"):
            read_pgm(p)

    def test_maxval_is_rescaled_to_the_8_bit_scale(self, tmp_path):
        pixels = np.random.default_rng(5).integers(0, 16, size=64)
        low = write_pgm(tmp_path / "low.pgm", 8, 8, pixels.tolist(), maxval=15)
        high = write_pgm(tmp_path / "high.pgm", 8, 8, (pixels * 17).tolist())
        assert np.array_equal(read_pgm(low), pixels * 17)
        for kind in ("positive", "frequency"):
            a = load_dataset(low, FORMAT_PGM, kind).histograms.matrix
            b = load_dataset(high, FORMAT_PGM, kind).histograms.matrix
            assert np.array_equal(a, b)
        # maxval 255 is the identity
        every = write_pgm(tmp_path / "every.pgm", 16, 16, list(range(256)))
        assert np.array_equal(read_pgm(every), np.arange(256))

    def test_rejects_pixel_above_maxval(self, tmp_path):
        p = write_pgm(tmp_path / "over.pgm", 2, 1, [3, 16], maxval=15)
        with pytest.raises(ValidationError, match=r"over\.pgm: pixel value 16 exceeds maxval 15"):
            read_pgm(p)

    def test_rejects_truncated(self, tmp_path):
        p = write_pgm(tmp_path / "t.pgm", 4, 4, [1, 2, 3])
        with pytest.raises(ValidationError, match="truncated"):
            read_pgm(p)

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ValidationError, match="P5"):
            read_pgm(p)

    # Netpbm's header: P5, width, height and maxval in decimal digits, with
    # whitespace or "#" comments between them, then one whitespace byte.
    RASTER = bytes(range(0, 256, 4))  # enough pixels for any width read as 10 or less

    @pytest.mark.parametrize("header", [
        b"P5#c\n2 2\n255\n",
        b"P5\n2#c\n2\n255\n",
        b"P5\n2 2#c\n255\n",
        b"P5#a\n2#b\n2 #c\n\n255\n",
        b"P5\t2\t2\t255\t",
        b"P5\r2\r2\r255\r",
        b"P5\x0b2\x0b2\x0b255\x0b",
        b"P5\x0c2\x0c2\x0c255\x0c",
    ])
    def test_header_separators(self, tmp_path, header):
        plain, odd = tmp_path / "plain.pgm", tmp_path / "odd.pgm"
        plain.write_bytes(b"P5\n2 2\n255\n" + self.RASTER)
        odd.write_bytes(header + self.RASTER)
        assert np.array_equal(read_pgm(odd), read_pgm(plain))

    @pytest.mark.parametrize("header", [
        b"P5\n+2 2\n255\n",
        b"P5\n1_0 2\n255\n",
        b"P5\n0x2 2\n255\n",
        b"P5\n2 2\n255#c\n",
        b"P5\n2 2",
        b"P5\n2 2\n",
        b"P2\n2 2\n255\n",
        b"P51\n2 2\n255\n",
        b" P5\n2 2\n255\n",
        b"P5\n" + b"2" * 4301 + b" 2\n255\n",
    ], ids=["plus", "underscore", "hex", "comment-after-maxval", "no-maxval", "no-maxval-newline",
            "P2", "P51", "leading-space", "4301-digits"])
    def test_rejects_malformed_header(self, tmp_path, header):
        p = tmp_path / "t.pgm"
        p.write_bytes(header + self.RASTER)
        with pytest.raises(ValidationError, match="expected P5, width, height and maxval"):
            read_pgm(p)


class TestEpsilonOverride:
    def test_env_variable(self, tmp_path, monkeypatch):
        p = write(tmp_path, "z.csv", "0,4\n2,2\n")
        monkeypatch.setenv("JEFFREYS_EPSILON", "1e-6")
        s = load_dataset(p, FORMAT_CSV, "positive").histograms
        assert s.matrix[0, 0] == pytest.approx(2e-6)
        monkeypatch.setenv("JEFFREYS_EPSILON", "bogus")
        with pytest.raises(ValidationError, match="JEFFREYS_EPSILON"):
            load_dataset(p, FORMAT_CSV, "positive").histograms

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("rows", ["0,4\n2,2\n", "1,3\n2,2\n"], ids=["empty-bin", "dense"])
    def test_env_variable_not_finite(self, tmp_path, monkeypatch, value, rows):
        # float() accepts all three; a scale that is not finite must not
        # reach the smoothing, nor a set without empty bins.
        p = write(tmp_path, "z.csv", rows)
        monkeypatch.setenv("JEFFREYS_EPSILON", value)
        with pytest.raises(ValidationError, match="JEFFREYS_EPSILON"):
            load_dataset(p, FORMAT_CSV, "positive").histograms

    def test_reported_in_dataset(self, tmp_path):
        p = write(tmp_path, "z.csv", "1,4\n")
        ds = load_dataset(p, FORMAT_CSV, "positive")
        assert ds.epsilon_scale == pytest.approx(1e-10)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", [FORMAT_CSV, FORMAT_JSON])
    def test_serialize_parse_exact(self, tmp_path, fmt, rng):
        rows = rng.uniform(0.01, 1.0, size=(4, 7))
        weights = rng.uniform(0.2, 1.0, size=4)
        weights /= weights.sum()
        from jeffreys import WeightedHistogramSet

        s = WeightedHistogramSet(rows, weights)
        ext = "csv" if fmt == FORMAT_CSV else "json"
        path = tmp_path / f"round.{ext}"
        write_dataset(s, path, fmt)
        back = load_dataset(path, fmt, "positive").histograms
        # shortest round-trip decimals reproduce every bin bit for bit
        assert np.array_equal(back.matrix, s.matrix)
        assert np.allclose(back.weights, s.weights, atol=1e-15)


def reference_matrix(rows, kind, normalize_counts, eps=1e-10):
    """The loader's smoothing and simplex rule, applied one row at a time."""
    out = []
    for row in np.asarray(rows, dtype=np.float64):
        if kind == "frequency" and not normalize_counts:
            assert abs(float(row.sum()) - 1.0) <= 1e-6
        if np.any(row == 0.0):
            row = row + eps * max(1.0, float(row.sum()) / row.size)
        if kind == "frequency":
            row = row / row.sum()
            total = float(row.sum())
            if abs(total - 1.0) > 1e-12:
                row = row / total
        out.append(row)
    return np.vstack(out)


def reference_weights(weights, n):
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    total = float(w.sum())
    return w / total if abs(total - 1.0) > 1e-12 else w


class TestWholeMatrixLoader:
    """The loader validates the whole matrix at once, bit for bit like a per-row loop."""

    @staticmethod
    def tabular_rows(rng, n=40, d=300):
        rows = rng.dirichlet(np.full(d, 0.05), size=n)
        rows[rng.random((n, d)) < 0.3] = 0.0  # many empty bins
        rows[0] = 0.0
        rows[0, 7] = 1.0  # one populated bin
        rows /= rows.sum(axis=1, keepdims=True)
        # simplex defects in (1e-12, 1e-6], as rounding in a file would leave
        rows[1:] *= 1.0 + rng.uniform(2e-12, 1e-6, size=(n - 1, 1)) * rng.choice([-1, 1], (n - 1, 1))
        return rows

    @pytest.mark.parametrize("kind", ["positive", "frequency"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_csv_and_json(self, tmp_path, rng, kind, weighted):
        rows = self.tabular_rows(rng)
        weights = rng.uniform(0.1, 3.0, size=len(rows)) if weighted else None
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("".join(
            ("" if weights is None else f"weight:{float(weights[j])!r},")
            + ",".join(map(repr, row)) + "\n"
            for j, row in enumerate(rows.tolist())
        ))
        json_path = tmp_path / "rows.json"
        payload = {"histograms": rows.tolist()}
        if weights is not None:
            payload["weights"] = weights.tolist()
        json_path.write_text(json.dumps(payload))
        expected = reference_matrix(rows, kind, normalize_counts=False)
        for path, fmt in ((csv_path, FORMAT_CSV), (json_path, FORMAT_JSON)):
            s = load_dataset(path, fmt, kind).histograms
            assert np.array_equal(s.matrix, expected)
            assert np.array_equal(s.weights, reference_weights(weights, len(rows)))
            assert s.frequency == (kind == "frequency")

    @pytest.mark.parametrize("kind", ["positive", "frequency"])
    def test_pgm_directory(self, tmp_path, rng, kind):
        d = tmp_path / "imgs"
        d.mkdir()
        for i, maxval in enumerate((255, 255, 15, 200)):
            pixels = rng.integers(0, maxval + 1, size=(12, 10)) // 9 * 9 % (maxval + 1)
            write_pgm(d / f"img{i}.pgm", 12, 10, pixels.ravel().tolist(), maxval=maxval)
        counts = [np.bincount(read_pgm(f), minlength=256) for f in sorted(d.glob("*.pgm"))]
        s = load_dataset(d, FORMAT_PGM, kind).histograms
        assert np.array_equal(s.matrix, reference_matrix(counts, kind, normalize_counts=True))
        assert np.array_equal(s.weights, np.full(4, 0.25))
