"""Seeded inputs and CLI operations of the three benchmark workloads.

Every workload is a fixed list of ``jeffreys`` CLI calls (a *pass*) on
files generated here from ``--seed``; the program only ever sees those
files.  Each call belongs to one of two slots, ``op1`` and ``op2``; the
median call of each slot is an end-to-end latency metric (see README.md).

* ``dense-csv``: one CSV of 1000 x 256 Dirichlet(1) frequency histograms;
  ``centroid --mode bisection`` (op1) and ``kmeans --k 8`` in positive mode
  (op2).  Ingest and k-means assignment dominate.
* ``sparse-small``: a stream of small sparse JSON sets (Dirichlet(0.01),
  raw zero bins), each solved by ``centroid --mode fixedpoint`` and
  ``--mode bisection`` (op1), plus ``kmeans --k 6`` in frequency_exact mode
  on a directory of 96 peaked 64 x 64 PGM images after every tenth set
  (op2).  Many small ``W0`` calls and the fixed point's fallbacks dominate.
* ``trials``: ``bench --trials 100000 --dims 2`` (op1, the paper's table)
  and ``bench --trials 10000 --dims 16`` (op2).  A few huge batched ``W0``
  calls dominate.

The k-means calls cap ``--max-iters``: on these inputs Lloyd needs a number
of rounds that depends on the seed (8 to 22 on dense-csv, 3 to 8 on the
images), which would make a run's latency a property of its seed rather
than of the code.  Every seed tried needs at least as many rounds as the
cap, so each call does the same amount of work; ``clustering.rounds`` in
the traced run shows the rounds actually run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("dense-csv", "sparse-small", "trials")

DENSE_ROWS, DENSE_BINS, DENSE_K, DENSE_MAX_ITERS = 1000, 256, 8, 6
SPARSE_REPEATS, SPARSE_N, SPARSE_D, SPARSE_ALPHA = 3, range(2, 12), (8, 64, 512), 0.01
PGM_IMAGES, PGM_SIDE, PGM_K, PGM_MAX_ITERS = 96, 64, 6, 3
# The k-means call recurs after every SETS_PER_KMEANS sets, so that a run
# samples it as often as the machine's slow and fast spells need.
SETS_PER_KMEANS = 10
TRIALS = ((100000, 2), (10000, 16))


@dataclass(frozen=True)
class Op:
    """One CLI call: its slot, its kind (for checks and memory) and its argv."""

    slot: str
    kind: str
    argv: tuple[str, ...]
    input_path: Path | None = None

    @property
    def label(self) -> str:
        """The call without its input path, e.g. ``centroid --mode bisection``."""
        flag = {"centroid": "--mode", "kmeans": "--centroid-mode", "bench": "--dims"}[self.kind]
        return f"{self.kind} {flag} {self.argv[self.argv.index(flag) + 1]}"


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)
    #: One call per kind, on the largest input, for the fresh-process memory probe.
    rss_ops: list[Op] = field(default_factory=list)

    def input_hash(self, root: Path) -> str:
        """SHA-256 over every generated file and every argv, paths made relative."""
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
        for op in self.ops:
            h.update("\0".join(op.argv).replace(str(root), "").encode() + b"\n")
        return h.hexdigest()


def _write_csv(path: Path, rows: np.ndarray) -> None:
    # repr() gives shortest round-trip decimals, so rows keep their exact sums.
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))


def _write_pgm(path: Path, pixels: np.ndarray) -> None:
    path.write_bytes(b"P5\n%d %d\n255\n" % (PGM_SIDE, PGM_SIDE) + pixels.astype(np.uint8).tobytes())


def _peaked_image(rng: np.random.Generator) -> np.ndarray:
    """A 'scene' of one to three intensity peaks: most of the 256 bins stay empty."""
    peaks = int(rng.integers(1, 4))
    centers = rng.uniform(16.0, 240.0, size=peaks)
    which = rng.choice(peaks, size=PGM_SIDE * PGM_SIDE, p=rng.dirichlet(np.ones(peaks)))
    return np.clip(np.rint(rng.normal(centers[which], 6.0)), 0, 255)


def _centroid_argv(path: Path, fmt: str, mode: str) -> tuple[str, ...]:
    return ("centroid", "--input", str(path), "--format", fmt, "--kind", "frequency",
            "--mode", mode)


def _kmeans_argv(path: Path, fmt: str, k: int, mode: str, seed: int, cap: int) -> tuple[str, ...]:
    return ("kmeans", "--input", str(path), "--format", fmt, "--kind", "frequency",
            "--k", str(k), "--centroid-mode", mode, "--seed", str(seed),
            "--max-iters", str(cap))


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` under ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    wl = Workload(name, seed)
    workdir.mkdir(parents=True, exist_ok=True)

    if name == "dense-csv":
        path = workdir / "dense.csv"
        _write_csv(path, rng.dirichlet(np.ones(DENSE_BINS), size=DENSE_ROWS))
        wl.files = [path]
        wl.ops = [
            Op("op1", "centroid", _centroid_argv(path, "csv", "bisection"), path),
            Op("op2", "kmeans", _kmeans_argv(path, "csv", DENSE_K, "positive", seed,
                                             DENSE_MAX_ITERS), path),
        ]
        wl.rss_ops = list(wl.ops)
        wl.sizes = {"rows": DENSE_ROWS, "bins": DENSE_BINS, "bytes": path.stat().st_size}

    elif name == "sparse-small":
        sets = []
        for rep in range(SPARSE_REPEATS):
            for n in SPARSE_N:
                for d in SPARSE_D:
                    rows = rng.dirichlet(np.full(d, SPARSE_ALPHA), size=n)
                    path = workdir / f"set-{rep}-{n:02d}-{d:03d}.json"
                    path.write_text(json.dumps({"histograms": rows.tolist()}))
                    sets.append(path)
        images = workdir / "images"
        images.mkdir(exist_ok=True)
        for i in range(PGM_IMAGES):
            _write_pgm(images / f"img{i:03d}.pgm", _peaked_image(rng))
        wl.files = sets + sorted(images.glob("*.pgm"))
        kmeans_op = Op("op2", "kmeans", _kmeans_argv(images, "pgm-dir", PGM_K, "frequency_exact",
                                                     seed, PGM_MAX_ITERS), images)
        for i, path in enumerate(sets, start=1):
            for mode in ("fixedpoint", "bisection"):
                wl.ops.append(Op("op1", "centroid", _centroid_argv(path, "json", mode), path))
            if i % SETS_PER_KMEANS == 0:
                wl.ops.append(kmeans_op)
        largest = sets[-1]  # n = 11, d = 512
        wl.rss_ops = [op for op in wl.ops if op.input_path == largest] + [kmeans_op]
        wl.sizes = {
            "sets": len(sets), "kmeans_per_pass": len(sets) // SETS_PER_KMEANS,
            "n": f"{SPARSE_N.start}-{SPARSE_N.stop - 1}",
            "d": "/".join(map(str, SPARSE_D)), "images": PGM_IMAGES,
            "bytes": sum(p.stat().st_size for p in wl.files),
        }

    elif name == "trials":
        for slot, (trials, dims) in zip(("op1", "op2"), TRIALS):
            wl.ops.append(Op(slot, "bench", ("bench", "--trials", str(trials), "--dims", str(dims),
                                             "--seed", str(seed), "--threads", "1")))
        wl.rss_ops = list(wl.ops)
        wl.sizes = {"trials": "/".join(str(t) for t, _ in TRIALS),
                    "dims": "/".join(str(d) for _, d in TRIALS)}

    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return wl
