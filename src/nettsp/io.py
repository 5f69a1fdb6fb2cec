"""Instance files and generators.

Supported formats: a TSPLIB subset (EUC_2D coordinates or EXPLICIT
FULL_MATRIX), one-point-per-line CSV, and JSON with either a point list or a
full matrix. Loaded instances are validated; an invalid one raises a
NetTspError that names the failed check, and a malformed or empty one a
ParseError.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers

import numpy as np

from .errors import ConfigError, ParseError
from .metric import MetricSpace, from_matrix, from_points, validate_metric

FORMATS = ("tsplib_euc2d", "tsplib_matrix", "points_csv", "points_json")
KINDS = ("uniform2d", "clustered", "line", "matrix_random_metric")


# Each kind's accepted generator params: name -> (requirement, test). Every
# test is written so that NaN fails it; a kind not listed accepts none.
PARAMS = {
    "clustered": {"clusters": ("an integer >= 1",
                               lambda v: isinstance(v, (int, np.integer)) and v >= 1),
                  "spread": ("finite and >= 0", lambda v: 0 <= v < math.inf),
                  "separation": ("finite", math.isfinite)},
    "line": {"spacing": ("finite", math.isfinite)},
}


def _parse_tsplib(text: str):
    header = {}
    coords = []
    weights = []
    section = None
    dimension = None
    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.upper() == "EOF":
            section = None
            continue
        upper = line.upper()
        if upper.startswith("NODE_COORD_SECTION"):
            section = "coords"
            continue
        if upper.startswith("EDGE_WEIGHT_SECTION"):
            section = "weights"
            continue
        if section is None and (":" in line or upper.split()[0] in
                                ("NAME", "TYPE", "COMMENT", "DIMENSION",
                                 "EDGE_WEIGHT_TYPE", "EDGE_WEIGHT_FORMAT")):
            key, _, value = line.partition(":")
            header[key.strip().upper()] = value.strip()
            if key.strip().upper() == "DIMENSION":
                if not value.strip().isdecimal():
                    raise ParseError(f"bad DIMENSION {value!r}", line=ln)
                dimension = int(value)
            continue
        if section == "coords":
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"expected 'index x y', got {line!r}", line=ln)
            try:
                coords.append((float(parts[1]), float(parts[2])))
            except ValueError:
                raise ParseError(f"bad coordinate in {line!r}", line=ln)
            continue
        if section == "weights":
            for tok in line.split():
                try:
                    weights.append(float(tok))
                except ValueError:
                    raise ParseError(f"bad weight {tok!r}", line=ln)
            continue
        raise ParseError(f"unexpected line {line!r}", line=ln)
    return header, coords, weights, dimension


def _space(values, matrix=False) -> MetricSpace:
    """The space of a point list, or of a distance matrix when ``matrix``; a
    ParseError unless points are 1-D or 2-D, a matrix square, and n >= 1."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"not an array of numbers: {exc}")
    if matrix and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise ParseError(f"matrix of shape {arr.shape} is not n x n")
    if not matrix and arr.ndim not in (1, 2):
        raise ParseError(f"points of shape {arr.shape} are not a list of coordinates")
    if len(arr) == 0:
        raise ParseError("instance has no points")
    return from_matrix(arr) if matrix else from_points(arr)


def load_instance(path: str, fmt: str) -> MetricSpace:
    """Parse and validate an instance file."""
    if fmt not in FORMATS:
        raise ParseError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()

    if fmt in ("tsplib_euc2d", "tsplib_matrix"):
        header, coords, weights, dimension = _parse_tsplib(text)
        wtype = header.get("EDGE_WEIGHT_TYPE", "").upper()
        if fmt == "tsplib_euc2d":
            if wtype and wtype != "EUC_2D":
                raise ParseError(f"EDGE_WEIGHT_TYPE {wtype!r} is not EUC_2D")
            if not coords:
                raise ParseError("missing NODE_COORD_SECTION")
            if dimension is not None and dimension != len(coords):
                raise ParseError(f"DIMENSION {dimension} != {len(coords)} coordinates")
            space = from_points(coords)
        else:
            if wtype and wtype != "EXPLICIT":
                raise ParseError(f"EDGE_WEIGHT_TYPE {wtype!r} is not EXPLICIT")
            wfmt = header.get("EDGE_WEIGHT_FORMAT", "FULL_MATRIX").upper()
            if wfmt != "FULL_MATRIX":
                raise ParseError(f"EDGE_WEIGHT_FORMAT {wfmt!r} unsupported (FULL_MATRIX only)")
            if dimension is None:
                dimension = int(round(math.sqrt(len(weights))))
            if dimension * dimension != len(weights):
                raise ParseError(
                    f"EDGE_WEIGHT_SECTION holds {len(weights)} values, expected {dimension}^2")
            space = _space(np.reshape(weights, (dimension, dimension)), matrix=True)
    elif fmt == "points_csv":
        pts = []
        for ln, row in enumerate(csv.reader(text.splitlines()), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2 or "".join(row[2:]).strip():
                raise ParseError(f"expected 'x,y', got {row!r}", line=ln)
            try:
                pts.append((float(row[0]), float(row[1])))
            except ValueError:
                raise ParseError(f"bad number in {row!r}", line=ln)
        if not pts:
            raise ParseError("empty CSV instance")
        space = from_points(pts)
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", line=exc.lineno)
        if isinstance(payload, dict) and "points" in payload:
            space = _space(payload["points"])
        elif isinstance(payload, dict) and "matrix" in payload:
            space = _space(payload["matrix"], matrix=True)
        else:
            raise ParseError("JSON must be an object with 'points' or 'matrix'")
    validate_metric(space)
    return space


def save_points_csv(space: MetricSpace, path: str):
    assert space.coords is not None
    with open(path, "w", encoding="utf-8") as fh:
        for row in space.coords:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def instance_digest(space: MetricSpace) -> str:
    hasher = hashlib.sha256()
    if space.coords is not None:
        hasher.update(b"coords")
        hasher.update(np.ascontiguousarray(space.coords, dtype=float).tobytes())
    else:
        hasher.update(b"matrix")
        hasher.update(np.ascontiguousarray(space.matrix, dtype=float).tobytes())
    return hasher.hexdigest()[:16]


def generate_instance(kind: str, n: int, seed: int = 0, params: dict = None) -> MetricSpace:
    """Deterministic instance generators.

    kinds: uniform2d (unit square), clustered (tight blobs around spread
    centers, the dense-split fixture), line (unit spacing), and
    matrix_random_metric (random weights closed under shortest paths). An
    unknown kind, n < 1, a negative seed, or a param that is not in the
    kind's PARAMS entry or fails its requirement raises ConfigError.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown generator kind {kind!r}; known kinds: {', '.join(KINDS)}")
    for name, value, least in (("n", n, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    params = params or {}
    accepted = PARAMS.get(kind, {})
    for key, value in params.items():
        if key not in accepted:
            raise ConfigError(f"unknown {kind} param {key!r}; accepted params: "
                              f"{', '.join(accepted) or 'none'}")
        rule, ok = accepted[key]
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
            raise ConfigError(f"{kind} param {key!r} must be {rule}, got {value!r}")
    rng = np.random.default_rng(seed)
    if kind == "uniform2d":
        return from_points(rng.random((n, 2)))
    if kind == "line":
        spacing = float(params.get("spacing", 1.0))
        return from_points([(i * spacing, 0.0) for i in range(n)])
    if kind == "clustered":
        n_clusters = int(params.get("clusters", 2))
        spread = float(params.get("spread", 0.01))
        sep = float(params.get("separation", 1.0))
        centers = rng.random((n_clusters, 2)) * sep * n_clusters
        pts = []
        for i in range(n):
            c = centers[i % n_clusters]
            pts.append(c + rng.normal(scale=spread, size=2))
        return from_points(np.asarray(pts))
    # matrix_random_metric
    raw = rng.uniform(1.0, 10.0, size=(n, n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    # Shortest-path closure makes the triangle inequality hold exactly.
    d = raw.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k][None, :])
    return from_matrix(d)
