"""Newform q-expansion records: bundled fixtures, JSON schema, remote fetch.

`newforms_for_level` alone decides where a level's records come from, in
one order: no data at all where S_2^new(Gamma0(N)) = 0, then the bundled
fixtures, then the cache, then the endpoint, which an offline call never
reaches.  So a bundled level sends no request and writes no cache, and a
warm cache is read before the network.

Schema (bit-exact, UTF-8, no floats): a top-level list of records
  {"label": str, "level": int, "weight": 2,
   "field_poly": [int, ...]   # ascending, monic
   "an": [[int, ...], ...]}   # a_1, a_2, ...; inner lists ascending powers
Optionally a record carries an integral basis ("nu"-basis):
  "basis_matrix": [[int, ...], ...], "basis_denominators": [int, ...]
in which case each an entry holds coordinates in that basis and ingestion
converts exactly to the power basis of the field_poly root.

A `NewformRecord` stores a_n as (num, den), integer power-basis numerators
over one denominator in the canonical form of `polys.canonical`, the format
that `QExpansion.an` and `CycElement` share, and the scan reads the pairs as
stored.
A basis matrix is scaled once by the lcm of its denominators, so parsing and
its checks stay in Z.  Each bundled fixture is read and parsed once per
process.
"""

from __future__ import annotations

import json
import os
import warnings
from functools import cache
from importlib import resources
from math import lcm
from pathlib import Path

from .arith import DomainError, record
from .cusps import new_dimension
from . import polys

DEFAULT_ENDPOINT = "https://www.lmfdb.org/api/mf_newforms"
CACHE_ENV = "EISCONG_CACHE"
BUNDLED_LEVELS = (121, 234, 725)


class NewformDataError(ValueError):
    """Malformed newform data (schema violation), with location info."""


class NetworkUnavailable(RuntimeError):
    """The remote endpoint could not be reached."""


@record
class NewformRecord:
    """A weight-2 newform orbit: defining polynomial and exact coefficients."""

    label: str
    level: int
    weight: int
    field_poly: tuple[int, ...]
    an: tuple[tuple[tuple[int, ...], int], ...]  # (num, den) of a_1..a_B

    @property
    def degree(self) -> int:
        return len(self.field_poly) - 1

    @property
    def bound(self) -> int:
        return len(self.an)


def _require(cond, where, msg):
    if not cond:
        raise NewformDataError(f"{where}: {msg}")


def _parse_record(item: dict, where: str) -> NewformRecord | None:
    _require(isinstance(item, dict), where, "record must be an object")
    for key in ("label", "level", "weight", "field_poly", "an"):
        _require(key in item, where, f"missing field {key!r}")
    label = item["label"]
    _require(isinstance(label, str), where, "label must be a string")
    level = item["level"]
    _require(type(level) is int and level >= 1, where, "level must be a positive int")
    _require(type(item["weight"]) is int, where, "weight must be an int")
    if item["weight"] != 2:
        return None  # only weight-2 trivial-nebentypus forms are accepted
    poly = item["field_poly"]
    _require(
        isinstance(poly, list) and poly and all(type(c) is int for c in poly),
        where, "field_poly must be a nonempty list of ints",
    )
    _require(poly[-1] == 1, where, "field_poly must be monic")
    deg = len(poly) - 1
    _require(deg >= 1, where, "field_poly must have degree >= 1")
    an_raw = item["an"]
    _require(isinstance(an_raw, list) and an_raw, where, "an must be a nonempty list")

    basis = None
    if "basis_matrix" in item or "basis_denominators" in item:
        bm = item.get("basis_matrix")
        bd = item.get("basis_denominators")
        _require(isinstance(bm, list) and len(bm) == deg, where, "basis_matrix must be deg x deg")
        _require(isinstance(bd, list) and len(bd) == deg, where, "basis_denominators must have length deg")
        _require(all(isinstance(r, list) and len(r) == deg and all(type(c) is int for c in r) for r in bm),
                 where, "basis_matrix entries must be ints")
        _require(all(type(x) is int and x >= 1 for x in bd), where, "denominators must be positive ints")
        den = lcm(*bd)
        basis = [[num * (den // d) for num in row] for row, d in zip(bm, bd)]

    # one pass over all of an; the per-vector walk only names the first bad vector
    lengths = {len(vec) if isinstance(vec, list) else -1 for vec in an_raw}
    if lengths != {deg} or {type(c) for vec in an_raw for c in vec} != {int}:
        for i, vec in enumerate(an_raw):
            if not (isinstance(vec, list) and len(vec) == deg):
                raise NewformDataError(f"{where}.an[{i}]: coefficient vector must have length {deg}")
            if not all(type(c) is int for c in vec):
                raise NewformDataError(f"{where}.an[{i}]: coefficients must be ints (no floats)")

    an = []
    for vec in an_raw:
        if basis is None:
            an.append((tuple(vec), 1))
        else:
            acc = [0] * deg
            for c, row in zip(vec, basis):
                if c:
                    acc = [x + c * y for x, y in zip(acc, row)]
            an.append(polys.canonical(acc, den))

    rec = NewformRecord(label, level, 2, tuple(poly), tuple(an))
    _require(rec.an[0] == ((1,) + (0,) * (deg - 1), 1), where, "a_1 must be 1")
    # multiplicativity spot check where gcd conditions hold
    if rec.bound >= 6 and level % 2 and level % 3:
        (n2, d2), (n3, d3) = rec.an[1:3]
        a6 = polys.canonical(polys.divmod_monic(polys.mul(n2, n3), rec.field_poly)[1], d2 * d3)
        _require(rec.an[5] == a6, where, "a_6 != a_2 * a_3")
    return rec


def parse_newforms(data, where="newforms") -> list[NewformRecord]:
    _require(isinstance(data, list), where, "top level must be a list")
    out = []
    for i, item in enumerate(data):
        rec = _parse_record(item, f"{where}[{i}]")
        if rec is not None:
            out.append(rec)
    return out


def load_newforms(path) -> list[NewformRecord]:
    """Load records from the JSON file at `path`; an empty file gives []."""
    text = Path(path).read_text()
    if not text.strip():
        return []
    try:
        return parse_newforms(json.loads(text), where=str(path))
    except json.JSONDecodeError as exc:
        raise NewformDataError(f"invalid JSON: {exc}") from exc


def bundled_newforms(level: int) -> list[NewformRecord]:
    """The fixtures shipped with the package (levels 121, 234, 725), parsed
    once per level; every call returns a new list of the shared frozen records."""
    return list(_bundled_records(level))


@cache
def _bundled_records(level: int) -> tuple[NewformRecord, ...]:
    name = f"newforms_{level}.json"
    try:
        text = resources.files("eiscong.data").joinpath(name).read_text()
    except FileNotFoundError:
        raise DomainError(
            f"no bundled newform data for level {level}; "
            f"run `eiscong fetch --level {level}` with network access"
        )
    return tuple(parse_newforms(json.loads(text), where=name))


def _cache_file(level: int, cache_dir=None) -> Path:
    """The cache file of a level: in cache_dir, else in EISCONG_CACHE, else
    in ~/.cache/eiscong."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV) or Path.home() / ".cache" / "eiscong"
    return Path(cache_dir) / f"newforms_{level}.json"


def fetch_newforms(
    level: int,
    endpoint: str = DEFAULT_ENDPOINT,
    cache_dir=None,
    offline: bool = False,
    session=None,
) -> list[NewformRecord]:
    """Fetch weight-2 trivial-nebentypus newforms for a level.

    Queries `endpoint?level=N&weight=2` expecting `{"data": [<record>, ...]}`
    in the schema above (the documented mapping for an LMFDB-compatible
    service).  Successful responses are cached under EISCONG_CACHE; when the
    endpoint is unreachable, or the `requests` package is missing, a warm
    cache is served with a warning, and offline mode never touches the
    network.  A level below 1 is a DomainError before either is touched.
    """
    if level < 1:
        raise DomainError(f"level must be >= 1 (got {level})")
    cache_file = _cache_file(level, cache_dir)
    if offline:
        if cache_file.exists():
            return load_newforms(cache_file)
        raise NetworkUnavailable(
            f"offline and no cache at {cache_file}; "
            f"run `eiscong fetch --level {level}` online first"
        )
    try:
        import requests  # slow to import, and only a network fetch needs it
    except ImportError as exc:  # no HTTP client, so no endpoint can be reached
        return _unreachable(cache_file, endpoint, exc)
    http = session if session is not None else requests
    try:
        resp = http.get(endpoint, params={"level": level, "weight": 2}, timeout=30)
    except requests.RequestException as exc:
        return _unreachable(cache_file, endpoint, exc)
    if resp.status_code != 200:
        raise NetworkUnavailable(f"endpoint returned HTTP {resp.status_code}")
    try:
        payload = resp.json()
    except ValueError as exc:
        raise NewformDataError(f"endpoint returned non-JSON payload: {exc}") from exc
    if not isinstance(payload, dict) or "data" not in payload:
        raise NewformDataError("endpoint payload must be an object with a 'data' list")
    records = parse_newforms(payload["data"], where=f"{endpoint}?level={level}")
    _write_atomic(cache_file, json.dumps(payload["data"]))
    return records


def _unreachable(cache_file: Path, endpoint: str, exc: Exception) -> list[NewformRecord]:
    """The warm cache, with a warning, when the endpoint cannot be reached;
    without one, NetworkUnavailable."""
    if cache_file.exists():
        warnings.warn(f"endpoint unreachable ({exc}); serving cached data")
        return load_newforms(cache_file)
    raise NetworkUnavailable(f"cannot reach {endpoint}: {exc}") from exc


def _write_atomic(path: Path, text: str) -> None:
    """Write a temp file next to `path`, then rename it over `path`: a reader
    sees the old file or the new one, never a partial write."""
    import tempfile  # only a fetch writes the cache

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def newforms_for_level(level: int, cache_dir=None, *, offline: bool = True,
                       endpoint: str = DEFAULT_ENDPOINT) -> list[NewformRecord]:
    """The newform records at a level, from the first source that has them:
    none at all where S_2^new(Gamma0(level)) = 0, then the bundled fixtures,
    then the cache, then `endpoint`, which an offline call never reaches.  A
    bundled level sends no request and writes no cache."""
    if not new_dimension(level):
        return []
    if level in BUNDLED_LEVELS:
        return bundled_newforms(level)
    warm = _cache_file(level, cache_dir).exists()
    return fetch_newforms(level, endpoint, cache_dir, offline=offline or warm)
