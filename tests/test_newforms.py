import ast
import http.client
import http.server
import io
import json
import socket
import subprocess
import sys
import textwrap
import threading
import urllib.error
import urllib.request
from fractions import Fraction
from importlib import resources
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fixtures_oracle
import newforms_oracle
from helpers import fixture_script, fresh_env, newform_coefficient
from eiscong import polys
from eiscong.arith import DomainError, sturm_bound
from eiscong.newforms import (BUNDLED_LEVELS, NetworkUnavailable, NewformDataError,
                              bundled_newforms, fetch_newforms, load_newforms,
                              parse_newforms)


def test_bundled_levels():
    recs = bundled_newforms(121)
    assert [r.label for r in recs] == ["121.2.a.a", "121.2.a.b", "121.2.a.c", "121.2.a.d"]
    assert all(r.degree == 1 for r in recs)
    recs = bundled_newforms(234)
    assert len(recs) == 5 and all(r.degree == 1 for r in recs)
    recs = bundled_newforms(725)
    assert len(recs) == 12
    assert sorted(r.degree for r in recs) == [1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 5, 6]


def test_bundled_paper_coefficients():
    d121 = next(r for r in bundled_newforms(121) if r.label == "121.2.a.d")
    got = [r[0] for r in (newform_coefficient(d121, n) for n in range(1, 13))]
    assert got == [1, 2, -1, 2, 1, -2, 2, 0, -2, 2, 0, -2]

    b725 = next(r for r in bundled_newforms(725) if r.label == "725.2.a.b")
    assert b725.field_poly == (-2, 0, 1)
    assert newform_coefficient(b725, 2) == (1, 1)       # 1 + sqrt 2
    assert newform_coefficient(b725, 6) == (-3, -2)
    assert newform_coefficient(b725, 14) == (4, 2)

    l725 = next(r for r in bundled_newforms(725) if r.label == "725.2.a.l")
    assert l725.field_poly == (-1, 0, 41, 0, -13, 0, 1)
    # beta-basis record: a_2 = beta_1 converts to the power-basis vector e_1
    assert newform_coefficient(l725, 2) == (0, 1, 0, 0, 0, 0)
    # a_3 = beta_1 - beta_4 = x - (x^5 - 12x^3 + 35x)/2
    assert newform_coefficient(l725, 3) == (
        Fraction(0), Fraction(-33, 2), Fraction(0), Fraction(6), Fraction(0), Fraction(-1, 2),
    )
    # a_6 = 2 - beta_3 = 2 - (x^4 - 8x^2 + 5)/2
    assert newform_coefficient(l725, 6) == (
        Fraction(-1, 2), Fraction(0), Fraction(4), Fraction(0), Fraction(-1, 2), Fraction(0),
    )


def test_bundled_fixtures_parsed_once(monkeypatch):
    """Each bundled level is parsed once per process, and every call returns
    a new list, so a caller that changes one list cannot change the next;
    a missing fixture raises on every call."""
    from eiscong import newforms

    parsed = []

    def counting(data, where="newforms"):
        parsed.append(where)
        return parse_newforms(data, where)

    monkeypatch.setattr(newforms, "parse_newforms", counting)
    newforms._bundled_records.cache_clear()
    for level in BUNDLED_LEVELS:
        first, second = bundled_newforms(level), bundled_newforms(level)
        assert first == second and first is not second
        first.append(first[0])
        assert bundled_newforms(level) == second
    assert parsed == [f"newforms_{level}.json" for level in BUNDLED_LEVELS]
    for _ in range(2):
        with pytest.raises(DomainError, match="no bundled newform data for level 99"):
            bundled_newforms(99)


def test_load_empty_and_errors(tmp_path):
    path = tmp_path / "newforms.json"
    path.write_text("")
    assert load_newforms(path) == []
    path.write_text("not json")
    with pytest.raises(NewformDataError):
        load_newforms(path)
    good = {
        "label": "x", "level": 11, "weight": 2, "field_poly": [0, 1], "an": [[1], [-2]],
    }
    assert len(parse_newforms([good])) == 1
    bad = dict(good, field_poly=[0, 2])
    with pytest.raises(NewformDataError, match="monic"):
        parse_newforms([bad])
    bad = dict(good, an=[[2], [1]])
    with pytest.raises(NewformDataError, match="a_1"):
        parse_newforms([bad])
    bad = dict(good, an=[[1.0], [1]])
    with pytest.raises(NewformDataError, match="ints"):
        parse_newforms([bad])
    bad = dict(good)
    del bad["level"]
    with pytest.raises(NewformDataError, match="level"):
        parse_newforms([bad])
    # non weight-2 records are filtered, not fatal
    assert parse_newforms([dict(good, weight=4)]) == []


@pytest.mark.parametrize("field, value, message", [
    ("level", True, ": level must be a positive int"),
    ("field_poly", [0, True], ": field_poly must be a nonempty list of ints"),
    ("an", [[True], [-2]], ".an[0]: coefficients must be ints (no floats)"),
    ("an", [[1], [False]], ".an[1]: coefficients must be ints (no floats)"),
    ("basis_matrix", [[True]], ": basis_matrix entries must be ints"),
    ("basis_denominators", [True], ": denominators must be positive ints"),
])
def test_json_booleans_are_not_ints(field, value, message):
    """JSON true and false are bools, which Python counts as ints; the schema's
    ints refuse them at every place it names an int."""
    good = {"label": "x", "level": 11, "weight": 2, "field_poly": [0, 1], "an": [[1], [-2]],
            "basis_matrix": [[1]], "basis_denominators": [1]}
    assert len(parse_newforms([good])) == 1
    data = json.loads(json.dumps([dict(good, **{field: value})]))
    with pytest.raises(NewformDataError) as exc:
        parse_newforms(data)
    assert str(exc.value) == "newforms[0]" + message


@pytest.mark.parametrize("weight", [2.0, [2], True])
def test_weight_must_be_an_int(weight):
    """A weight that is not a JSON int names its record; an int weight other
    than 2 is skipped."""
    good = {"label": "x", "level": 11, "weight": 2, "field_poly": [0, 1], "an": [[1], [-2]]}
    assert len(parse_newforms([good])) == 1 and parse_newforms([dict(good, weight=3)]) == []
    with pytest.raises(NewformDataError) as exc:
        parse_newforms(json.loads(json.dumps([good, dict(good, weight=weight)])))
    assert str(exc.value) == "newforms[1]: weight must be an int"


def test_multiplicativity_spot_check():
    rec = {
        "label": "x", "level": 35, "weight": 2, "field_poly": [0, 1],
        "an": [[1], [1], [1], [-1], [0], [2]],  # a_6 should be a_2 a_3 = 1
    }
    with pytest.raises(NewformDataError, match="a_6"):
        parse_newforms([rec])
    rec["an"][5] = [1]
    assert len(parse_newforms([rec])) == 1


def _assert_same_parse(data):
    """parse_newforms gives the Fraction parse's records, in canonical form,
    or raises the same error."""
    try:
        want = newforms_oracle.parse_newforms(data)
    except NewformDataError as exc:
        with pytest.raises(NewformDataError) as got:
            parse_newforms(data)
        assert str(got.value) == str(exc)
        return
    got = parse_newforms(data)
    assert [(r.label, r.level, r.field_poly) for r in got] == [
        (r.label, r.level, r.field_poly) for r in want]
    for g, w in zip(got, want):
        assert tuple(newform_coefficient(g, n) for n in range(1, g.bound + 1)) == w.an
        assert all(den > 0 and gcd(den, *num) == 1 for num, den in g.an)


@pytest.mark.parametrize("level", BUNDLED_LEVELS)
def test_bundled_parse_matches_fraction_parse(level):
    _assert_same_parse(json.loads(
        resources.files("eiscong.data").joinpath(f"newforms_{level}.json").read_text()))


@st.composite
def _raw_record(draw):
    """A record with a_1 = 1, random a_2..a_B, at a level where the a_6 check
    runs or not, with or without a basis whose first element is 1.  Without
    a basis, a_6 is a_2 a_3 in half of the draws, so both outcomes occur."""
    deg = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-40, 40), min_size=deg, max_size=deg)
    poly = draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg)) + [1]
    an = [[1] + [0] * (deg - 1)] + [draw(vec) for _ in range(draw(st.integers(0, 8)))]
    rec = {"label": "t", "level": draw(st.sampled_from((35, 36, 725))), "weight": 2,
           "field_poly": poly, "an": an}
    if draw(st.booleans()):
        bd = draw(st.lists(st.integers(1, 12), min_size=deg, max_size=deg))
        rec["basis_matrix"] = [[bd[0]] + [0] * (deg - 1)] + [draw(vec) for _ in range(deg - 1)]
        rec["basis_denominators"] = bd
    elif len(an) >= 6 and draw(st.booleans()):
        an[5] = polys.divmod_monic(polys.mul(an[1], an[2]), poly)[1]
    return rec


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_raw_record(), min_size=1, max_size=3))
def test_integer_parse_matches_fraction_parse(data):
    _assert_same_parse(data)


class _FakeResponse:
    def __init__(self, status, payload):
        self.status_code = status
        self._payload = payload

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class _FakeSession:
    def __init__(self, response=None, exc=None):
        self.response = response
        self.exc = exc
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append((url, params))
        if self.exc:
            raise self.exc
        return self.response


def test_fetch_and_cache(tmp_path):
    data = [
        {"label": "11.2.a.a", "level": 11, "weight": 2, "field_poly": [0, 1],
         "an": [[1], [-2], [-1], [2], [1], [2]]},
    ]
    session = _FakeSession(_FakeResponse(200, {"data": data}))
    recs = fetch_newforms(11, endpoint="http://x/api", cache_dir=tmp_path, session=session)
    assert len(recs) == 1 and recs[0].label == "11.2.a.a"
    assert (tmp_path / "newforms_11.json").exists()
    # offline serves the cache
    recs2 = fetch_newforms(11, cache_dir=tmp_path, offline=True)
    assert recs2 == recs
    # network failure with warm cache -> cache + warning
    failing = _FakeSession(exc=ConnectionError("down"))
    with pytest.warns(UserWarning, match="cached"):
        recs3 = fetch_newforms(11, endpoint="http://x/api", cache_dir=tmp_path, session=failing)
    assert recs3 == recs


def test_fetch_errors(tmp_path):
    failing = _FakeSession(exc=ConnectionError("down"))
    with pytest.raises(NetworkUnavailable):
        fetch_newforms(13, endpoint="http://x/api", cache_dir=tmp_path, session=failing)
    with pytest.raises(NetworkUnavailable):
        fetch_newforms(13, cache_dir=tmp_path, offline=True)
    bad_shape = _FakeSession(_FakeResponse(200, {"rows": []}))
    with pytest.raises(NewformDataError):
        fetch_newforms(13, endpoint="http://x/api", cache_dir=tmp_path, session=bad_shape)
    http500 = _FakeSession(_FakeResponse(500, {}))
    with pytest.raises(NetworkUnavailable):
        fetch_newforms(13, endpoint="http://x/api", cache_dir=tmp_path, session=http500)
    # malformed remote payload -> typed error, nothing cached
    bad_rec = _FakeSession(_FakeResponse(200, {"data": [{"label": 1}]}))
    with pytest.raises(NewformDataError):
        fetch_newforms(13, endpoint="http://x/api", cache_dir=tmp_path, session=bad_rec)
    assert not (tmp_path / "newforms_13.json").exists()


REC_11 = {"label": "11.2.a.a", "level": 11, "weight": 2, "field_poly": [0, 1],
          "an": [[1], [-2], [-1], [2], [1], [2]]}


@pytest.mark.parametrize("exc", [
    urllib.error.URLError(ConnectionRefusedError(111, "Connection refused")),
    TimeoutError("timed out"),
    http.client.IncompleteRead(b"{"),
], ids=["refused", "timeout", "incomplete-read"])
def test_fetch_default_transport_unreachable(tmp_path, monkeypatch, exc):
    """Without a session the GET goes to `urllib.request.urlopen`, here a stub
    that fails as an unreachable endpoint would: an empty cache raises
    NetworkUnavailable naming the endpoint, and a warm cache is served with
    the warning."""
    urls = []

    def urlopen(url, timeout):
        urls.append((url, timeout))
        raise exc

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(NetworkUnavailable, match=r"^cannot reach http://x/api: "):
        fetch_newforms(11, endpoint="http://x/api", cache_dir=tmp_path)
    assert urls == [("http://x/api?level=11&weight=2", 30)]
    (tmp_path / "newforms_11.json").write_text(json.dumps([REC_11]))
    with pytest.warns(UserWarning, match="serving cached data"):
        recs = fetch_newforms(11, endpoint="http://x/api", cache_dir=tmp_path)
    assert recs == fetch_newforms(11, cache_dir=tmp_path, offline=True)


def test_default_transport_closes_an_error_response(tmp_path, monkeypatch):
    """An HTTP error status from `urlopen` is a response with that status,
    whose body is closed: the fetch raises NetworkUnavailable naming it,
    although the cache is warm."""
    body, raised = io.BytesIO(b"busy"), []  # `raised` keeps the error from being collected

    def urlopen(url, timeout):
        raised.append(urllib.error.HTTPError(url, 503, "Service Unavailable", {}, body))
        raise raised[-1]

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    (tmp_path / "newforms_11.json").write_text(json.dumps([REC_11]))
    with pytest.raises(NetworkUnavailable, match=r"^endpoint returned HTTP 503$"):
        fetch_newforms(11, endpoint="http://x/api", cache_dir=tmp_path)
    assert body.closed


def test_records_of_another_level_are_a_data_error(tmp_path):
    """A record whose level is not the one asked for is a NewformDataError
    that names it: from the endpoint, which then caches nothing; from the
    cache offline; and from a warm cache served for an unreachable endpoint."""
    other = r"record 11\.2\.a\.a has level 11, not 37$"
    session = _FakeSession(_FakeResponse(200, {"data": [REC_11]}))
    with pytest.raises(NewformDataError, match=r"^http://x/api\?level=37: " + other):
        fetch_newforms(37, endpoint="http://x/api", cache_dir=tmp_path, session=session)
    assert not any(tmp_path.iterdir())
    (tmp_path / "newforms_37.json").write_text(json.dumps([REC_11]))
    with pytest.raises(NewformDataError, match=other):
        fetch_newforms(37, cache_dir=tmp_path, offline=True)
    failing = _FakeSession(exc=ConnectionError("down"))
    with pytest.raises(NewformDataError, match=other), pytest.warns(UserWarning, match="cached"):
        fetch_newforms(37, endpoint="http://x/api", cache_dir=tmp_path, session=failing)


class _Loopback(http.server.BaseHTTPRequestHandler):
    """Answers each GET with the next of the server's `replies`, (status,
    body) pairs, and records the request path in the server's `paths`."""

    def do_GET(self):
        self.server.paths.append(self.path)
        status, body = self.server.replies.pop(0)
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """An HTTP server on 127.0.0.1, serving from a thread; no proxy is used."""
    monkeypatch.setenv("no_proxy", "*")
    server = http.server.HTTPServer(("127.0.0.1", 0), _Loopback)
    server.paths, server.replies = [], []
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_default_transport_on_loopback(tmp_path, loopback):
    """The `urllib.request` transport keeps the fetch's contract: the query
    is added with `?` or `&`; a 200 gives the records and a cache file; a 500
    is an error even with a warm cache; a body that is not JSON caches
    nothing; a refused connection serves the warm cache with the warning."""
    api = "http://%s:%d/api" % loopback.server_address
    body = json.dumps({"data": [REC_11]}).encode()
    loopback.replies += [(200, body), (200, body)]
    recs = fetch_newforms(11, endpoint=api, cache_dir=tmp_path)
    assert [r.label for r in recs] == ["11.2.a.a"]
    assert json.loads((tmp_path / "newforms_11.json").read_text()) == [REC_11]
    assert fetch_newforms(11, endpoint=api + "?key=k", cache_dir=tmp_path) == recs
    assert loopback.paths == ["/api?level=11&weight=2", "/api?key=k&level=11&weight=2"]

    loopback.replies.append((500, b"{}"))
    with pytest.raises(NetworkUnavailable, match=r"^endpoint returned HTTP 500$"):
        fetch_newforms(11, endpoint=api, cache_dir=tmp_path)
    loopback.replies.append((200, b"<html></html>"))
    with pytest.raises(NewformDataError, match="non-JSON payload"):
        fetch_newforms(13, endpoint=api, cache_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["newforms_11.json"]
    assert loopback.replies == [] and len(loopback.paths) == 4

    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))  # bound but not listening: a connect is refused
        refused = "http://%s:%d/api" % closed.getsockname()
        with pytest.warns(UserWarning, match="serving cached data"):
            assert fetch_newforms(11, endpoint=refused, cache_dir=tmp_path) == recs


def test_a_given_session_loads_no_http_client(tmp_path):
    """`fetch_newforms` with a caller's session, in a fresh interpreter,
    imports none of `requests`, `urllib.request` or `http.client`."""
    probe = textwrap.dedent(f"""
        import sys
        from eiscong.newforms import fetch_newforms

        class Session:
            status_code = 200

            def get(self, url, params=None, timeout=None):
                return self

            def json(self):
                return {{"data": [{REC_11!r}]}}

        recs = fetch_newforms(11, cache_dir={str(tmp_path)!r}, session=Session())
        http = ("requests", "urllib.request", "http.client")
        print([r.label for r in recs], [m for m in http if m in sys.modules])
    """)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=fresh_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "['11.2.a.a'] []\n"
    assert (tmp_path / "newforms_11.json").exists()


def test_nothing_imports_requests():
    """No module of the package or the tests imports `requests`: the fetch
    runs on the standard library."""
    root = Path(__file__).resolve().parents[1]
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "requests" for name in names), path


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("EISCONG_CACHE", str(tmp_path))
    data = [{"label": "14.2.a.a", "level": 14, "weight": 2, "field_poly": [0, 1],
             "an": [[1], [-1], [-2], [1], [0], [2]]}]
    session = _FakeSession(_FakeResponse(200, {"data": data}))
    fetch_newforms(14, endpoint="http://x/api", session=session)
    assert (tmp_path / "newforms_14.json").exists()


def test_cache_write_failure_keeps_old_file(tmp_path, monkeypatch):
    """A write that fails halfway leaves the previous cache file whole and no
    temp file behind."""
    import os

    old = [{"label": "11.2.a.a", "level": 11, "weight": 2, "field_poly": [0, 1],
            "an": [[1], [-2], [-1], [2], [1], [2]]}]
    fetch_newforms(11, endpoint="http://x/api", cache_dir=tmp_path,
                   session=_FakeSession(_FakeResponse(200, {"data": old})))
    cache_file = tmp_path / "newforms_11.json"
    before = cache_file.read_bytes()

    class _DiskFull(io.StringIO):
        def __init__(self, fd):
            super().__init__()
            self.fd = fd

        def write(self, text):
            os.write(self.fd, text[: len(text) // 2].encode())
            raise OSError(28, "No space left on device")

        def close(self):
            os.close(self.fd)
            super().close()

    monkeypatch.setattr(os, "fdopen", lambda fd, mode="r": _DiskFull(fd))
    new = [dict(old[0], an=old[0]["an"] + [[-2], [0]])]
    with pytest.raises(OSError):
        fetch_newforms(11, endpoint="http://x/api", cache_dir=tmp_path,
                       session=_FakeSession(_FakeResponse(200, {"data": new})))
    monkeypatch.undo()
    assert cache_file.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["newforms_11.json"]
    assert len(fetch_newforms(11, cache_dir=tmp_path, offline=True)[0].an) == 6


def test_fixture_script_regenerates_121(monkeypatch):
    """The fixture generator rebuilds the bundled level-121 file byte for
    byte, and level 171, whose 4-dimensional orbit 171.2.a.e takes the HNF
    basis fallback, to pinned bytes that parse."""
    import hashlib

    script = fixture_script(monkeypatch)
    bundled = (script.DATA_DIR / "newforms_121.json").read_text()
    assert json.dumps(script.build_level(121, 32), indent=1) == bundled

    recs = script.build_level(171, 40)
    text = json.dumps(recs, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "75355a1bc9b4e85f6adf6f19a7d15f6a66aab703c44680294e7b64818ffeb27c")
    assert "basis_matrix" in next(r for r in recs if r["label"] == "171.2.a.e")
    parsed = parse_newforms(json.loads(text))
    assert [r.label for r in parsed] == [r["label"] for r in recs]


@pytest.mark.parametrize("N, bound", [(234, 94), (725, 160)])
def test_fixture_script_regenerates_bundled(monkeypatch, N, bound):
    """The bundled levels 234 (five rational newforms, found on the second
    choice of generic operator) and 725 (orbits of degree up to 6, 725.2.a.l
    on its published basis) regenerate byte for byte."""
    script = fixture_script(monkeypatch)
    bundled = (script.DATA_DIR / f"newforms_{N}.json").read_text()
    assert json.dumps(script.build_level(N, bound), indent=1) == bundled


@pytest.mark.parametrize("N, bound", [(121, 32), (234, 94), (725, 160), (169, sturm_bound(169)),
                                      (289, sturm_bound(289)), (361, sturm_bound(361))])
def test_an_recursion_matches_the_oracle(monkeypatch, N, bound):
    """The one recursion over n gives the a_n vectors of the former table of
    prime powers, for every orbit up to the bound the fixtures use."""
    script = fixture_script(monkeypatch)
    orbits = script.extract_newforms(N, bound)
    for o in orbits:
        script.finalize_orbit(o, bound)
        assert o.an_vectors(bound) == fixtures_oracle.an_vectors(o, bound), o.field_poly


def test_fixture_script_selfcheck(monkeypatch):
    """`--selfcheck`: the known newforms at levels 11, 23, 29 and 37."""
    fixture_script(monkeypatch).selfcheck()


def test_fixture_script_needs_no_sympy():
    """Generating newforms imports no sympy (in a fresh interpreter, since
    another test may have imported it)."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_newform_fixtures.py"
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('m', sys.argv[1])\n"
        "m = importlib.util.module_from_spec(spec); spec.loader.exec_module(m)\n"
        "m.build_level(121, 32)\n"
        "print('sympy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(script)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
