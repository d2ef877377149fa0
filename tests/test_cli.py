import json
import os
import re
import subprocess
import sys
import time
from functools import partial
from importlib import resources
from pathlib import Path

import pytest
from helpers import fresh_env

import eiscong
from eiscong import arith, cli, newforms
from eiscong.arith import is_prime
from eiscong.cli import _display_factorization, main
from eiscong.eisenstein import PRECISION_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


QEXP_3000 = ("qexp", "--level", "121", "--char", "11.10.1", "--prec", "3000")  # 234 KB of stdout


def test_a_closed_stdout_ends_quietly():
    """A reader that closes the pipe after one line ends the command with
    exit 1 and an empty stderr, not a BrokenPipeError traceback."""
    proc = subprocess.Popen([sys.executable, "-m", "eiscong.cli", *QEXP_3000],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
    assert proc.stdout.readline().endswith(b" to q^3000:\n")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [("beta", "--level", "121", "--char", "11.2.1"), QEXP_3000],
                         ids=["buffered", "large"])
def test_a_full_stdout_is_an_error(argv):
    """Output into a full device is an error (exit 1) with one line on
    stderr, whether it fails at a write or only at the final flush."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "eiscong.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=fresh_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 28] No space left on device\n")


def test_beta_golden(capsys):
    code, out, _ = run_cli(capsys, "beta", "--level", "121", "--char", "11.2.1")
    assert code == 0
    assert out.splitlines()[0] == "605*sqrt(-11)"
    assert "cyclotomic form" in out


def test_classify_golden(capsys):
    code, out, _ = run_cli(capsys, "classify", "--level", "725", "--p", "5")
    assert code == 0
    assert "{2, 3, 5, 7}" in out


@pytest.mark.parametrize("level, p, s1, s2", [
    (289, 17, [2, 3], [2, 3, 17, 73]),
    (529, 23, [2, 3, 11], [2, 3, 11, 23, 37181]),
], ids=["289", "529"])
def test_classify_factors_norms_above_2_64(capsys, level, p, s1, s2):
    """At p = 17 and 23 the norms behind S2 exceed 2**64 (2^26 3^8 17^6 73^2
    at 289); their cofactor after trial division does not, so they factor."""
    code, out, err = run_cli(capsys, "classify", "--level", str(level), "--p", str(p), "--json")
    assert code == 0 and not err
    payload = json.loads(out)
    assert (payload["S1"], payload["S2"]) == (s1, s2)
    assert payload["candidates"] == sorted(set(s1) | set(s2) | {2, 3, p})


def test_basis(capsys):
    code, out, _ = run_cli(capsys, "basis", "--level", "725", "--p", "5")
    assert code == 0 and "6 series" in out
    code, out, _ = run_cli(capsys, "basis", "--level", "121", "--p", "11")
    assert code == 0 and "9 series" in out
    code, _, err = run_cli(capsys, "basis", "--level", "10", "--p", "3")
    assert code == 2 and "not 3-good" in err


def test_qexp(capsys):
    code, out, _ = run_cli(
        capsys, "qexp", "--level", "121", "--char", "11.2.1", "--prec", "12"
    )
    assert code == 0
    assert "q - 3*q^2 + 4*q^3 + 7*q^4" in out
    assert "2: -3" in out


def test_order(capsys):
    code, out, _ = run_cli(capsys, "order", "--level", "121", "--char", "11.2.1")
    assert code == 0
    assert str(605 ** 10 * 11 ** 5) in out


def test_order_display_factors_above_2_64(monkeypatch):
    """The order's "= ..." line is `factor`'s: 10007^5 > 2**64 is a prime
    power, not a whole cofactor.  Only a cofactor that `factor` refuses, free
    of primes below 10**6 and >= 2**64, stays whole, and the primes beside
    it come from the one trial division that `factor` ran."""
    assert _display_factorization(10007 ** 5) == "10007^5"
    assert _display_factorization(605 ** 10 * 11 ** 5) == "5^10 * 11^25"
    assert _display_factorization(1) == "1"
    P = next(n for n in range(2 ** 33 + 1, 2 ** 34, 2) if is_prime(n))
    Q = next(n for n in range(P + 2, 2 ** 34, 2) if is_prime(n))
    assert P * Q >= 2 ** 64
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)

    real = arith.trial_division
    monkeypatch.setattr(arith, "trial_division", counting)
    # and under any name the display module could hold for it
    monkeypatch.setattr(cli, "trial_division", counting, raising=False)
    assert _display_factorization(24 * 10007 * P * Q) == f"2^3 * 3 * 10007 * {P * Q}"
    assert calls == [24 * 10007 * P * Q]


def test_scan_table_234(capsys):
    code, out, _ = run_cli(capsys, "scan", "--level", "234", "--p", "3", "--offline")
    assert code == 0
    assert "E[3.2.1;M=13,L=2]@234 = 234.2.a.b (mod 7)" in out
    assert "U_13 + 1" in out
    assert "1 certified" in out


def test_json_round_trip(capsys):
    for argv in (
        ("classify", "--level", "725", "--p", "5", "--json"),
        ("beta", "--level", "121", "--char", "11.2.1", "--json"),
        ("basis", "--level", "121", "--p", "11", "--json"),
        ("scan", "--level", "121", "--p", "11", "--offline", "--json"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


@pytest.mark.parametrize("label", ["1_1.2.1", " 11.2.1", "+11.2.+1", "011.2.1"])
def test_label_must_read_back_as_written(capsys, label):
    """int() reads these as 11.2.1, but a label's numbers must be spelled
    exactly as they read back: no digit separator, space, sign or leading zero."""
    for cmd in ("beta", "qexp"):
        code, out, err = run_cli(capsys, cmd, "--level", "121", "--char", label)
        assert (code, out) == (2, "") and err == f"error: bad character label {label!r}\n"


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "beta", "--level", "121", "--char", "11.3.1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "qexp", "--level", "120", "--char", "11.2.1")
    assert code == 2
    # a bound or precision below 1 is refused, not answered vacuously
    code, out, err = run_cli(capsys, "scan", "--level", "121", "--p", "11", "--bound", "0",
                             "--offline")
    assert code == 2 and not out and "at least 1" in err
    code, out, err = run_cli(capsys, "qexp", "--level", "121", "--char", "11.2.1",
                             "--prec", "-3")
    assert code == 2 and not out and "at least 1" in err


def test_qexp_prec_zero_is_refused(capsys):
    """An explicit --prec 0 reaches build_E's check; it is not read as "no
    precision given" and answered at the Sturm bound."""
    code, out, err = run_cli(capsys, "qexp", "--level", "121", "--char", "11.2.1",
                             "--prec", "0")
    assert code == 2
    assert out == ""
    assert err == "error: the precision must be at least 1 (got 0)\n"


def test_qexp_prec_above_cap_is_refused(capsys):
    """A precision above the cap is refused before build_E allocates anything:
    10**7 would need about 4 GB, the refusal returns at once."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "qexp", "--level", "121", "--char", "11.2.1",
                             "--prec", "10000000")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err == f"error: precision cap exceeded: 10000000 > {PRECISION_CAP}\n"


def test_fetch_offline_no_cache(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "fetch", "--level", "11", "--offline", "--cache-dir", str(tmp_path)
    )
    assert code == 1 and "cache" in err


def test_fetch_offline_warm_cache(capsys, tmp_path):
    data = [{"label": "11.2.a.a", "level": 11, "weight": 2, "field_poly": [0, 1],
             "an": [[1], [-2], [-1], [2], [1], [2]]}]
    (tmp_path / "newforms_11.json").write_text(json.dumps(data))
    argv = ("fetch", "--level", "11", "--offline", "--cache-dir", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "fetched 1 newform records for level 11:\n  11.2.a.a (degree 1, 6 coefficients)\n"
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"level": 11, "records": [
        {"label": "11.2.a.a", "degree": 1, "coefficients": 6}]}


@pytest.mark.parametrize("level", [0, -5])
def test_fetch_refuses_a_level_below_one(capsys, tmp_path, monkeypatch, level):
    """`fetch` below level 1 is a domain error (exit 2), offline and online,
    before it reads the cache or sends a request."""
    requests = []

    class Session:
        def get(self, *args, **kwargs):
            requests.append((args, kwargs))

    monkeypatch.setattr(cli, "fetch_newforms", partial(newforms.fetch_newforms, session=Session()))
    for offline in ((), ("--offline",)):
        code, out, err = run_cli(capsys, "fetch", "--level", str(level),
                                 "--cache-dir", str(tmp_path), *offline)
        assert (code, out, err) == (2, "", f"error: level must be >= 1 (got {level})\n")
    assert requests == [] and not any(tmp_path.iterdir())


def test_scan_at_a_level_without_newforms(capsys, tmp_path):
    """X0(9) has genus 0: `scan --offline` at 9 needs no cache, certifies
    nothing and exits 0.  An empty cache at 169, which has newforms, is a
    data error (exit 1) naming their dimension."""
    argv = ("scan", "--level", "9", "--p", "3", "--offline", "--cache-dir", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == ("scan N=9 p=3 bound=2 candidate primes []:\n"
                   "  no congruences certified\n"
                   "  (0 certified, 0 non-matches, 0 skipped rational reductions)\n")
    assert not any(tmp_path.iterdir())
    (tmp_path / "newforms_169.json").write_text("[]")
    code, out, err = run_cli(capsys, "scan", "--level", "169", "--p", "13", "--offline",
                             "--cache-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == ("error: no newform data for level 169 (S_2^new has dimension 8); "
                   "run `eiscong fetch --level 169` first\n")


@pytest.mark.parametrize("level, p", [(9, 3), (18, 3), (25, 5)])
def test_scan_fetches_nothing_without_newforms(capsys, tmp_path, monkeypatch, level, p):
    """Without --offline, `scan` at a level with no newforms sends no request
    and writes no cache file: its stdout is that of `scan --offline`."""
    calls = []
    monkeypatch.setattr(newforms, "fetch_newforms", lambda *a, **k: calls.append((a, k)))
    argv = ("scan", "--level", str(level), "--p", str(p), "--cache-dir", str(tmp_path),
            "--endpoint", "http://localhost:9/none")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, calls) == (0, "", [])
    assert out == run_cli(capsys, *argv, "--offline")[1]
    assert not any(tmp_path.iterdir())


def test_scan_at_level_zero_keeps_its_error(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(newforms, "fetch_newforms", lambda *a, **k: calls.append((a, k)))
    code, out, err = run_cli(capsys, "scan", "--level", "0", "--p", "3",
                             "--cache-dir", str(tmp_path))
    assert (code, out, err, calls) == (2, "", "error: factor requires n >= 1 (got 0)\n", [])


def test_scan_without_requests_falls_back(capsys, tmp_path, monkeypatch):
    """With no `requests` package and an empty cache, `scan` without
    --offline falls back to the bundled newforms: exit 0 and the stdout of
    `scan --offline`."""
    argv = ("scan", "--level", "121", "--p", "11", "--cache-dir", str(tmp_path))
    monkeypatch.setitem(sys.modules, "requests", None)  # `import requests` fails
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *argv, "--offline")[1]
    assert not any(tmp_path.iterdir())


def test_cli_import_stays_light():
    """`import eiscong.cli` in a fresh interpreter loads neither the
    Manin-symbol code nor requests (the README promises both), nor
    `dataclasses` or `inspect`, whose import and class generation cost each
    process ~15 ms; and no source file in the package holds the words
    `exec`, `eval` or `inspect`, or the string `dataclass`."""
    package = Path(eiscong.__file__).parent
    heavy = ("eiscong.modsym", "requests", "dataclasses", "inspect")
    probe = f"import sys, eiscong.cli; print(sorted(m for m in {heavy} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=fresh_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        assert "dataclass" not in text, path.name
        assert not set(re.findall(r"\w+", text)) & {"exec", "eval", "inspect"}, path.name


def test_scan_reports_unusable_newform(capsys, monkeypatch):
    """A newform with 5 in a denominator, among the records the resolver
    serves, is listed as skipped; the rational-reduction count and the
    certified hits stay as they were."""
    from fractions import Fraction

    from eiscong.newforms import NewformRecord, bundled_newforms
    from helpers import integer_coefficient, newform_coefficient

    recs = bundled_newforms(121)
    d = recs[-1]
    bad = NewformRecord("121.2.a.z", 121, 2, d.field_poly,
                        (d.an[0], integer_coefficient([newform_coefficient(d, 2)[0] + Fraction(1, 5)]))
                        + d.an[2:])
    monkeypatch.setattr(newforms, "bundled_newforms", lambda level: recs + [bad])
    code, out, _ = run_cli(capsys, "scan", "--level", "121", "--p", "11")
    assert code == 0
    assert "(5 certified, 15 non-matches, 4 skipped rational reductions)" in out
    assert out.splitlines()[-1].startswith("  skipped 121.2.a.z at l=5: ")


class _RecordingRequests:
    """A stand-in for the `requests` module that opens no socket: it records
    each GET and serves `data`, or raises RequestException when `data` is
    None."""

    class RequestException(OSError):
        pass

    status_code = 200

    def __init__(self, data=None):
        self.data, self.calls = data, []

    def get(self, url, params=None, timeout=None):
        self.calls.append((url, params))
        if self.data is None:
            raise self.RequestException("connection refused")
        return self

    def json(self):
        return {"data": self.data}


STUB = "http://stub.invalid/api"


def test_online_scan_at_a_bundled_level_sends_no_request(capsys, tmp_path, monkeypatch):
    """At a bundled level, `scan` without --offline reads the bundled
    fixtures: no request, no cache file, and the stdout of `scan --offline`,
    even where the endpoint would serve other records."""
    data = json.loads(resources.files("eiscong.data").joinpath("newforms_121.json").read_text())
    for item in data:
        item["label"] = item["label"][:-1] + "NET" + item["label"][-1]
    stub = _RecordingRequests(data)
    monkeypatch.setitem(sys.modules, "requests", stub)
    argv = ("scan", "--level", "121", "--p", "11", "--cache-dir", str(tmp_path),
            "--endpoint", STUB)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, stub.calls) == (0, "", [])
    assert out == run_cli(capsys, *argv, "--offline")[1]
    assert not any(tmp_path.iterdir())


def test_online_scan_reads_a_warm_cache_first(capsys, tmp_path, monkeypatch):
    """With a warm cache, here the fixture generator's records at 169, `scan`
    without --offline sends no request and prints what `scan --offline`
    prints from that cache."""
    from helpers import fixture_script

    data = fixture_script(monkeypatch).build_level(169, arith.sturm_bound(169))
    (tmp_path / "newforms_169.json").write_text(json.dumps(data))
    stub = _RecordingRequests([])
    monkeypatch.setitem(sys.modules, "requests", stub)
    argv = ("scan", "--level", "169", "--p", "13", "--cache-dir", str(tmp_path),
            "--endpoint", STUB)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, stub.calls) == (0, "", [])
    assert out == run_cli(capsys, *argv, "--offline")[1]
    assert "(5 certified, " in out


def test_online_scan_reports_an_unreachable_endpoint(capsys, tmp_path, monkeypatch):
    """With no cache and an endpoint that cannot be reached, `scan` without
    --offline exits 1 with an error that names the endpoint, not an offline
    cache miss; it sends one request and writes nothing."""
    stub = _RecordingRequests()
    monkeypatch.setitem(sys.modules, "requests", stub)
    code, out, err = run_cli(capsys, "scan", "--level", "169", "--p", "13",
                             "--cache-dir", str(tmp_path), "--endpoint", STUB)
    assert (code, out) == (1, "")
    assert err == f"error: cannot reach {STUB}: connection refused\n"
    assert stub.calls == [(STUB, {"level": 169, "weight": 2})]
    assert not any(tmp_path.iterdir())
