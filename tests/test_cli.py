import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eiscong
from eiscong import arith, cli
from eiscong.arith import is_prime
from eiscong.cli import _display_factorization, main
from eiscong.eisenstein import PRECISION_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    monkeypatch.setattr(cli, "fetch_newforms", lambda *a, **k: calls.append((a, k)))
    argv = ("scan", "--level", str(level), "--p", str(p), "--cache-dir", str(tmp_path),
            "--endpoint", "http://localhost:9/none")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, calls) == (0, "", [])
    assert out == run_cli(capsys, *argv, "--offline")[1]
    assert not any(tmp_path.iterdir())


def test_scan_at_level_zero_keeps_its_error(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "fetch_newforms", lambda *a, **k: calls.append((a, k)))
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
    src = str(package.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    heavy = ("eiscong.modsym", "requests", "dataclasses", "inspect")
    probe = f"import sys, eiscong.cli; print(sorted(m for m in {heavy} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        assert "dataclass" not in text, path.name
        assert not set(re.findall(r"\w+", text)) & {"exec", "eval", "inspect"}, path.name


def test_scan_reports_unusable_newform(capsys, monkeypatch):
    """A fetched newform with 5 in a denominator is listed as skipped; the
    rational-reduction count and the certified hits stay as they were."""
    from fractions import Fraction

    from eiscong.newforms import NewformRecord, bundled_newforms
    from helpers import integer_coefficient

    recs = bundled_newforms(121)
    d = recs[-1]
    bad = NewformRecord("121.2.a.z", 121, 2, d.field_poly,
                        (d.an[0], integer_coefficient([d.coefficient(2)[0] + Fraction(1, 5)]))
                        + d.an[2:])
    monkeypatch.setattr(cli, "fetch_newforms", lambda *a, **k: recs + [bad])
    code, out, _ = run_cli(capsys, "scan", "--level", "121", "--p", "11")
    assert code == 0
    assert "(5 certified, 15 non-matches, 4 skipped rational reductions)" in out
    assert out.splitlines()[-1].startswith("  skipped 121.2.a.z at l=5: ")
