"""The three benchmark workloads.

Each workload is a closed loop with one client: one operation in flight at a
time, and at most one CLI child process.  A workload

- `setup()`: imports eiscong, parses what it needs and fills the module
  caches (timed as `setup_s`);
- `prepare(rng)`: builds its seeded inputs and the oracles (untimed);
- `pass_ops(rng, index)`: the operations of one pass, in seeded order.

An `Op` is a timed call and a check that runs outside the timed region and
returns an error message or None.  A traced op makes the library's call chain
itself where the chain is a sequence of public calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

from tracing import span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = HERE / "goldens.json"


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    name: str
    call: Callable  # call(tracer or None) -> result
    check: Callable  # check(result) -> error message or None
    group: str | None = None  # ops of one group feed conjugate_spread


# -------------------------------------------------------------- order-orbit

SMALL_ORDER_CHARS = ("11.2.1", "11.5.1")


class OrderOrbit:
    """cuspidal_order(E_{phi,121,1,1}) over the nine nontrivial phi mod 11.

    lattices.hnf does nearly all of the work, and no other workload reaches
    it.  The eight degree-40 conjugates share one answer but cost from 0.3 s
    to 30 s each, so this workload shows whether a change removes that spread
    or only speeds up the cheap cases; the slow conjugates must stay in the
    pass.  A run is one pass, of a minute or more."""

    name = "order-orbit"
    rss = resource.RUSAGE_SELF
    min_passes = 1

    def __init__(self, small: bool, goldens: dict):
        self.small = small
        self.goldens = goldens["order_121"]

    def setup(self) -> None:
        from eiscong import (EisensteinParams, cyclotomic_polynomial,
                             enumerate_characters)
        chars = [c for c in enumerate_characters(11) if not c.is_trivial()]
        if self.small:
            chars = [c for c in chars if c.label() in SMALL_ORDER_CHARS]
        self.params = [EisensteinParams(c, 121, 1, 1) for c in chars]
        for P in self.params:
            cyclotomic_polynomial(P.field().m)

    def prepare(self, rng) -> None:
        from eiscong import beta_tilde
        # the resultant oracle |N(beta-tilde)|, independent of the HNF
        self.oracle = {P.phi.label(): abs(beta_tilde(P).norm_to_Q()) for P in self.params}

    def pass_ops(self, rng, index: int) -> list[Op]:
        ops = [self._op(P) for P in self.params]
        rng.shuffle(ops)
        return ops

    def _op(self, P) -> Op:
        label = P.phi.label()
        conjugate = P.field().degree == 40
        # one golden for all eight degree-40 conjugates: their orders must agree
        want = int(self.goldens["degree-40" if conjugate else label])

        def check(order):
            if order != self.oracle[label]:
                return f"order {label}: {order} != |N(beta-tilde)| = {self.oracle[label]}"
            if order != want:
                return f"order {label}: {order} != golden {want}"
            return None

        return Op(f"order {label}", partial(_cuspidal_order, P), check,
                  "conjugates" if conjugate else None)


def _cuspidal_order(P, tracer):
    from eiscong import cusps, ideals, lattices
    if tracer is None:
        return ideals.cuspidal_order(P)
    # the library's own path for integral beta-tilde, one public call at a time
    bt = cusps.beta_tilde(P)
    if not bt.is_integral():
        raise ValueError(f"beta-tilde of {P.label()} is not integral")
    K = bt.field
    with tracer.span("cyclotomic.mul_rows"):
        rows = [[int(c) for c in (bt * K.zeta(i)).coeffs] for i in range(K.degree)]
    basis = lattices.hnf(rows)
    with tracer.span("lattices.index") as rec:
        index = lattices.IntegralIdeal(K, tuple(tuple(r) for r in basis)).index()
    rec[5]["index_bits"] = index.bit_length()
    return index


# -------------------------------------------------------------- scan-levels

LEVELS = ((121, 11), (234, 3), (725, 5))
SMALL_LEVELS = ((234, 3),)
RANDOM_PARAMS, SMALL_RANDOM_PARAMS = 25, 3
STUB_ENDPOINT = "stub://newforms"

# The paper's ideal displays (acceptance criterion 7), byte for byte.
DISPLAY_GOLDENS = {
    "121": (
        "<5, U_11, {T_r - 1 - r : r = 1, 3, 4, 5, 9} (mod 11), "
        "{T_r + 1 + r : r = 2, 6, 7, 8, 10} (mod 11)>"
    ),
    "725.F7": (
        "<7, U_5, U_29 - 1, {T_r - 1 - r : r = 1, 4} (mod 5), "
        "{T_r + 1 + r : r = 2, 3} (mod 5)>"
    ),
    "725.F49": (
        "<7, U_5, U_29 + 1, {T_r - 1 - r : r = 1} (mod 5), "
        "{T_r + 1 + r : r = 4} (mod 5), {T_r^2 + (1 - r)^2 : r = 2, 3} (mod 5)>"
    ),
    "234": (
        "<7, U_3, U_2 + 1, U_13 + 1, {T_r - 1 - r : r = 1} (mod 3), "
        "{T_r + 1 + r : r = 2} (mod 3)>"
    ),
}


class _StubResponse:
    status_code = 200

    def __init__(self, payload):
        self._payload = payload

    def json(self):
        return {"data": self._payload}


class _StubSession:
    """In-process stand-in for `requests`: serves the bundled payload."""

    def __init__(self, payload):
        self._payload = payload

    def get(self, url, params=None, timeout=None):
        return _StubResponse(self._payload)


def scan_payload(res) -> str:
    """Canonical JSON of a FullScanResult (the `scan --json` fields)."""
    return json.dumps({
        "level": res.level,
        "p": res.p,
        "bound": res.bound,
        "candidate_primes": list(res.candidate_primes),
        "hits": [
            {"eisenstein": h.report.eisenstein, "newform": h.report.newform,
             "prime": h.report.prime, "largest_M": h.largest_M,
             "descriptor": h.descriptor.to_json()}
            for h in res.hits
        ],
        "reports": [r.to_json() for r in res.reports],
        "skipped": list(res.skipped),
    }, sort_keys=True)


def expansion_digest(E) -> str:
    return sha256("\n".join(E.machine_lines()))


def certificate_error(N: int, res) -> str | None:
    """The section-7 congruence certificates (acceptance criterion 3)."""
    hits = res.hits
    if N == 121:
        if len(hits) != 5 or {(h.report.newform, h.report.prime) for h in hits} != {("121.2.a.d", 5)}:
            return "121: expected five hits, all 121.2.a.d mod 5"
        if any(h.descriptor.render() != DISPLAY_GOLDENS["121"] for h in hits):
            return "121: descriptor display differs from the paper"
    elif N == 234:
        got = [(h.params.M, h.params.L, h.report.newform, h.report.prime) for h in hits]
        if got != [(13, 2, "234.2.a.b", 7)]:
            return f"234: expected exactly (13, 2, 234.2.a.b, 7), got {got}"
        if hits[0].descriptor.render() != DISPLAY_GOLDENS["234"]:
            return "234: descriptor display differs from the paper"
    elif N == 725:
        labels = {h.params.phi.label() for h in hits}
        if labels != {"5.2.1", "5.4.1", "5.4.3"}:
            return f"725: hits for {sorted(labels)}"
        for h in hits:
            if h.params.phi.label() == "5.2.1":
                ok = (h.report.newform == "725.2.a.b" and h.report.embedding[1] == (3,)
                      and h.descriptor.render() == DISPLAY_GOLDENS["725.F7"])
            else:
                ok = (h.report.newform == "725.2.a.l" and h.descriptor.residue_field() == "F_49"
                      and h.descriptor.render() == DISPLAY_GOLDENS["725.F49"])
            if not ok:
                return f"725: certificate for {h.params.label()} differs from the paper"
    return None


def multiplicativity_error(E, B: int) -> str | None:
    """Oracle for a normalized Hecke eigenform: a_1 = 1 and a_mn = a_m a_n."""
    from eiscong.arith import factor
    if E.coefficient(1) != E.coefficient(1).field.one():
        return "a_1 != 1"
    for n in range(2, B + 1):
        parts = [E.coefficient(p ** e) for p, e in factor(n)]
        if len(parts) > 1:
            prod = parts[0]
            for c in parts[1:]:
                prod = prod * c
            if prod != E.coefficient(n):
                return f"a_{n} != product of its prime-power coefficients"
    return None


def random_pgood_params(rng, count: int, nprime_max: int = 30):
    """Random valid EisensteinParams at p-good levels, p in {3, 5}; the same
    draw as tests/helpers.random_pgood_params."""
    from eiscong import EisensteinParams, enumerate_characters
    from eiscong.arith import divisors, primes_up_to
    out = []
    while len(out) < count:
        p = rng.choice((3, 5))
        eligible = [q for q in primes_up_to(nprime_max) if q != p and q % p in (1, p - 1)]
        Nprime = 1
        for q in eligible:
            if rng.random() < 0.4 and Nprime * q <= nprime_max:
                Nprime *= q
        N = p * p * Nprime
        chars = [c for c in enumerate_characters(p) if not c.is_trivial()]
        phi = rng.choice(chars)
        M = rng.choice(divisors(Nprime))
        out.append(EisensteinParams(phi, N, M, Nprime // M))
    return out


# With at least 11 passes the ten samples beyond the latency tail are all
# repeats of the slowest op, so the tail does not jump to another op when a
# slower machine fits fewer passes into --seconds.
MIN_PASSES = 11


class ScanLevels:
    """full_scan at 121, 234 and 725, plus verify_boundary and build_E at the
    Sturm bound over each level's eigenbasis and over seeded random p-good
    parameter sets.  One level per pass reads its newforms through a cache
    it has just written.  Exercises scanner, ffield, cusps, cyclotomic
    (degree-40 boundary arithmetic at 121), eisenstein and newforms, and
    never lattices."""

    name = "scan-levels"
    rss = resource.RUSAGE_SELF

    def __init__(self, small: bool, goldens: dict):
        self.min_passes = 1 if small else MIN_PASSES
        self.levels = SMALL_LEVELS if small else LEVELS
        self.n_random = SMALL_RANDOM_PARAMS if small else RANDOM_PARAMS
        self.goldens = goldens

    def setup(self) -> None:
        from importlib import resources

        from eiscong import enumerate_cusps
        from eiscong.newforms import parse_newforms
        from eiscong.scanner import eisenstein_basis
        data = resources.files("eiscong.data")
        self.payload = {N: json.loads(data.joinpath(f"newforms_{N}.json").read_text())
                        for N, _ in self.levels}
        self.records = {N: parse_newforms(self.payload[N]) for N in self.payload}
        self.basis = [P for N, p in self.levels for P in eisenstein_basis(N, p)]
        for N, _ in self.levels:
            enumerate_cusps(N)
        for P in self.basis:
            P.field()

    def prepare(self, rng) -> None:
        self.random = random_pgood_params(rng, self.n_random)
        self.cache_offset = rng.randrange(len(self.levels))
        self.cache_dir = OUT / "newform-cache"

    def pass_ops(self, rng, index: int) -> list[Op]:
        cache_level = self.levels[(self.cache_offset + index) % len(self.levels)][0]
        ops = [self._scan_op(N, p, N == cache_level) for N, p in self.levels]
        digests = self.goldens["build_E"]
        ops += [self._basis_op([P], f"boundary+E {P.label()}", digests[P.label()]) for P in self.basis]
        # one op for the whole seeded draw, so the op mix (and with it the
        # latency percentiles) is the same for every seed
        ops.append(self._basis_op(self.random, f"boundary+E random x{len(self.random)}", None))
        rng.shuffle(ops)
        return ops

    def _scan_op(self, N: int, p: int, via_cache: bool) -> Op:
        want = self.goldens["scan"][str(N)]

        def call(tracer):
            from eiscong import newforms, scanner
            records = None
            if via_cache:
                with span(tracer, "newforms.cache_write"):
                    newforms.fetch_newforms(N, endpoint=STUB_ENDPOINT, cache_dir=self.cache_dir,
                                            session=_StubSession(self.payload[N]))
                with span(tracer, "newforms.cache_read"):
                    records = newforms.fetch_newforms(N, cache_dir=self.cache_dir, offline=True)
            with span(tracer, "scanner.full_scan"):
                return scanner.full_scan(N, p, records=records), records

        def check(out):
            res, records = out
            if records is not None and records != self.records[N]:
                return f"scan {N}: cache round trip changed the newform records"
            if sha256(scan_payload(res)) != want:
                return f"scan {N}: result differs from the golden scan"
            return certificate_error(N, res)

        name = f"scan {N}" + (" via cache" if via_cache else "")
        return Op(name, call, check)

    def _basis_op(self, params: list, name: str, digest: str | None) -> Op:
        """verify_boundary and build_E at the Sturm bound for each of `params`."""
        from eiscong.arith import sturm_bound

        def call(tracer):
            from eiscong import cusps, eisenstein
            out = []
            for P in params:
                if tracer is None:
                    ok = cusps.verify_boundary(P).ok
                else:  # verify_boundary's two paths, each a public call
                    ok = cusps.boundary_divisor(P) == cusps.closed_form_boundary(P)
                out.append((ok, eisenstein.build_E(P, sturm_bound(P.N))))
            return out

        def check(out):
            for P, (ok, E) in zip(params, out):
                if not ok:
                    return f"{P.label()}: boundary recursion != closed form"
                if digest is not None:
                    if expansion_digest(E) != digest:
                        return f"{P.label()}: q-expansion differs from golden"
                elif (err := multiplicativity_error(E, sturm_bound(P.N))) is not None:
                    return f"{P.label()}: {err}"
            return None

        conjugate = len(params) == 1 and params[0].N == 121 and params[0].field().degree == 40
        return Op(name, call, check, "conjugates" if conjugate else None)


# -------------------------------------------------------------- cli-oneshot

# The README commands; scans run --offline (the other commands take no such flag).
COMMANDS = {
    "classify 725 5": ["classify", "--level", "725", "--p", "5"],
    "beta 121 11.2.1": ["beta", "--level", "121", "--char", "11.2.1"],
    "order 121 11.2.1": ["order", "--level", "121", "--char", "11.2.1"],
    "basis 725 5 --json": ["basis", "--level", "725", "--p", "5", "--json"],
    "qexp 234 3.2.1": ["qexp", "--level", "234", "--char", "3.2.1", "--M", "13", "--L", "2",
                       "--prec", "16"],
    "scan 234 3": ["scan", "--level", "234", "--p", "3", "--offline"],
    "scan 121 11 --json": ["scan", "--level", "121", "--p", "11", "--offline", "--json"],
    "scan 725 5": ["scan", "--level", "725", "--p", "5", "--offline"],
    "beta 121 11.3.1": ["beta", "--level", "121", "--char", "11.3.1"],  # usage error: exit 2
}
SMALL_COMMANDS = ("classify 725 5", "beta 121 11.3.1")
CLI_TIMEOUT_S = 120


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["EISCONG_CACHE"] = str(OUT / "cli-cache")
    return env


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "eiscong.cli", *argv], cwd=ROOT, env=cli_env(),
                          capture_output=True, timeout=CLI_TIMEOUT_S)


class CliOneshot:
    """Fresh `python -m eiscong.cli` children, one at a time.  Each command
    computes little, so interpreter start and `import eiscong` (with
    `requests`) dominate: a lazy import or an argparse change shows here and
    nowhere else."""

    name = "cli-oneshot"
    rss = resource.RUSAGE_CHILDREN  # the largest child

    def __init__(self, small: bool, goldens: dict):
        self.min_passes = 1 if small else MIN_PASSES
        self.names = SMALL_COMMANDS if small else tuple(COMMANDS)
        self.goldens = goldens["cli"]

    def setup(self) -> None:
        # The import is paid by every op, so it is timed in the latencies; set-up
        # is one import in this interpreter, which also writes the bytecode cache.
        import eiscong.cli  # noqa: F401

    def prepare(self, rng) -> None:
        pass

    def pass_ops(self, rng, index: int) -> list[Op]:
        ops = [self._op(name) for name in self.names]
        rng.shuffle(ops)
        return ops

    def _op(self, name: str) -> Op:
        want = self.goldens[name]

        def check(proc):
            if proc.returncode != want["exit"]:
                return f"{name}: exit {proc.returncode}, want {want['exit']}"
            if sha256(proc.stdout) != want["sha256"]:
                return f"{name}: stdout differs from golden"
            if "--json" in COMMANDS[name]:
                text = proc.stdout.decode()
                if json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" != text:
                    return f"{name}: JSON does not re-serialize byte for byte"
            return None

        return Op(name, lambda tracer: run_cli(COMMANDS[name]), check, "commands")

    def layers(self, latencies: list[float], stdout_bytes: float, repeats: int) -> dict:
        """cli.* per-layer metrics, per op, from bare-interpreter and
        `-X importtime` children; command_s is the rest of the median op."""
        env = cli_env()
        starts, own, req = [], [], []
        for _ in range(repeats):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=CLI_TIMEOUT_S)
            starts.append(perf_counter() - t0)
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import eiscong.cli"],
                                  env=env, capture_output=True, check=True, timeout=CLI_TIMEOUT_S)
            cumulative = {}
            for line in proc.stderr.decode().splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
            # eiscong.cli's cumulative time includes the eiscong package and requests
            req.append(cumulative.get("requests", 0.0))
            own.append(cumulative["eiscong.cli"] - req[-1])
        interp, imp, imp_req = median(starts), median(own), median(req)
        return {
            "cli.interp_start_s": interp,
            "cli.import_eiscong_s": imp,
            "cli.import_requests_s": imp_req,
            "cli.command_s": median(latencies) - interp - imp - imp_req,
            "cli.stdout_bytes": stdout_bytes,
        }


WORKLOADS = {w.name: w for w in (OrderOrbit, ScanLevels, CliOneshot)}
