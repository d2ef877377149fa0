"""Command-line front end.

Subcommands: basis, qexp, beta, order, classify, scan, fetch.  Output is
plain text or JSON (--json); exit codes: 0 success, 2 usage/domain error,
1 computational/environment error, a full stdout among them.  A reader that
closes the pipe early ends the command with exit 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import DomainError, RoughCofactorError, factor, prime_divisors, sturm_bound
from .characters import character_from_label, gauss_sum_inverse
from .cusps import beta_tilde, new_dimension
from .cyclotomic import CycElement
from .eisenstein import EisensteinParams, build_E, uq_eigenvalue
from .ideals import candidate_characteristics, cuspidal_order
from .newforms import (DEFAULT_ENDPOINT, NetworkUnavailable, NewformDataError,
                       fetch_newforms)
from .scanner import eisenstein_basis, full_scan


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _sqrt_form(bt: CycElement, params: EisensteinParams) -> str | None:
    """c*sqrt(d) rendering when beta-tilde is rational * tau(phi^{-1})."""
    phi = params.phi
    if phi.order != 2:
        return None
    ratio = bt * gauss_sum_inverse(phi).embed(bt.field.m)
    if not ratio.is_rational():
        return None
    d = params.f if phi.is_even() else -params.f
    return f"{ratio.rational_value()}*sqrt({d})"


def cmd_basis(args) -> None:
    basis = eisenstein_basis(args.level, args.p)
    lines = [f"non-rational Eisenstein eigenbasis for Gamma0({args.level}), p={args.p}: {len(basis)} series"]
    items = []
    for P in basis:
        eig = {
            str(q): str(uq_eigenvalue(P, q))
            for q in sorted(set(prime_divisors(P.f)) | set(prime_divisors(P.T1)) | set(prime_divisors(P.T2)))
        }
        items.append({"char": P.phi.label(), "M": P.M, "L": P.L, "U_eigenvalues": eig})
        lines.append(f"  {P.label()}  U-eigenvalues: " + ", ".join(f"U_{q}={v}" for q, v in eig.items()))
    _emit(args, {"level": args.level, "p": args.p, "count": len(basis), "series": items}, lines)


def _params_from_args(args) -> EisensteinParams:
    phi = character_from_label(args.char)
    return EisensteinParams(phi, args.level, args.M, args.L)


def cmd_qexp(args) -> None:
    P = _params_from_args(args)
    prec = sturm_bound(args.level) + 1 if args.prec is None else args.prec
    E = build_E(P, prec)
    pretty, coefficients = E.pretty(), E.machine_lines()
    _emit(
        args,
        {
            "series": P.label(),
            "level": args.level,
            "precision": prec,
            "pretty": pretty,
            "coefficients": coefficients,
        },
        [f"{P.label()} to q^{prec}:", pretty, *coefficients],
    )


def cmd_beta(args) -> None:
    P = _params_from_args(args)
    bt = beta_tilde(P)
    sqrt_form = _sqrt_form(bt, P)
    lines = []
    if sqrt_form:
        lines.append(sqrt_form)
    lines.append(f"cyclotomic form (Q(zeta_{bt.field.m})): {bt}")
    _emit(
        args,
        {
            "series": P.label(),
            "beta_tilde_sqrt_form": sqrt_form,
            "beta_tilde": str(bt),
            "field": bt.field.m,
        },
        lines,
    )


def _display_factorization(n: int) -> str:
    """The prime factorization of n for display; when `factor` refuses a rough
    cofactor >= 2**64, the primes its trial division found and that cofactor
    whole."""
    try:
        pairs, rest = factor(n).factors, 1
    except RoughCofactorError as exc:
        pairs, rest = sorted(exc.found.items()), exc.cofactor
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in pairs]
    if rest > 1:
        parts.append(str(rest))
    return " * ".join(parts) if parts else "1"


def cmd_order(args) -> None:
    P = _params_from_args(args)
    n = cuspidal_order(P)
    fac = _display_factorization(n)
    lines = [f"|C(E)| = {n}", f"     = {fac}"]
    _emit(args, {"series": P.label(), "order": str(n), "factorization": fac}, lines)


def cmd_classify(args) -> None:
    rep = candidate_characteristics(args.level, args.p)
    prov = rep.provenance()
    lines = [f"candidate residual characteristics for N={args.level}, p={args.p}:"]
    lines.append("  {" + ", ".join(str(l) for l in sorted(rep.union)) + "}")
    for ell, tags in prov.items():
        lines.append(f"  {ell}: from {', '.join(tags)}")
    _emit(
        args,
        {
            "level": args.level,
            "p": args.p,
            "candidates": sorted(rep.union),
            "S1": sorted(rep.s1),
            "S2": sorted(rep.s2),
            "provenance": {str(k): v for k, v in prov.items()},
        },
        lines,
    )


def cmd_scan(args) -> None:
    records = None
    # a level without newforms needs no data, so nothing is fetched for it
    if not args.offline and new_dimension(args.level):
        try:
            records = fetch_newforms(args.level, endpoint=args.endpoint, cache_dir=args.cache_dir)
        except NetworkUnavailable:
            records = None  # fall back to bundled/cache below
    res = full_scan(args.level, args.p, bound=args.bound, records=records, cache_dir=args.cache_dir)
    lines = [
        f"scan N={res.level} p={res.p} bound={res.bound} candidate primes {list(res.candidate_primes)}:"
    ]
    for h in res.hits:
        star = " [largest M]" if h.largest_M else ""
        lines.append(
            f"  {h.report.eisenstein} = {h.report.newform} (mod {h.report.prime}), "
            f"residue field {h.descriptor.residue_field()}{star}"
        )
        lines.append(f"    m = {h.descriptor.render()}")
    if not res.hits:
        lines.append("  no congruences certified")
    unmatched = [r for r in res.reports if not r.matched]
    rational = [s for s in res.skipped if s.endswith("(rational case)")]
    lines.append(f"  ({len(res.hits)} certified, {len(unmatched)} non-matches, "
                 f"{len(rational)} skipped rational reductions)")
    lines.extend(f"  skipped {s}" for s in res.skipped if s not in rational)
    _emit(
        args,
        {
            "level": res.level,
            "p": res.p,
            "bound": res.bound,
            "candidate_primes": list(res.candidate_primes),
            "hits": [
                {
                    "eisenstein": h.report.eisenstein,
                    "newform": h.report.newform,
                    "prime": h.report.prime,
                    "largest_M": h.largest_M,
                    "descriptor": h.descriptor.to_json(),
                }
                for h in res.hits
            ],
            "reports": [r.to_json() for r in res.reports],
            "skipped": list(res.skipped),
        },
        lines,
    )


def cmd_fetch(args) -> None:
    records = fetch_newforms(
        args.level, endpoint=args.endpoint, cache_dir=args.cache_dir, offline=args.offline
    )
    lines = [f"fetched {len(records)} newform records for level {args.level}:"]
    lines += [f"  {r.label} (degree {r.degree}, {r.bound} coefficients)" for r in records]
    _emit(
        args,
        {
            "level": args.level,
            "records": [
                {"label": r.label, "degree": r.degree, "coefficients": r.bound} for r in records
            ],
        },
        lines,
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eiscong",
        description="Non-rational Eisenstein series, cusp divisors and Eisenstein congruences on Gamma0(N)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, char=False, pgood=False, ml=False):
        p.add_argument("--level", type=int, required=True)
        if pgood:
            p.add_argument("--p", type=int, required=True)
        if char:
            p.add_argument("--char", type=str, required=True, help="character label f.k.e")
        if ml:
            p.add_argument("--M", type=int, default=1)
            p.add_argument("--L", type=int, default=1)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("basis", help="enumerate the Eisenstein eigenbasis")
    common(p, pgood=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("qexp", help="q-expansion of E_{phi,M,L}")
    common(p, char=True, ml=True)
    p.add_argument("--prec", type=int, default=None)
    p.set_defaults(func=cmd_qexp)

    p = sub.add_parser("beta", help="the constant beta-tilde")
    common(p, char=True, ml=True)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("order", help="order of the cuspidal subgroup")
    common(p, char=True, ml=True)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("classify", help="candidate residual characteristics")
    common(p, pgood=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="scan for Eisenstein congruences")
    common(p, pgood=True)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--endpoint", type=str, default=DEFAULT_ENDPOINT)
    p.add_argument("--cache-dir", type=str, default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fetch", help="fetch newform data into the cache")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--endpoint", type=str, default=DEFAULT_ENDPOINT)
    p.add_argument("--cache-dir", type=str, default=None)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fetch)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed or full stdout fails here, not at exit
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NetworkUnavailable, NewformDataError, OSError) as exc:
        if not isinstance(exc, BrokenPipeError):  # a reader that stops early is no error
            print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError) and sys.stdout is sys.__stdout__:
            # what stdout still buffers goes to os.devnull, so the exit flush is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
