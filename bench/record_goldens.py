#!/usr/bin/env python3
"""Record bench/goldens.json from the library as it stands.

    python3 bench/record_goldens.py

Run it once on a commit whose answers are trusted (the file in the repository
was recorded on the commit that added the benchmark, where the tier-1 suite
passes).  It takes about a minute and a half, most of it in the three slow
cuspidal orders.  Every CLI command is run under two hash seeds and must
print the same bytes both times.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import (COMMANDS, GOLDENS, LEVELS, SRC, expansion_digest,
                       run_cli, scan_payload, sha256)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from eiscong import (EisensteinParams, build_E, cuspidal_order,
                         enumerate_characters, full_scan)
    from eiscong.arith import sturm_bound
    from eiscong.scanner import eisenstein_basis

    orders = {}
    for phi in enumerate_characters(11):
        if not phi.is_trivial():
            P = EisensteinParams(phi, 121, 1, 1)
            key = "degree-40" if P.field().degree == 40 else phi.label()
            order = cuspidal_order(P)
            if orders.setdefault(key, order) != order:
                raise SystemExit(f"Galois-conjugate orders differ at {phi.label()}")
    goldens = {
        "order_121": {k: str(v) for k, v in orders.items()},
        "scan": {str(N): sha256(scan_payload(full_scan(N, p))) for N, p in LEVELS},
        "build_E": {P.label(): expansion_digest(build_E(P, sturm_bound(N)))
                    for N, p in LEVELS for P in eisenstein_basis(N, p)},
        "cli": {},
    }
    for name, argv in COMMANDS.items():
        runs = []
        for hash_seed in ("1", "2"):
            os.environ["PYTHONHASHSEED"] = hash_seed
            runs.append(run_cli(argv))
        os.environ.pop("PYTHONHASHSEED")
        if len({(p.returncode, p.stdout) for p in runs}) != 1:
            raise SystemExit(f"{name}: output differs between runs")
        goldens["cli"][name] = {"exit": runs[0].returncode, "sha256": sha256(runs[0].stdout)}
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
