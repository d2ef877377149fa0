"""Cross-module checks that don't belong to any single unit module."""

import ast
import importlib
import json
import random
import sys
from importlib import resources
from pathlib import Path
from types import ModuleType

import pytest

import eiscong
from eiscong import cusps, ffield, newforms, scanner
from eiscong.arith import DomainError
from eiscong.characters import quadratic_character
from eiscong.cusps import boundary_divisor
from eiscong.eisenstein import EisensteinParams
from eiscong.newforms import NetworkUnavailable
from eiscong.scanner import full_scan


def test_full_scan_missing_data_is_actionable(tmp_path, monkeypatch):
    monkeypatch.setenv("EISCONG_CACHE", str(tmp_path))
    with pytest.raises(NetworkUnavailable, match="eiscong fetch"):
        full_scan(99, 3)


def test_full_scan_bound_exceeding_fixture(monkeypatch):
    with pytest.raises(DomainError, match="coefficients"):
        full_scan(121, 11, bound=1000)


def test_boundary_coefficient_at_one_over_p():
    """a_0 at the cusp [1; p] is beta / N' for p-good levels (the identity the
    order proof reads off)."""
    from eiscong.cusps import beta_constant, cusp_from_fraction

    phi = quadratic_character(5)
    P = EisensteinParams(phi, 725, 1, 29)
    D = boundary_divisor(P)
    c = cusp_from_fraction(725, 1, 5)
    assert c.ram_index() == 29
    assert D.coefficient(c) == beta_constant(P)


def test_readme_worked_example():
    from eiscong import (EisensteinParams, beta_tilde, build_E, cuspidal_order,
                         full_scan, gauss_sum, quadratic_character,
                         verify_boundary)

    phi = quadratic_character(11)
    P = EisensteinParams(phi, 121, 1, 1)
    assert build_E(P, 12).pretty().startswith("q - 3*q^2 + 4*q^3")
    assert beta_tilde(P) == gauss_sum(phi) * 605
    assert cuspidal_order(P) == 605 ** 10 * 11 ** 5
    assert verify_boundary(P).ok
    res = full_scan(121, 11)
    assert res.hits[0].descriptor.render() == (
        "<5, U_11, {T_r - 1 - r : r = 1, 3, 4, 5, 9} (mod 11), "
        "{T_r + 1 + r : r = 2, 6, 7, 8, 10} (mod 11)>"
    )


def _record_call_stacks(monkeypatch, targets):
    """Wrap each module attribute wherever a loaded eiscong module binds it,
    as a tracer from outside the library does.  Return the list that gains
    the stack of wrapped names at every wrapped call, and the dict that maps
    each wrapped name to the positional arguments of its calls."""
    stack, seen, positional = [], [], {}
    for module, name in targets:
        orig = getattr(module, name)

        def traced(*args, _orig=orig, _name=name, **kwargs):
            stack.append(_name)
            seen.append(tuple(stack))
            positional.setdefault(_name, []).append(args)
            try:
                return _orig(*args, **kwargs)
            finally:
                stack.pop()

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] == "eiscong":
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, traced)
    return seen, positional


class _Session:
    """A stand-in HTTP session that is also its own 200 response."""

    status_code = 200

    def __init__(self, data):
        self.data = data

    def get(self, url, params=None, timeout=None):
        return self

    def json(self):
        return {"data": self.data}


def test_traced_call_chains(monkeypatch, tmp_path):
    """A tracer that wraps public functions through module globals reaches
    every layer of a scan and both parses of a cache round trip.  The
    benchmark's tracer reads the embedding key as the three positional
    arguments (k, field_poly, q) of reduction_embeddings, and the field as
    the second positional argument of roots_in_field."""
    seen, positional = _record_call_stacks(monkeypatch, [
        (scanner, "full_scan"), (scanner, "scan"), (scanner, "reduction_embeddings"),
        (ffield, "roots_in_field"), (newforms, "fetch_newforms"), (newforms, "parse_newforms")])
    scanner.full_scan(121, 11)
    assert ("full_scan", "scan", "reduction_embeddings", "roots_in_field") in seen
    keys = positional["reduction_embeddings"]
    assert keys and all(len(a) == 3 and isinstance(a[0], int) and isinstance(a[2], int)
                        and list(a[1]) == [int(c) for c in a[1]] for a in keys)
    roots = positional["roots_in_field"]
    assert roots and all(len(a) == 2 and isinstance(a[1], ffield.FiniteField) for a in roots)
    data = json.loads(resources.files("eiscong.data").joinpath("newforms_121.json").read_text())
    seen.clear()
    newforms.fetch_newforms(121, endpoint="http://stub/api", cache_dir=tmp_path,
                            session=_Session(data))
    assert seen == [("fetch_newforms",), ("fetch_newforms", "parse_newforms")]
    seen.clear()
    newforms.fetch_newforms(121, cache_dir=tmp_path, offline=True)
    assert seen == [("fetch_newforms",), ("fetch_newforms", "parse_newforms")]


BENCH = Path(__file__).parents[1] / "bench"


@pytest.mark.parametrize("small", [True, False], ids=["small", "full"])
def test_traced_counts_do_not_depend_on_passes(monkeypatch, tmp_path, small):
    """Every count the benchmark's traced run reports is per pass, so it must
    not depend on how many passes fit.  Trace the scan-levels workload, at
    the --small size and at full size, for one pass and for three, each with
    the process's cusp maps emptied as a fresh process starts: every
    count-unit metric reads the same.  A cache above a traced call would
    divide its count by the number of passes.  Only the full size searches
    roots in a field above ENUMERATION_CAP, so only it has split calls."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    counts = []
    for passes in (1, 3):
        cusps._cusp_map.cache_clear()
        wl = workloads.ScanLevels(small, workloads.load_goldens())
        wl.setup()
        wl.prepare(random.Random(1))
        wl.cache_dir, wl.min_passes = tmp_path, passes
        tracer = run.Tracer()
        run.install(tracer)
        try:
            samples, done = run.run_passes(wl, random.Random(1), 0, tracer)
        finally:
            tracer.uninstall()
        assert done == passes and [s.error for s in samples if s.error] == []
        metrics = run.span_metrics(tracer, done)
        counts.append({k: v for k, v in metrics.items() if run.PER_LAYER.get(k) == "count"})
    assert "scanner.reduction_embeddings_calls" in counts[0]
    assert (counts[0]["ffield.split_calls"] > 0) == (not small)
    assert counts[0] == counts[1]


# The paper's twisted L-values: exported for library users, with no CLI surface
# yet.  tl_eigenvalue: the T_l eigenvalue of a series, kept for the
# eigenform-property check that ROADMAP item 3 plans.
UNCALLED_EXPORTS = {"lambda_pm", "lambda_twisted", "tl_eigenvalue"}


def test_every_export_has_a_caller():
    """Every name `eiscong/__init__.py` imports, and every public module-level
    function of `src/eiscong`, is referenced in a library module, in bench/ or
    scripts/, or imported by the README's python block; a function that only
    tests call belongs under tests/.  Names are read off the AST, so a name in
    a string or comment, or a function's own definition, is no caller."""
    root = BENCH.parent
    src = root / "src" / "eiscong"
    exported = {alias.asname or alias.name
                for node in ast.parse((src / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported |= {node.name for p in src.glob("*.py") for node in ast.parse(p.read_text()).body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}

    def referenced(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.ImportFrom):
                yield from (alias.name for alias in node.names)

    paths = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    paths += sorted(BENCH.glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    called = {name for p in paths for name in referenced(ast.parse(p.read_text()))}
    readme = (root / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    called |= {alias.name for node in ast.parse(block).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    uncalled = exported - called
    assert not uncalled - UNCALLED_EXPORTS, f"only tests call {sorted(uncalled)}"
    assert not UNCALLED_EXPORTS - uncalled, "an exception now has a caller"


def test_benchmark_names_exist(monkeypatch):
    """The benchmark in bench/ is changed apart from the library, so a name it
    reads that the library drops breaks only its traced run.  Check every
    function `run.install` wraps, every eiscong name bench/ imports or reads
    off an imported module, and the attributes its workloads read off library
    objects."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")

    class Recorder:
        def __init__(self):
            self.wrapped = []

        def install(self, module, attr, name, sizes=None):
            self.wrapped.append((module, attr))

    recorder = Recorder()
    run.install(recorder)
    assert recorder.wrapped
    for module, attr in recorder.wrapped:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> eiscong module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "eiscong":
                base = importlib.import_module(node.module)
                for alias in node.names:
                    value = getattr(base, alias.name, None)
                    assert value is not None, f"{path.name}: {node.module}.{alias.name}"
                    if isinstance(value, ModuleType):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                assert hasattr(modules[node.value.id], node.attr), \
                    f"{path.name}: {node.value.id}.{node.attr}"

    from eiscong.cusps import BoundaryReport
    from eiscong.cyclotomic import _CycField
    from eiscong.scanner import ScanHit
    read = {
        eiscong.QExpansion: ("machine_lines", "coefficient", "precision"),
        eiscong.FiniteField: ("size",),
        eiscong.IntegralIdeal: ("index",),
        eiscong.CycElement: ("is_integral", "norm_to_Q", "coeffs", "field"),
        _CycField: ("zeta", "degree", "m", "one"),
        eiscong.EisensteinParams: ("phi", "N", "M", "L", "field", "label"),
        eiscong.DirichletCharacter: ("label", "is_trivial"),
        eiscong.IdealDescriptor: ("render", "to_json", "residue_field"),
        eiscong.CongruenceReport: ("eisenstein", "newform", "prime", "embedding", "to_json"),
        eiscong.FullScanResult: ("level", "p", "bound", "candidate_primes", "hits", "reports",
                                 "skipped"),
        ScanHit: ("report", "params", "descriptor", "largest_M"),
        BoundaryReport: ("ok",),
    }
    for cls, names in read.items():
        have = set(cls._fields)
        for name in names:
            assert name in have or hasattr(cls, name), f"{cls.__name__}.{name}"
