"""The public surface: every name `subfreq` exports is called somewhere in
the package, or is listed in README's "Toolkit API" section.  A name that
only the tests call belongs in the tests (`oracles.py`)."""

import ast
import pathlib
import re
import types

import subfreq as sf

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "subfreq"


def referenced_names():
    """Every name, attribute or imported name used outside __init__.py."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def toolkit_api():
    """The backquoted names that open the bullets of README's "Toolkit API"
    section, up to each bullet's colon."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Toolkit API\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    assert section, "README has no '## Toolkit API' section"
    heads = re.findall(r"^- ([^:]*):", section.group(1), re.M)
    return {name for head in heads for name in re.findall(r"`(\w+)`", head)}


def exported_names():
    return {name for name in sf.__all__
            if not isinstance(getattr(sf, name), types.ModuleType)}


def test_every_export_has_a_caller_or_is_toolkit_api():
    orphans = exported_names() - referenced_names() - toolkit_api()
    assert not orphans, f"exported with no caller in src/subfreq: {sorted(orphans)}"


def test_both_contexts_provide_the_calculus_protocol():
    # what the functionals and the symbolic calculus read from a context
    protocol = ("m", "k", "tweight", "laplacian", "laplacian_operator", "horizontal_grad_sq",
                "discrepancy", "geometry")
    for context in (sf.heisenberg(1), sf.BaouendiSpec(1, 1, 2)):
        missing = [name for name in protocol if not hasattr(context, name)]
        assert not missing, f"{type(context).__name__} lacks {missing}"
        assert context.laplacian(sf.solid_harmonic_quadratic(context)).is_zero()


def test_toolkit_api_names_are_exported():
    assert toolkit_api() <= exported_names()


def test_the_monomial_format_stays_in_polynomials():
    # Polynomial.terms is keyed by a private exponent-tuple format and holds
    # the ints of the integer form content * terms, and _make / _like build
    # results from it without checks: no other module reads the one or calls
    # the others
    private = {"terms", "content", "_make", "_like"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "polynomials.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not found, f"the monomial format is used outside polynomials.py: {found}"
