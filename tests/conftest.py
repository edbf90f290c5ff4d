"""Shared fixtures: corpus paths and the small products most tests revolve
around."""

from pathlib import Path

import pytest

from buchirl import build_product, complete_with_trap, load_mdp, parse_hoa

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


@pytest.fixture(scope="session")
def i2():
    return load_mdp(CORPUS / "mdp" / "i2.json")


@pytest.fixture(scope="session")
def accept_g():
    return parse_hoa((CORPUS / "hoa" / "accept_g.hoa").read_text())


@pytest.fixture(scope="session")
def i2_product(i2, accept_g):
    return build_product(i2, accept_g)


@pytest.fixture(scope="session")
def self_loop_product(accept_g):
    m = load_mdp(CORPUS / "mdp" / "self_loop.json")
    return build_product(m, accept_g)


@pytest.fixture(scope="session")
def never_product(accept_g):
    m = load_mdp(CORPUS / "mdp" / "never.json")
    return build_product(m, accept_g)


@pytest.fixture(scope="session")
def corpus_pairs():
    """All 12 corpus (MDP, automaton) pairs, in file order; incomplete_g
    comes completed with a rejecting trap, without which it builds no
    product with an MDP that emits n."""
    out = []
    for mdp in sorted((CORPUS / "mdp").glob("*.json")):
        for hoa in sorted((CORPUS / "hoa").glob("*.hoa")):
            a = parse_hoa(hoa.read_text())
            a = complete_with_trap(a) if hoa.stem == "incomplete_g" else a
            out.append((load_mdp(mdp), a))
    return tuple(out)


@pytest.fixture(scope="session")
def corpus_products(corpus_pairs):
    """The products of the 12 corpus pairs, in the same order."""
    return tuple(build_product(m, a) for m, a in corpus_pairs)
