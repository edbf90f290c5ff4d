"""Automaton model, HOA subset parser, serializer and lasso acceptance."""

import numpy as np
import pytest

from buchirl import (
    HoaSemanticError,
    HoaSyntaxError,
    LassoWord,
    Nba,
    accepts_lasso,
    complete_with_trap,
    is_complete,
    is_deterministic,
    parse_hoa,
    serialize_hoa,
)

from bruteforce import lasso_accept_bruteforce
from generators import random_nondet_automaton


def hoa(body, headers=""):
    """Assemble a small HOA text around a body snippet."""
    return (
        "HOA: v1\n"
        "States: 2\n"
        "Start: 0\n"
        'AP: 2 "g" "n"\n'
        "acc-name: Buchi\n"
        "Acceptance: 1 Inf(0)\n"
        + headers
        + "--BODY--\n"
        + body
        + "--END--\n"
    )


def test_parse_corpus_accept_g(accept_g):
    assert accept_g.symbols == ("g", "n")
    assert accept_g.n_states == 1
    assert accept_g.initial == 0
    assert accept_g.transitions == ((0, 0, 0), (0, 1, 0))
    assert accept_g.accepting == frozenset({0})
    assert accept_g.gfm is True
    assert is_deterministic(accept_g)
    assert is_complete(accept_g)


def test_parse_corpus_inf_gn(corpus):
    a = parse_hoa((corpus / "hoa" / "inf_gn.hoa").read_text())
    assert a.n_states == 2
    assert a.transitions == ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0))
    assert a.accepting == frozenset({3})
    assert is_deterministic(a) and is_complete(a)
    assert a.gfm is True


def test_parse_corpus_nondet_g(corpus):
    a = parse_hoa((corpus / "hoa" / "nondet_g.hoa").read_text())
    assert not is_deterministic(a)
    assert is_complete(a)
    assert a.gfm is None
    # the nondeterministic split: state 0 reads g into both states
    assert a.moves(0, 0) == ((0, False), (1, False))


def test_parse_corpus_incomplete(corpus):
    a = parse_hoa((corpus / "hoa" / "incomplete_g.hoa").read_text())
    assert not is_complete(a)
    assert a.moves(0, 1) == ()


def test_moves_and_symbol_index(accept_g):
    assert accept_g.moves(0, 0) == ((0, True),)
    assert accept_g.moves(0, 1) == ((0, False),)
    assert accept_g.symbol_index("n") == 1
    with pytest.raises(KeyError):
        accept_g.symbol_index("x")


def test_nba_validation_errors():
    with pytest.raises(ValueError):
        Nba(("g",), 0, 0, (), frozenset())
    with pytest.raises(ValueError):
        Nba(("g", "g"), 1, 0, (), frozenset())
    with pytest.raises(ValueError):
        Nba(("g",), 1, 1, (), frozenset())
    with pytest.raises(ValueError):
        Nba(("g",), 1, 0, ((0, 0, 1),), frozenset())
    with pytest.raises(ValueError):
        Nba(("g",), 1, 0, ((0, 1, 0),), frozenset())
    with pytest.raises(ValueError):
        Nba(("g",), 1, 0, ((0, 0, 0), (0, 0, 0)), frozenset())
    with pytest.raises(ValueError):
        Nba(("g",), 1, 0, ((0, 0, 0),), frozenset({1}))


def test_disjunction_label_expands():
    text = hoa("State: 0\n[0|1] 1 {0}\nState: 1\n[0] 0\n[1] 0\n")
    a = parse_hoa(text)
    assert (0, 0, 1) in a.transitions and (0, 1, 1) in a.transitions
    # both expanded edges carry the mark
    assert a.accepting == frozenset({0, 1})


def test_duplicate_edge_same_mark_merges():
    text = hoa("State: 0\n[0] 1\n[0] 1\n[1] 1\nState: 1\n[0] 0\n[1] 0\n")
    a = parse_hoa(text)
    assert a.transitions.count((0, 0, 1)) == 1


def test_duplicate_edge_conflicting_mark_rejected():
    text = hoa("State: 0\n[0] 1 {0}\n[0] 1\n[1] 1\nState: 1\n[0] 0\n[1] 0\n")
    with pytest.raises(HoaSemanticError):
        parse_hoa(text)


def test_properties_header_ignored():
    text = hoa(
        "State: 0\n[0] 1\n[1] 1\nState: 1\n[0] 0\n[1] 0\n",
        headers="properties: trans-labels explicit-labels\n",
    )
    parse_hoa(text)


def test_blank_lines_tolerated():
    text = hoa("\nState: 0\n[0] 1\n\n[1] 1\nState: 1\n[0] 0\n[1] 0\n\n")
    parse_hoa(text)


def test_syntax_error_positions():
    with pytest.raises(HoaSyntaxError) as exc:
        parse_hoa("")
    assert exc.value.line == 1

    with pytest.raises(HoaSyntaxError) as exc:
        parse_hoa("HOA: v2\n")
    assert exc.value.line == 1

    text = hoa("State: 0\nbogus line\n")
    with pytest.raises(HoaSyntaxError) as exc:
        parse_hoa(text)
    assert exc.value.line == 9


def test_header_errors():
    with pytest.raises(HoaSyntaxError):
        parse_hoa("HOA: v1\nStates: 1\n")  # missing --BODY--
    with pytest.raises(HoaSyntaxError):
        parse_hoa("HOA: v1\nStates: 1\nStates: 1\n--BODY--\n--END--\n")
    with pytest.raises(HoaSyntaxError):
        parse_hoa("HOA: v1\nname: x\n--BODY--\n--END--\n")
    with pytest.raises(HoaSyntaxError):
        parse_hoa('HOA: v1\nStart: 0\nAP: 1 "g"\nAcceptance: 1 Inf(0)\n--BODY--\n--END--\n')
    with pytest.raises(HoaSyntaxError):
        parse_hoa(hoa("State: 0\n[0] 0\n[1] 0\n") + "trailing\n")


def test_semantic_header_errors():
    base = 'HOA: v1\nStates: %s\nStart: %s\nAP: %s\nacc-name: %s\nAcceptance: %s\n--BODY--\n--END--\n'
    with pytest.raises(HoaSemanticError):
        parse_hoa(base % ("0", "0", '1 "g"', "Buchi", "1 Inf(0)"))
    with pytest.raises(HoaSemanticError):
        parse_hoa(base % ("1", "3", '1 "g"', "Buchi", "1 Inf(0)"))
    with pytest.raises(HoaSemanticError):
        parse_hoa(base % ("1", "0", '2 "g" "g"', "Buchi", "1 Inf(0)"))
    with pytest.raises(HoaSemanticError):
        parse_hoa(base % ("1", "0", '1 "g"', "Rabin", "1 Inf(0)"))
    with pytest.raises(HoaSemanticError):
        parse_hoa(base % ("1", "0", '1 "g"', "Buchi", "2 Inf(0)&Inf(1)"))
    with pytest.raises(HoaSyntaxError):
        parse_hoa(base % ("1", "0", '2 "g"', "Buchi", "1 Inf(0)"))
    with pytest.raises(HoaSyntaxError):
        parse_hoa(
            'HOA: v1\nStates: 1\nStart: 0\nAP: 1 "g"\nAcceptance: 1 Inf(0)\nGFM: maybe\n--BODY--\n--END--\n'
        )


def test_body_errors():
    with pytest.raises(HoaSemanticError):
        parse_hoa(hoa("State: 0 {0}\n[0] 0\n[1] 0\nState: 1\n[0] 0\n[1] 0\n"))
    with pytest.raises(HoaSemanticError):
        parse_hoa(hoa("State: 5\n"))
    with pytest.raises(HoaSemanticError):
        parse_hoa(hoa("State: 0\nState: 0\n"))
    with pytest.raises(HoaSyntaxError):
        parse_hoa(hoa("[0] 0\n"))  # edge before any State block
    with pytest.raises(HoaSemanticError):
        parse_hoa(hoa("State: 0\n[0] 7\n"))
    with pytest.raises(HoaSemanticError):
        parse_hoa(hoa("State: 0\n[0] 0 {1}\n"))
    with pytest.raises(HoaSemanticError):
        parse_hoa(hoa("State: 0\n[5] 0\n"))


def test_label_expression_subset():
    # anything beyond a proposition or a disjunction points at the subset rule
    for edge in ("[!0] 0", "[0&1] 0", "[t] 0", "[f] 0", "[!0]"):
        with pytest.raises(HoaSemanticError) as exc:
            parse_hoa(hoa(f"State: 0\n{edge}\n"))
        assert "expand the edge" in str(exc.value)
    with pytest.raises(HoaSyntaxError):
        parse_hoa(hoa("State: 0\n[] 0\n"))
    with pytest.raises(HoaSyntaxError):
        parse_hoa(hoa("State: 0\n[0|] 0\n"))


def test_serialize_round_trip_corpus(corpus):
    for name in ("accept_g", "inf_gn", "nondet_g", "incomplete_g"):
        a = parse_hoa((corpus / "hoa" / f"{name}.hoa").read_text())
        assert parse_hoa(serialize_hoa(a)) == a


def test_serialize_gfm_only_when_known(corpus):
    a = parse_hoa((corpus / "hoa" / "nondet_g.hoa").read_text())
    assert "GFM" not in serialize_hoa(a)
    b = parse_hoa((corpus / "hoa" / "accept_g.hoa").read_text())
    assert "GFM: true" in serialize_hoa(b)


def test_serialize_round_trip_random():
    # equality is promised only for source-grouped transition tuples, which
    # one round trip establishes; after that the text form is a fixpoint and
    # the language never changes
    rng = np.random.default_rng(7)
    words = short_words(2, 1, 2)
    for _ in range(25):
        a = random_nondet_automaton(rng)
        b = parse_hoa(serialize_hoa(a))
        assert parse_hoa(serialize_hoa(b)) == b
        for w in words:
            assert accepts_lasso(a, w) == accepts_lasso(b, w)


def test_complete_with_trap(corpus):
    a = parse_hoa((corpus / "hoa" / "incomplete_g.hoa").read_text())
    b = complete_with_trap(a)
    assert b.n_states == a.n_states + 1
    assert is_complete(b)
    # already-complete automata come back unchanged
    c = parse_hoa((corpus / "hoa" / "accept_g.hoa").read_text())
    assert complete_with_trap(c) is c


def test_trap_preserves_language(corpus):
    a = parse_hoa((corpus / "hoa" / "incomplete_g.hoa").read_text())
    b = complete_with_trap(a)
    for word in short_words(2, 2, 3):
        assert accepts_lasso(a, word) == accepts_lasso(b, word)


def short_words(n_symbols, max_prefix, max_cycle):
    import itertools

    out = []
    for plen in range(max_prefix + 1):
        for prefix in itertools.product(range(n_symbols), repeat=plen):
            for clen in range(1, max_cycle + 1):
                for cycle in itertools.product(range(n_symbols), repeat=clen):
                    out.append(LassoWord(prefix, cycle))
    return out


def test_lasso_word_validation():
    with pytest.raises(ValueError):
        LassoWord((), ())


def test_accepts_lasso_hand_cases(corpus, accept_g):
    g, n = 0, 1
    assert accepts_lasso(accept_g, LassoWord((), (g,)))
    assert not accepts_lasso(accept_g, LassoWord((), (n,)))
    assert accepts_lasso(accept_g, LassoWord((n, n), (n, g)))

    a = parse_hoa((corpus / "hoa" / "inf_gn.hoa").read_text())
    assert accepts_lasso(a, LassoWord((), (g, n)))
    assert not accepts_lasso(a, LassoWord((), (g,)))
    assert not accepts_lasso(a, LassoWord((g,), (g,)))
    assert not accepts_lasso(a, LassoWord((), (n,)))


def test_accepts_lasso_rejects_unknown_symbol(accept_g):
    with pytest.raises(ValueError):
        accepts_lasso(accept_g, LassoWord((5,), (0,)))


def test_accepts_lasso_incomplete_run_dies(corpus):
    # the only move reads g, so any n kills every run
    a = parse_hoa((corpus / "hoa" / "incomplete_g.hoa").read_text())
    assert accepts_lasso(a, LassoWord((), (0,)))
    assert not accepts_lasso(a, LassoWord((1,), (0,)))
    assert not accepts_lasso(a, LassoWord((), (0, 1)))


class TestLassoAgainstBruteForce:
    """accepts_lasso versus the flagged-closure reference on random automata."""

    def test_nondeterministic(self):
        rng = np.random.default_rng(11)
        words = short_words(2, 2, 2)
        for _ in range(20):
            a = random_nondet_automaton(rng)
            for w in words:
                assert accepts_lasso(a, w) == lasso_accept_bruteforce(a, w)

    def test_longer_cycles(self):
        rng = np.random.default_rng(12)
        words = short_words(2, 1, 3)
        for _ in range(8):
            a = random_nondet_automaton(rng, max_states=4)
            for w in words:
                assert accepts_lasso(a, w) == lasso_accept_bruteforce(a, w)
