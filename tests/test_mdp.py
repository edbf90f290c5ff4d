"""Labelled MDP model, JSON interchange and validation."""

import json

import numpy as np
import pytest

from buchirl import (
    Mdp,
    MdpFormatError,
    dump_mdp,
    load_mdp,
    mdp_from_json,
    mdp_to_json,
    validate_mdp,
)

from generators import mdp_from_rows
from report_digest import DIAGNOSTICS_MDP


def i2_data():
    return {
        "states": ["s0", "sA", "sR"],
        "actions": ["a", "b"],
        "alphabet": ["g", "n"],
        "initial": "s0",
        "transitions": [
            {"from": "s0", "action": "a", "to": "sA", "prob": 0.5, "label": "n"},
            {"from": "s0", "action": "a", "to": "sR", "prob": 0.5, "label": "n"},
            {"from": "s0", "action": "b", "to": "sR", "prob": 1.0, "label": "g"},
            {"from": "sA", "action": "a", "to": "sA", "prob": 1.0, "label": "g"},
            {"from": "sR", "action": "a", "to": "sR", "prob": 1.0, "label": "n"},
        ],
    }


def test_load_corpus(i2):
    assert i2.states == ("s0", "sA", "sR")
    assert i2.actions == ("a", "b")
    assert i2.symbols == ("g", "n")
    assert i2.initial == 0
    assert i2.state.tolist() == [0, 0, 0, 1, 2]
    assert i2.action.tolist() == [0, 0, 1, 0, 0]
    assert i2.succ.tolist() == [1, 2, 2, 1, 2]
    assert i2.prob.tolist() == [0.5, 0.5, 1.0, 1.0, 1.0]
    assert i2.symbol.tolist() == [1, 1, 0, 0, 1]
    with pytest.raises(ValueError):
        i2.prob[0] = 0.25  # the columns are read-only


def test_groups(i2):
    # s0 has groups a and b, sA and sR one group a each
    state_start, action, edge_start, edge = i2.groups
    assert state_start.tolist() == [0, 2, 3, 4]
    assert action.tolist() == [0, 1, 0, 0]
    assert edge_start.tolist() == [0, 2, 3, 4, 5]
    assert edge.tolist() == [0, 1, 2, 3, 4]
    assert i2.groups is i2.groups  # computed once per Mdp
    with pytest.raises(ValueError):
        edge[0] = 1  # and read-only


def test_groups_sort_actions_and_keep_input_order():
    # edges of one (state, action) interleaved with others and given out of
    # action order; s1 has no edges and so no group
    rows = [
        (2, 1, 0, 0.5, 0),
        (0, 1, 2, 1.0, 0),
        (2, 0, 2, 1.0, 1),
        (2, 1, 2, 0.25, None),
        (0, 0, 0, 1.0, 1),
        (2, 1, 1, 0.25, 1),
    ]
    groups = mdp_from_rows(("s0", "s1", "s2"), ("a", "b"), ("g", "n"), 0, rows).groups
    assert [c.tolist() for c in groups] == [[0, 2, 2, 4], [0, 1, 0, 1], [0, 1, 2, 3, 6], [4, 1, 2, 0, 3, 5]]
    groups = mdp_from_rows(("s",), ("a",), ("g",), 0, []).groups
    assert [c.tolist() for c in groups] == [[0, 0], [], [0], []]


def test_validate_corpus_clean(i2):
    assert validate_mdp(i2) == []


def test_validate_prob_range():
    data = i2_data()
    data["transitions"][3]["prob"] = 1.5
    diags = validate_mdp(mdp_from_json(data))
    codes = {d.code for d in diags}
    assert "prob-range" in codes and "prob-sum" in codes

    data["transitions"][3]["prob"] = 0.0
    diags = validate_mdp(mdp_from_json(data))
    assert any(d.code == "prob-range" for d in diags)


def test_validate_prob_sum():
    data = i2_data()
    data["transitions"][0]["prob"] = 0.499
    diags = validate_mdp(mdp_from_json(data))
    assert [d.code for d in diags if d.severity == "error"] == ["prob-sum"]
    assert "0.999" in diags[0].message


def test_validate_duplicate_edge():
    data = i2_data()
    data["transitions"].append(
        {"from": "sA", "action": "a", "to": "sA", "prob": 0.0, "label": "g"}
    )
    diags = validate_mdp(mdp_from_json(data))
    assert any(d.code == "duplicate-edge" for d in diags)


def test_validate_unlabelled():
    data = i2_data()
    data["transitions"][2]["label"] = None
    diags = validate_mdp(mdp_from_json(data))
    assert any(d.code == "unlabelled-edge" for d in diags)


def test_validate_no_actions():
    data = i2_data()
    data["states"].append("stuck")
    diags = validate_mdp(mdp_from_json(data))
    codes = [d.code for d in diags]
    assert "no-actions" in codes and "unreachable" in codes


def test_validate_unreachable_is_warning():
    data = i2_data()
    data["states"].append("lost")
    data["transitions"].append(
        {"from": "lost", "action": "a", "to": "lost", "prob": 1.0, "label": "n"}
    )
    diags = validate_mdp(mdp_from_json(data))
    assert len(diags) == 1
    assert diags[0].severity == "warning"
    assert diags[0].code == "unreachable"


def test_validate_pins_order_and_messages():
    # per-edge errors in edge order (range, repeat, label for one edge), then
    # per state in state order with actions ascending, then the warnings
    got = [(d.severity, d.code, d.message) for d in validate_mdp(mdp_from_json(DIAGNOSTICS_MDP))]
    assert got == [
        ("error", "prob-range", "edge (s0,a,s2) has probability 1.5 outside (0,1]"),
        ("error", "unlabelled-edge", "edge (s1,a,s1) has a null label"),
        ("error", "prob-range", "edge (s0,a,s1) has probability 0.0 outside (0,1]"),
        ("error", "duplicate-edge", "edge (s0,a,s1) appears twice"),
        ("error", "unlabelled-edge", "edge (s0,a,s1) has a null label"),
        ("error", "prob-sum", "probabilities for (s0,a) sum to 2.0"),
        ("error", "prob-sum", "probabilities for (s2,a) sum to 0.25"),
        ("error", "prob-sum", "probabilities for (s2,b) sum to 0.5"),
        ("error", "no-actions", "state s3 has no actions"),
        ("error", "prob-sum", "probabilities for (s4,b) sum to 0.75"),
        ("warning", "unreachable", "state lost is unreachable"),
        ("warning", "unreachable", "state s3 is unreachable"),
    ]


def test_from_json_shape_errors():
    with pytest.raises(MdpFormatError):
        mdp_from_json([])
    data = i2_data()
    data["extra"] = 1
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)
    data = i2_data()
    del data["alphabet"]
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)
    data = i2_data()
    data["states"] = ["s0", "s0"]
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)
    data = i2_data()
    data["initial"] = "nowhere"
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)
    data = i2_data()
    data["transitions"] = {}
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)


def test_from_json_transition_errors():
    data = i2_data()
    data["transitions"][0]["weight"] = 2
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)
    data = i2_data()
    del data["transitions"][0]["prob"]
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)
    data = i2_data()
    data["transitions"][0]["to"] = "s9"
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)
    data = i2_data()
    data["transitions"][0]["prob"] = True  # bool is not a number here
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)
    data = i2_data()
    data["transitions"][0]["prob"] = float("nan")
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)
    data = i2_data()
    data["transitions"][0]["label"] = "x"
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)
    data = i2_data()
    data["transitions"][0] = "edge"
    with pytest.raises(MdpFormatError):
        mdp_from_json(data)


def test_null_label_loads_but_flags():
    data = i2_data()
    data["transitions"][1]["label"] = None
    m = mdp_from_json(data)
    assert m.symbol.tolist() == [1, -1, 0, 0, 1]
    assert any(d.code == "unlabelled-edge" for d in validate_mdp(m))


def test_json_round_trip(i2):
    # array columns have no value equality, so compare the JSON of both
    assert mdp_to_json(mdp_from_json(mdp_to_json(i2))) == mdp_to_json(i2)
    m = mdp_from_json(DIAGNOSTICS_MDP)  # a null label, a repeated edge, bad masses
    assert mdp_to_json(m) == DIAGNOSTICS_MDP


def test_file_round_trip(tmp_path, i2):
    path = tmp_path / "copy.json"
    dump_mdp(i2, path)
    assert mdp_to_json(load_mdp(path)) == mdp_to_json(i2)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MdpFormatError):
        load_mdp(path)


def test_mdp_constructor_errors():
    def build(initial, *rows, states=("s",)):
        return mdp_from_rows(states, ("a",), ("g",), initial, rows)

    with pytest.raises(ValueError):
        build(0, states=())
    with pytest.raises(ValueError):
        build(1)
    for bad in ((0, 0, 1, 1.0, 0), (0, 1, 0, 1.0, 0), (0, 0, 0, 1.0, 2), (-1, 0, 0, 1.0, 0)):
        with pytest.raises(ValueError, match="unknown"):
            build(0, bad)
    with pytest.raises(ValueError, match="one length"):
        Mdp(("s",), ("a",), ("g",), 0, [0], [0], [0], [1.0], [0, 0])
    build(0, (0, 0, 0, 1.0, 0))  # and the well-formed one is fine


def test_mdp_rejects_columns_a_cast_would_change():
    # a fractional index would truncate and a numeric string would parse,
    # loading another MDP than the one given
    good = dict(state=[0], action=[0], succ=[0], prob=[1.0], symbol=[0])
    for name, bad in (
        ("state", [0.5]),
        ("succ", [0.0]),
        ("action", [True]),
        ("symbol", ["0"]),
        ("prob", ["0.5"]),
        ("prob", [True]),
        ("prob", [None]),
    ):
        with pytest.raises(ValueError, match=f"^edge column {name} must hold"):
            Mdp(("s",), ("a",), ("g",), 0, **dict(good, **{name: bad}))
    # an integer probability is a number; an MDP without edges takes the
    # empty columns mdp_from_json passes, whatever their dtype
    assert Mdp(("s",), ("a",), ("g",), 0, **dict(good, prob=[1])).prob.tolist() == [1.0]
    m = Mdp(("s",), ("a",), ("g",), 0, (), (), (), (), ())
    assert [c.dtype for c in (m.state, m.prob)] == [np.int64, np.float64] and m.state.size == 0
    m = mdp_from_json({"states": ["s"], "actions": ["a"], "alphabet": ["g"], "initial": "s", "transitions": []})
    assert m.succ.size == m.prob.size == 0
