"""Labelled MDP model, JSON interchange and validation."""

import json

import numpy as np
import pytest

from buchirl import (
    Edge,
    Mdp,
    MdpFormatError,
    dump_mdp,
    load_mdp,
    mdp_from_json,
    mdp_to_json,
    validate_mdp,
)


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
    assert len(i2.edges) == 5


def test_branches_and_available(i2):
    assert [e.succ for e in i2.branches(0, 0)] == [1, 2]
    assert [e.prob for e in i2.branches(0, 0)] == [0.5, 0.5]
    assert i2.branches(1, 1) == ()
    assert i2.available(0) == (0, 1)
    assert i2.available(1) == (0,)


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
    assert m.edges[1].symbol is None
    assert any(d.code == "unlabelled-edge" for d in validate_mdp(m))


def test_json_round_trip(i2):
    assert mdp_from_json(mdp_to_json(i2)) == i2


def test_file_round_trip(tmp_path, i2):
    path = tmp_path / "copy.json"
    dump_mdp(i2, path)
    assert load_mdp(path) == i2


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MdpFormatError):
        load_mdp(path)


def test_mdp_constructor_errors():
    e = Edge(0, 0, 0, 1.0, 0)
    with pytest.raises(ValueError):
        Mdp((), ("a",), ("g",), 0, ())
    with pytest.raises(ValueError):
        Mdp(("s",), ("a",), ("g",), 1, ())
    with pytest.raises(ValueError):
        Mdp(("s",), ("a",), ("g",), 0, (Edge(0, 0, 1, 1.0, 0),))
    with pytest.raises(ValueError):
        Mdp(("s",), ("a",), ("g",), 0, (Edge(0, 1, 0, 1.0, 0),))
    with pytest.raises(ValueError):
        Mdp(("s",), ("a",), ("g",), 0, (Edge(0, 0, 0, 1.0, 2),))
    Mdp(("s",), ("a",), ("g",), 0, (e,))  # and the well-formed one is fine
