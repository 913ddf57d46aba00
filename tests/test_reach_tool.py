"""``tools/reach.py``'s budget search, with its child runs stubbed out."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_budget_search_records_every_probe(monkeypatch):
    # A run finishes within the budget up to L=62, in L/10 s, and is
    # killed past it: the search strides 50, 55, 60, 65, then steps by one
    # from 60, and every probe is recorded in order.
    reach = load_reach()
    report = {"verdict": "HOLDS_UP_TO_BOUND", "stats": {"coset_reps": 1},
              "d_sup": None, "meta": {}}

    def run_child(src, gcm, theta, max_length, budget=None):
        assert budget == reach.BUDGET_S
        return (report, max_length / 10, 1.0) if max_length <= 62 else None

    monkeypatch.setattr(reach, "run_child", run_child)
    length, run, probes = reach.largest_within_budget("src")
    assert length == 62 and run["wall_s"] == 6.2
    assert [(p["max_length"], p["finished"]) for p in probes] == [
        (50, True), (55, True), (60, True), (65, False),
        (61, True), (62, True), (63, False),
    ]
    assert [p["wall_s"] for p in probes if p["finished"]] == [
        5.0, 5.5, 6.0, 6.1, 6.2,
    ]
