"""Bad input exits 1 with one `error:` line naming what is wrong.

Covers model parameters out of range, instance and schedule JSON with
wrongly typed or shaped fields, and unparsable list options. Every case
runs through `main`, as a user meets it.
"""

import copy
import json
import pathlib

import pytest

from reclaim.cli import main

EXAMPLE4 = json.loads((pathlib.Path(__file__).parent / "data" / "example4.json").read_text())
SCHEDULE = [
    {"id": "T1", "profile": {"constant": 6.0}, "start": 0.0},
    {"id": "T2", "profile": {"constant": 2.0}, "start": 0.5},
    {"id": "T3", "profile": {"constant": 2.0}, "start": 0.5},
    {"id": "T4", "profile": {"constant": 5.0}, "start": 1.0},
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(code, out, err, message):
    assert code == 1, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# Each case: the arguments after the instance path, and the message.
PARAMETERS = {
    "continuous-smax-0": (["solve", "--model", "continuous", "--smax", "0"], "s_max must be positive"),
    "dag-smax-negative": (
        ["solve", "--model", "continuous", "--smax", "-1", "--structure", "dag"],
        "s_max must be positive",
    ),
    "dag-smax-nan": (
        ["solve", "--model", "continuous", "--smax", "nan", "--structure", "dag"],
        "got nan",
    ),
    "dag-smax-0": (
        ["solve", "--model", "continuous", "--smax", "0", "--structure", "dag"],
        "s_max must be positive",
    ),
    "discrete-infinite-mode": (
        ["solve", "--model", "discrete", "--modes", "2,inf"], "modes must be positive and finite",
    ),
    "vdd-infinite-mode": (
        ["solve", "--model", "vdd", "--modes", "2,inf"], "modes must be positive and finite",
    ),
    "incremental-infinite-top": (
        ["solve", "--model", "incremental", "--smin", "2", "--smax", "inf", "--delta", "1"],
        "s_max must be positive and finite",
    ),
    "incremental-nan-top": (
        ["solve", "--model", "incremental", "--smin", "2", "--smax", "nan", "--delta", "1"],
        "s_max must be positive and finite",
    ),
    "approx-discrete-infinite-mode": (
        ["approx", "--model", "discrete", "--modes", "2,inf", "--K", "2"],
        "modes must be positive and finite",
    ),
    "approx-incremental-infinite-top": (
        ["approx", "--model", "incremental", "--smin", "2", "--smax", "inf", "--delta", "1",
         "--K", "2"],
        "s_max must be positive and finite",
    ),
}


@pytest.mark.parametrize("case", sorted(PARAMETERS))
def test_out_of_range_parameters_exit_1(capsys, example4_path, case):
    argv, message = PARAMETERS[case]
    code, out, err = run(capsys, argv[0], example4_path, *argv[1:])
    assert_input_error(code, out, err, message)


def test_uncapped_is_inf_or_no_smax(capsys, example4_path):
    outputs = []
    for extra in ([], ["--smax", "inf"]):
        code, out, err = run(capsys, "solve", example4_path, "--model", "continuous",
                             "--structure", "dag", *extra)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_compare_reports_a_bad_cap_in_its_row(capsys, example4_path):
    code, out, err = run(capsys, "compare", example4_path, "--smax", "0", "--modes", "2,5,6")
    assert code == 0, err
    rows = {row["model"]: row for row in json.loads(out)["rows"]}
    assert rows["continuous"]["energy"] is None
    assert rows["continuous"]["status"].startswith("error: s_max must be positive")
    assert rows["vdd"]["status"] == rows["discrete"]["status"] == "ok"


def _set(path, value):
    """A copy of an instance or schedule with the item at ``path`` replaced."""

    def mutate(obj):
        obj = copy.deepcopy(obj)
        item = obj
        for key in path[:-1]:
            item = item[key]
        item[path[-1]] = value
        return obj

    return mutate


# Each case: how to break example4, and the message that must name it.
INSTANCES = {
    "not-an-object": (lambda obj: [obj], "instance must be a JSON object"),
    "no-deadline": (
        lambda obj: {k: v for k, v in obj.items() if k != "deadline"},
        "instance is missing 'deadline'",
    ),
    "tasks-empty": (_set(["tasks"], []), "'tasks' must be a non-empty list"),
    "task-not-an-object": (_set(["tasks", 1], 2.0), "tasks[1] must be an object"),
    "cost-null": (_set(["tasks", 1, "cost"], None), "tasks[1]: 'cost' must be a number, got None"),
    "cost-list": (_set(["tasks", 1, "cost"], [1]), "tasks[1]: 'cost' must be a number, got [1]"),
    "precedence-null": (_set(["precedence"], None), "'precedence' must be a list"),
    "precedence-number": (_set(["precedence"], 3), "'precedence' must be a list"),
    "precedence-triple": (
        _set(["precedence", 0], ["T1", "T3", "T4"]), "precedence[0] must be a pair",
    ),
    "allocation-empty": (_set(["allocation"], []), "'allocation' must be a non-empty list"),
    "allocation-not-an-object": (_set(["allocation", 1], ["T3"]), "allocation[1] must be an object"),
    "order-null": (
        _set(["allocation", 1, "order"], None), "allocation[1]: 'order' must be a list",
    ),
    "processor-null": (
        _set(["allocation", 1, "processor"], None), "allocation[1]: 'processor' must be an integer",
    ),
    "processor-infinite": (
        _set(["allocation", 1, "processor"], float("inf")),
        "allocation[1]: 'processor' must be an integer",
    ),
    "deadline-null": (_set(["deadline"], None), "'deadline' must be a number, got None"),
    "deadline-text": (_set(["deadline"], "soon"), "'deadline' must be a number, got 'soon'"),
}


@pytest.mark.parametrize("case", sorted(INSTANCES))
def test_malformed_instance_exits_1(capsys, tmp_path, case):
    mutate, message = INSTANCES[case]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(mutate(EXAMPLE4)))
    code, out, err = run(capsys, "solve", str(path), "--model", "continuous")
    assert_input_error(code, out, err, message)


SCHEDULES = {
    "empty": (lambda sched: [], "schedule must be a non-empty list"),
    "entry-not-an-object": (_set([1], 2.0), "schedule[1] must be an object"),
    "profile-not-an-object": (_set([1, "profile"], 2.0), "schedule[1]: 'profile' must be an object"),
    "profile-without-speeds": (
        _set([1, "profile"], {"steady": 2.0}), "schedule[1]: profile needs 'constant' or 'segments'",
    ),
    "constant-null": (
        _set([1, "profile", "constant"], None), "schedule[1]: 'constant' must be a number",
    ),
    "segments-null": (
        _set([1, "profile"], {"segments": None}), "schedule[1]: 'segments' must be a list",
    ),
    "segments-flat": (
        _set([1, "profile"], {"segments": [1, 2]}), "schedule[1]: 'segments' must be a list",
    ),
    "start-null": (_set([2, "start"], None), "schedule[2]: 'start' must be a number, got None"),
}


@pytest.mark.parametrize("command", ["validate", "power-profile"])
@pytest.mark.parametrize("case", sorted(SCHEDULES))
def test_malformed_schedule_exits_1(capsys, example4_path, tmp_path, command, case):
    mutate, message = SCHEDULES[case]
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(mutate(SCHEDULE)))
    code, out, err = run(capsys, command, example4_path, str(path))
    assert_input_error(code, out, err, message)


@pytest.mark.parametrize("argv, message", [
    (["solve", "--model", "vdd", "--modes", "2,fast"], "cannot parse mode list '2,fast'"),
    (["solve", "--model", "vdd", "--modes", ","], "mode list must not be empty"),
    (["gen2p", "--values", "1,two"], "cannot parse integer list '1,two'"),
])
def test_unparsable_list_options_exit_1(capsys, example4_path, argv, message):
    if argv[0] == "solve":
        argv = [argv[0], example4_path, *argv[1:]]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err
