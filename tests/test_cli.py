"""Tests for the command-line interface."""

import json
import shutil

import pytest

from repro.cli import build_parser, main
from repro.datasets import load_collection_csv, load_collection_json


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_generate_writes_csv_and_ground_truth(tmp_path):
    output = tmp_path / "dirty.csv"
    truth_path = tmp_path / "truth.json"
    exit_code = main(
        [
            "generate",
            "--entities",
            "30",
            "--duplicates",
            "1.0",
            "--seed",
            "3",
            "--output",
            str(output),
            "--ground-truth",
            str(truth_path),
        ]
    )
    assert exit_code == 0
    collection = load_collection_csv(output)
    assert len(collection) >= 30
    truth = json.loads(truth_path.read_text())
    assert truth["clusters"]


def test_generate_json_clean_clean(tmp_path):
    output = tmp_path / "pair.json"
    assert main(["generate", "--entities", "20", "--clean-clean", "--output", str(output)]) == 0
    collection = load_collection_json(output)
    assert any(identifier.startswith("kbA:") for identifier in collection.identifiers)
    assert any(identifier.startswith("kbB:") for identifier in collection.identifiers)


def test_resolve_roundtrip(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "40", "--seed", "5", "--output", str(data)])
    clusters_file = tmp_path / "clusters.txt"
    exit_code = main(
        [
            "resolve",
            str(data),
            "--threshold",
            "0.5",
            "--scheduler",
            "weight_order",
            "--output",
            str(clusters_file),
        ]
    )
    assert exit_code == 0
    captured = capsys.readouterr().out
    assert "blocking" in captured and "clusters" in captured
    lines = clusters_file.read_text().strip().splitlines()
    assert lines
    assert all("|" in line for line in lines)


def test_link_two_collections(tmp_path, capsys):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    # generate a clean-clean JSON then split it into the two sources by prefix
    combined = tmp_path / "combined.json"
    main(["generate", "--entities", "30", "--clean-clean", "--seed", "9", "--output", str(combined)])
    collection = load_collection_json(combined)
    from repro.datamodel.collection import EntityCollection
    from repro.datasets import save_collection_csv

    left_collection = EntityCollection(
        (d for d in collection if d.identifier.startswith("kbA:")), name="left"
    )
    right_collection = EntityCollection(
        (d for d in collection if d.identifier.startswith("kbB:")), name="right"
    )
    save_collection_csv(left_collection, left)
    save_collection_csv(right_collection, right)

    exit_code = main(["link", str(left), str(right), "--threshold", "0.5", "--no-metablocking"])
    assert exit_code == 0
    assert "linked clusters" in capsys.readouterr().out


def test_unsupported_format_is_rejected(tmp_path):
    bogus = tmp_path / "data.xml"
    bogus.write_text("<xml/>")
    with pytest.raises(SystemExit):
        main(["resolve", str(bogus)])


def test_stage_table_names_the_paths_that_ran(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "30", "--seed", "7", "--output", str(data)])
    assert main(["resolve", str(data)]) == 0
    out = capsys.readouterr().out
    assert "engine=" not in out  # config.describe() has no implementation to name
    # the report stages name the executing engine:
    # "matching[<scheduler>@<scheduling engine>+<matching engine>]"
    for label in (
        "blocking[token_blocking@index]",
        "block_purging@index",
        "block_filtering@index",
        "metablocking[CBS+WNP@index]",
        "matching[weight_order@array+batch]",
        "clustering[connected_components@array]",
    ):
        assert label in out
    # a builtin scheme without an index build says so in the stage's notes
    with pytest.warns(RuntimeWarning):
        assert main(["resolve", str(data), "--blocking", "qgrams", "--no-metablocking"]) == 0
    assert "# oracle: QGramsBlocking" in capsys.readouterr().out


def _option_strings(parser):
    subcommands = next(a for a in parser._actions if a.choices and not a.option_strings)
    return {
        option
        for subparser in subcommands.choices.values()
        for action in subparser._actions
        for option in action.option_strings
    }


def test_no_engine_selection_flags():
    """Which implementation runs a stage is not selectable from the shell
    (``test_workflow.py::test_option_surface`` is the library's half)."""
    options = _option_strings(build_parser())
    assert {"--blocking", "--num-workers", "--snapshot", "--restore"} <= options
    assert not {o for o in options if o.endswith("engine") or o == "--no-shared-context"}
    for removed in (
        ["resolve", "x.csv", "--blocking-engine", "index"],
        ["resolve", "x.csv", "--no-shared-context"],
        ["incremental", "x.csv", "--engine", "array"],
    ):
        with pytest.raises(SystemExit) as usage_error:
            build_parser().parse_args(removed)
        assert usage_error.value.code == 2


@pytest.mark.parametrize(
    "removed",
    [
        ["--worker-timeout", "5"],
        ["--max-shard-retries", "1"],
        ["--on-worker-failure", "raise"],
        ["--strict"],
    ],
    ids=lambda option: option[0],
)
def test_no_worker_fault_flags(removed, capsys):
    """A dead worker aborts a pooled run; nothing about it is tunable."""
    with pytest.raises(SystemExit) as usage_error:
        main(["resolve", "x.csv", "--num-workers", "2", *removed])
    assert usage_error.value.code == 2
    assert f"unrecognized arguments: {removed[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--blocking", "--weighting", "--pruning", "--scheduler"])
def test_unknown_scheme_name_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as usage_error:
        main(["resolve", "x.csv", flag, "bogus"])
    assert usage_error.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["resolve", "x.json"], ["link", "left.json", "right.json"]]
)
@pytest.mark.parametrize(
    "option, message",
    [
        (["--budget", "-5"], "budget must be None or a non-negative int"),
        (["--num-workers", "0"], "num_workers must be at least 1"),
    ],
)
def test_a_bad_option_value_is_a_usage_error(command, option, message, capsys):
    """A value the option's type admits but the workflow refuses exits 2
    with the message, before any input file is read."""
    with pytest.raises(SystemExit) as usage_error:
        main(command + option)
    assert usage_error.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


def test_clustering_algorithm_flag(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "30", "--seed", "7", "--output", str(data)])
    assert main(["resolve", str(data), "--clustering", "merge_center"]) == 0
    out = capsys.readouterr().out
    assert "clustering[merge_center@array]" in out
    with pytest.raises(SystemExit):
        build_parser().parse_args(["resolve", "x.csv", "--clustering", "bogus"])


def test_incremental_snapshot_restore_roundtrip(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "30", "--seed", "9", "--output", str(data)])
    snap = tmp_path / "snap"
    clusters_file = tmp_path / "clusters.txt"
    assert (
        main(
            [
                "incremental",
                str(data),
                "--threshold",
                "0.5",
                "--snapshot",
                str(snap),
                "--output",
                str(clusters_file),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "incremental[profile_similarity@array]" in out
    assert "incremental_snapshot" in out
    assert clusters_file.exists()
    assert (snap / "manifest.json").is_file()

    # a later stream resumes from the snapshot without re-adding the history
    more = tmp_path / "more.csv"
    more.write_text("id,name\nnew:1,Completely Fresh Record\n")
    assert main(["incremental", str(more), "--restore", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "incremental_restore" in out


def _truncate_a_column(snap):
    column = snap / "context.token_ids.npy"
    column.write_bytes(column.read_bytes()[:-8])


def _mark_foreign(snap):
    manifest = json.loads((snap / "manifest.json").read_text())
    manifest["meta"]["kind"] = "something-else"
    (snap / "manifest.json").write_text(json.dumps(manifest))


def _drop_entry(name):
    """Damage: the manifest's column inventory loses ``name``."""

    def damage(snap):
        manifest = json.loads((snap / "manifest.json").read_text())
        del manifest["columns"][name]
        (snap / "manifest.json").write_text(json.dumps(manifest))

    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda snap: shutil.rmtree(snap), "no snapshot manifest"),
        (_truncate_a_column, "context.token_ids"),
        (_mark_foreign, "is not an incremental index"),
        (_drop_entry("context.token_ids"), "has no column 'context.token_ids'"),
        (_drop_entry("index.tree_data"), "has no column 'index.tree_data'"),
    ],
    ids=["missing", "truncated-column", "foreign-kind", "no-context-entry", "no-index-entry"],
)
def test_a_bad_restore_directory_is_a_usage_error(tmp_path, capsys, damage, message):
    """A missing, corrupt or non-index snapshot fails with one line on
    stderr and the usage-error status, not a traceback."""
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "10", "--seed", "9", "--output", str(data)])
    snap = tmp_path / "snap"
    assert main(["incremental", str(data), "--snapshot", str(snap)]) == 0
    damage(snap)
    capsys.readouterr()
    assert main(["incremental", str(data), "--restore", str(snap)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro incremental: error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("resolve", None, "No such file"),
        ("resolve", "id,name\na,alan\na,grace\n", "duplicate identifier"),
        ("resolve", '{"x": 1}', "'descriptions' list"),
        ("incremental", '{"descriptions": [{"attributes": {}}]}', "has no 'id'"),
        ("link", None, "No such file"),
        ("link", "id,name\na,alan\n", "disjoint identifier spaces"),
    ],
    ids=["missing", "duplicate-id", "not-a-collection", "record-without-id", "link-missing",
         "link-shared-id"],
)
def test_a_bad_input_file_is_a_usage_error(tmp_path, capsys, command, content, message):
    """A missing or malformed input fails with one line on stderr and the
    usage-error status, not a traceback (or a silently empty run)."""
    suffix = ".json" if content is not None and content.startswith("{") else ".csv"
    data = tmp_path / f"input{suffix}"
    if content is not None:
        data.write_text(content, encoding="utf-8")
    inputs = [str(data), str(data)] if command == "link" else [str(data)]
    assert main([command, *inputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {command}: error: ") and message in err
    assert err.count("\n") == 1
