"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core import DEFAULT_ALPHA, DEFAULT_MAX_DSEP_SIZE, DEFAULT_MEASURE_BINS
from repro.data import write_csv
from repro.datasets import generate_cityinfo, generate_lungcancer


@pytest.fixture(scope="module")
def cityinfo_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cityinfo.csv"
    write_csv(generate_cityinfo(n_rows=400, seed=0), path)
    return str(path)


@pytest.fixture(scope="module")
def lungcancer_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "lung.csv"
    write_csv(generate_lungcancer(n_rows=3000, seed=0), path)
    return str(path)


class TestFdsCommand:
    def test_lists_fds(self, cityinfo_csv, capsys):
        assert main(["fds", cityinfo_csv]) == 0
        out = capsys.readouterr().out
        assert "City --FD--> State" in out

    def test_no_fds_message(self, lungcancer_csv, capsys):
        assert main(["fds", lungcancer_csv]) == 0
        out = capsys.readouterr().out
        assert "no functional dependencies" in out


class TestDiscoverCommand:
    def test_xlearner_prints_fig4_chain(self, cityinfo_csv, capsys):
        assert main(["discover", cityinfo_csv]) == 0
        out = capsys.readouterr().out
        assert "City --> State" in out
        assert "Country <-- State" in out

    def test_fci_algorithm_selectable(self, cityinfo_csv, capsys):
        assert main(["discover", cityinfo_csv, "--algorithm", "fci"]) == 0

    def test_pc_algorithm_selectable(self, cityinfo_csv, capsys):
        assert main(["discover", cityinfo_csv, "--algorithm", "pc"]) == 0

    @pytest.mark.parametrize("algorithm", ["xlearner", "fci", "pc"])
    @pytest.mark.parametrize(
        "flag",
        [("--alpha", "2"), ("--alpha", "nan"), ("--max-depth", "-3")],
        ids=["alpha=2", "alpha=nan", "max-depth=-3"],
    )
    def test_bad_knob_exits_2_with_one_error_line(
        self, lungcancer_csv, capsys, algorithm, flag
    ):
        argv = ["discover", lungcancer_csv, "--algorithm", algorithm, *flag]
        assert main(argv) == 2
        captured = capsys.readouterr()
        errors = [
            line for line in captured.err.splitlines() if line.startswith("error:")
        ]
        assert len(errors) == 1 and flag[0][2:].replace("-", "_") in errors[0]
        assert captured.out == ""


class TestGroupbyCommand:
    def test_prints_groups(self, lungcancer_csv, capsys):
        code = main(
            ["groupby", lungcancer_csv, "--by", "Location", "--measure", "LungCancer"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AVG(LungCancer) by Location" in out
        assert "A" in out and "B" in out


class TestExplainViewCommand:
    def test_end_to_end(self, lungcancer_csv, lung_model, capsys):
        code = main(
            [
                "explain-view",
                lungcancer_csv,
                "--by",
                "Location",
                "--measure",
                "LungCancer",
                "--model",
                lung_model,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "AVG(LungCancer) GROUP BY Location" in captured.out
        assert "| Type | Attribute |" in captured.out
        assert "Smoking" in captured.out
        assert "workspace cache" in captured.err
        assert "explained 3/3" in captured.err

    def test_unknown_dimension_is_reported(self, lungcancer_csv, lung_model, capsys):
        code = main(
            [
                "explain-view",
                lungcancer_csv,
                "--by",
                "Nope",
                "--measure",
                "LungCancer",
                "--model",
                lung_model,
            ]
        )
        assert code == 2
        assert "unknown column 'Nope'" in capsys.readouterr().err


class TestExplainCommand:
    def test_end_to_end(self, lungcancer_csv, lung_model, capsys):
        code = main(
            [
                "explain",
                lungcancer_csv,
                "--s1",
                "Location=A",
                "--s2",
                "Location=B",
                "--measure",
                "LungCancer",
                "--model",
                lung_model,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Smoking" in out
        assert "causal" in out

    def test_bad_assignment_is_reported(self, lungcancer_csv, lung_model, capsys):
        code = main(
            [
                "explain",
                lungcancer_csv,
                "--model",
                lung_model,
                "--s1",
                "Location-A",
                "--s2",
                "Location=B",
                "--measure",
                "LungCancer",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_value_is_reported(self, lungcancer_csv, lung_model, capsys):
        code = main(
            [
                "explain",
                lungcancer_csv,
                "--model",
                lung_model,
                "--s1",
                "Location=Mars",
                "--s2",
                "Location=B",
                "--measure",
                "LungCancer",
            ]
        )
        assert code == 2

    def test_unknown_dimension_is_reported(self, lungcancer_csv, lung_model):
        code = main(
            [
                "explain",
                lungcancer_csv,
                "--model",
                lung_model,
                "--s1",
                "Galaxy=A",
                "--s2",
                "Location=B",
                "--measure",
                "LungCancer",
            ]
        )
        assert code == 2


class TestUnifiedDefaults:
    """Satellite: CLI and library defaults come from one place."""

    def test_explain_flags_match_library_defaults(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["fit", "f.csv", "--out", "m.json"])
        assert args.bins == DEFAULT_MEASURE_BINS
        assert args.alpha == DEFAULT_ALPHA
        assert args.max_dsep_size == DEFAULT_MAX_DSEP_SIZE
        assert args.max_depth is None
        args = parser.parse_args(["discover", "f.csv"])
        assert args.alpha == DEFAULT_ALPHA
        assert args.max_depth is None

    @pytest.mark.parametrize(
        "command",
        ["fds", "discover", "groupby", "ingest", "fit", "inspect",
         "explain", "batch-explain", "explain-view", "serve"],
    )
    def test_offline_flags_only_where_they_act(self, capsys, command):
        # The offline-phase knobs live on `fit`; `discover` keeps the two it
        # runs with.  Serving commands take a fitted --model instead.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--bins", "--max-dsep-size"):
            assert (flag in text) == (command == "fit"), flag
        for flag in ("--alpha", "--max-depth"):
            assert (flag in text) == (command in ("fit", "discover")), flag


@pytest.fixture(scope="module")
def lung_model(lungcancer_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-model") / "lung_model.json"
    assert main(["fit", lungcancer_csv, "--out", str(path), "--bins", "3"]) == 0
    return str(path)


class TestFitCommand:
    def test_fit_saves_artifact(self, lung_model, capsys):
        payload = json.loads(open(lung_model).read())
        assert payload["format"] == "xinsight-model"
        assert payload["fit"]["measure_bins"] == 3

    @pytest.mark.parametrize(
        "flag",
        [
            ("--max-depth", "-3"),
            ("--max-dsep-size", "-1"),
            ("--alpha", "2"),
            ("--alpha", "0"),
            ("--alpha", "nan"),
        ],
    )
    def test_bad_fit_knob_exits_2_and_writes_nothing(
        self, lungcancer_csv, tmp_path, capsys, monkeypatch, flag
    ):
        def unread(path, *args, **kwargs):
            raise AssertionError(f"fit read {path} before checking its knobs")

        monkeypatch.setattr("repro.cli.read_csv", unread)
        out = tmp_path / "m.json"
        assert main(["fit", lungcancer_csv, "--out", str(out), *flag]) == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1 and flag[0][2:].replace("-", "_") in errors[0]
        assert not out.exists()

    def test_inspect_prints_the_fit_profile(self, lung_model, capsys):
        assert main(["inspect", lung_model]) == 0
        lines = capsys.readouterr().out.splitlines()
        profile = json.loads(open(lung_model).read())["profile"]
        timed = r"\s+[\d.]+ m?s"
        phases = [m[1] for line in lines if (m := re.match(rf"  (\w+){timed}", line))]
        subs = [m[1] for line in lines if (m := re.match(rf"    (\w+){timed}", line))]
        depths = [
            int(m[1]) for line in lines
            if (m := re.match(rf"    depth (\d+):{timed} \(.*tests=", line))
        ]
        assert f"fit profile: {profile['rows']} rows" in lines[3]
        assert phases == ["discretize", "fd_detect", "fd_peel", "fci", "fd_orient"]
        assert subs == ["skeleton", "possible_d_sep", "orientation"]
        assert depths == list(range(len(profile["skeleton_depths"])))

    def test_explain_serves_saved_model(self, lungcancer_csv, lung_model, capsys):
        code = main(
            [
                "explain",
                lungcancer_csv,
                "--model",
                lung_model,
                "--s1",
                "Location=A",
                "--s2",
                "Location=B",
                "--measure",
                "LungCancer",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Smoking" in captured.out
        assert "fitting the offline phase" not in captured.err

    def test_explain_with_missing_model_is_reported(
        self, lungcancer_csv, tmp_path, capsys
    ):
        code = main(
            [
                "explain",
                lungcancer_csv,
                "--model",
                str(tmp_path / "absent.json"),
                "--s1",
                "Location=A",
                "--s2",
                "Location=B",
                "--measure",
                "LungCancer",
            ]
        )
        assert code == 2
        assert "no model file" in capsys.readouterr().err


class TestBatchExplainCommand:
    @pytest.fixture()
    def queries_file(self, tmp_path):
        specs = [
            {"s1": {"Location": "A"}, "s2": {"Location": "B"},
             "measure": "LungCancer", "agg": "AVG"},
            {"s1": {"Location": "B"}, "s2": {"Location": "A"},
             "measure": "LungCancer", "agg": "SUM"},
        ]
        path = tmp_path / "queries.json"
        path.write_text(json.dumps(specs))
        return str(path)

    def test_batch_serves_all_queries(
        self, lungcancer_csv, lung_model, queries_file, capsys
    ):
        code = main(
            ["batch-explain", lungcancer_csv, "--model", lung_model,
             "--queries", queries_file]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "query 1/2" in captured.out
        assert "query 2/2" in captured.out
        assert "answered 2/2" in captured.err

    def test_malformed_query_file_is_reported(
        self, lungcancer_csv, lung_model, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"s1": {"Location": "A"}}]')
        code = main(
            ["batch-explain", lungcancer_csv, "--model", lung_model,
             "--queries", str(bad)]
        )
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_non_object_subspace_is_reported(
        self, lungcancer_csv, lung_model, tmp_path, capsys
    ):
        bad = tmp_path / "bad_subspace.json"
        bad.write_text(
            '[{"s1": "Location=A", "s2": {"Location": "B"},'
            ' "measure": "LungCancer"}]'
        )
        code = main(
            ["batch-explain", lungcancer_csv, "--model", lung_model,
             "--queries", str(bad)]
        )
        assert code == 2
        assert "must be a" in capsys.readouterr().err

    def test_non_object_query_entry_is_reported(
        self, lungcancer_csv, lung_model, tmp_path, capsys
    ):
        bad = tmp_path / "bad_entry.json"
        bad.write_text('["s1"]')
        code = main(
            ["batch-explain", lungcancer_csv, "--model", lung_model,
             "--queries", str(bad)]
        )
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_empty_query_file_is_reported(
        self, lungcancer_csv, lung_model, tmp_path, capsys
    ):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        code = main(
            ["batch-explain", lungcancer_csv, "--model", lung_model,
             "--queries", str(empty)]
        )
        assert code == 2
        assert "is empty" in capsys.readouterr().err

    def test_whitespace_only_query_file_is_reported(
        self, lungcancer_csv, lung_model, tmp_path, capsys
    ):
        blank = tmp_path / "blank.json"
        blank.write_text("  \n\t\n")
        code = main(
            ["batch-explain", lungcancer_csv, "--model", lung_model,
             "--queries", str(blank)]
        )
        assert code == 2
        assert "is empty" in capsys.readouterr().err

    def test_invalid_json_query_file_is_reported(
        self, lungcancer_csv, lung_model, tmp_path, capsys
    ):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json at all")
        code = main(
            ["batch-explain", lungcancer_csv, "--model", lung_model,
             "--queries", str(bad)]
        )
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_aggregate_is_reported_not_traceback(
        self, lungcancer_csv, lung_model, tmp_path, capsys
    ):
        bad = tmp_path / "bad_agg.json"
        bad.write_text(json.dumps([
            {"s1": {"Location": "A"}, "s2": {"Location": "B"},
             "measure": "LungCancer", "agg": "MEDIAN"},
        ]))
        code = main(
            ["batch-explain", lungcancer_csv, "--model", lung_model,
             "--queries", str(bad)]
        )
        assert code == 2
        assert "unknown aggregate" in capsys.readouterr().err

    def test_non_string_aggregate_is_reported_not_traceback(
        self, lungcancer_csv, lung_model, tmp_path, capsys
    ):
        bad = tmp_path / "numeric_agg.json"
        bad.write_text(json.dumps([
            {"s1": {"Location": "A"}, "s2": {"Location": "B"},
             "measure": "LungCancer", "agg": 5},
        ]))
        code = main(
            ["batch-explain", lungcancer_csv, "--model", lung_model,
             "--queries", str(bad)]
        )
        assert code == 2
        assert "unknown aggregate" in capsys.readouterr().err

    def test_bad_measure_fails_before_any_fit(
        self, lungcancer_csv, lung_model, tmp_path, capsys
    ):
        for bad_measure in (7, "NoSuchColumn"):
            bad = tmp_path / "bad_measure.json"
            bad.write_text(json.dumps([
                {"s1": {"Location": "A"}, "s2": {"Location": "B"},
                 "measure": bad_measure},
            ]))
            code = main(
                ["batch-explain", lungcancer_csv, "--model", lung_model,
                 "--queries", str(bad)]
            )
            captured = capsys.readouterr()
            assert code == 2
            assert "measure" in captured.err
            assert "fitting the offline phase" not in captured.err


class TestIngestAndStore:
    @pytest.fixture(scope="class")
    def lung_store(self, lungcancer_csv, tmp_path_factory):
        store_dir = tmp_path_factory.mktemp("cli-store") / "lung.store"
        assert main(["ingest", lungcancer_csv, "--out", str(store_dir)]) == 0
        return str(store_dir)

    def test_ingest_reports_layout(self, lungcancer_csv, tmp_path, capsys):
        store_dir = tmp_path / "s"
        assert main(["ingest", lungcancer_csv, "--out", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "ingested 3000 rows" in out
        assert str(store_dir) in out

    def test_ingest_refuses_overwrite(self, lungcancer_csv, lung_store, capsys):
        code = main(["ingest", lungcancer_csv, "--out", lung_store])
        assert code == 2
        err = capsys.readouterr().err
        assert "already holds" in err
        assert "--force" in err  # the error names the escape hatch

    def test_ingest_force_replaces_store(self, lungcancer_csv, tmp_path, capsys):
        store_dir = tmp_path / "s"
        assert main(["ingest", lungcancer_csv, "--out", str(store_dir)]) == 0
        capsys.readouterr()
        code = main(["ingest", lungcancer_csv, "--out", str(store_dir), "--force"])
        assert code == 0
        assert "ingested 3000 rows" in capsys.readouterr().out
        # The replaced store still opens and serves.
        from repro.data.table import Table

        assert Table.from_store(str(store_dir)).n_rows == 3000

    def test_ingest_force_never_clobbers_foreign_directories(
        self, lungcancer_csv, tmp_path, capsys
    ):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "notes.txt").write_text("not a store")
        code = main(
            ["ingest", lungcancer_csv, "--out", str(target), "--force"]
        )
        assert code == 2
        assert "refusing" in capsys.readouterr().err
        assert (target / "notes.txt").read_text() == "not a store"

    def test_explain_from_store_matches_csv(
        self, lungcancer_csv, lung_store, lung_model, capsys
    ):
        query = [
            "--s1", "Location=A", "--s2", "Location=B",
            "--measure", "LungCancer", "--model", lung_model,
        ]
        assert main(["explain", lungcancer_csv, *query]) == 0
        from_csv = capsys.readouterr().out
        assert main(["explain", "--store", lung_store, *query]) == 0
        from_store = capsys.readouterr().out
        assert from_store == from_csv
        assert main(
            ["explain", "--store", lung_store, "--chunk-rows", "500", *query]
        ) == 0
        assert capsys.readouterr().out == from_csv
        # Bare --chunk-rows opts into the default slice size.
        assert main(["explain", "--store", lung_store, "--chunk-rows", *query]) == 0
        assert capsys.readouterr().out == from_csv

    def test_fit_from_store(self, lung_store, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        code = main(
            ["fit", "--store", lung_store, "--out", str(model_path), "--bins", "3"]
        )
        assert code == 0
        assert model_path.is_file()

    def test_file_and_store_is_an_error(
        self, lungcancer_csv, lung_store, lung_model, capsys
    ):
        code = main(
            [
                "explain", lungcancer_csv, "--store", lung_store,
                "--s1", "Location=A", "--s2", "Location=B",
                "--measure", "LungCancer", "--model", lung_model,
            ]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_neither_file_nor_store_is_an_error(self, lung_model, capsys):
        code = main(
            [
                "explain",
                "--s1", "Location=A", "--s2", "Location=B",
                "--measure", "LungCancer", "--model", lung_model,
            ]
        )
        assert code == 2
        assert "CSV file or --store" in capsys.readouterr().err

    def test_chunk_rows_without_store_is_an_error(
        self, lungcancer_csv, lung_model, capsys
    ):
        code = main(
            [
                "explain", lungcancer_csv, "--chunk-rows", "100",
                "--s1", "Location=A", "--s2", "Location=B",
                "--measure", "LungCancer", "--model", lung_model,
            ]
        )
        assert code == 2
        assert "--chunk-rows" in capsys.readouterr().err


class TestServeRegistryArgs:
    """serve --registry argument validation (the server boot itself is
    covered by tests/test_registry.py and the smoke probes)."""

    def test_registry_excludes_single_model_args(self, lungcancer_csv, capsys):
        code = main(
            ["serve", lungcancer_csv, "--registry", "somewhere", "--port", "0"]
        )
        assert code == 2
        assert "--registry" in capsys.readouterr().err

    def test_registry_must_exist(self, tmp_path, capsys):
        code = main(
            ["serve", "--registry", str(tmp_path / "absent"), "--port", "0"]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_needs_a_model_or_a_registry(
        self, lungcancer_csv, capsys, monkeypatch
    ):
        def boot(*args, **kwargs):
            raise AssertionError("serve booted without a model")

        monkeypatch.setattr("repro.cli.run_stack", boot)
        assert main(["serve", lungcancer_csv, "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "--model" in err and "--registry" in err

    @pytest.mark.parametrize(
        "flag",
        [
            ("--trace-ring", "-1"),
            ("--max-batch", "0"),
            ("--queue-limit", "0"),
            ("--workers", "0"),
            ("--default-timeout-ms", "nan"),
            ("--slow-query-ms", "-1"),
        ],
    )
    def test_bad_serve_knob_exits_2_before_reading_data(
        self, lungcancer_csv, lung_model, capsys, monkeypatch, flag
    ):
        def unread(path, *args, **kwargs):
            raise AssertionError(f"serve read {path} before checking its knobs")

        monkeypatch.setattr("repro.cli.read_csv", unread)
        argv = ["serve", lungcancer_csv, "--model", lung_model, "--port", "0"]
        assert main([*argv, *flag]) == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1 and flag[0][2:].replace("-", "_") in errors[0]


class TestServingNeedsAModel:
    """The serving commands never fit: ``fit`` writes the model, they load it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--s1", "Location=A", "--s2", "Location=B",
             "--measure", "LungCancer"],
            ["batch-explain", "--queries", "queries.json"],
            ["explain-view", "--by", "Location", "--measure", "LungCancer"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_model_exits_2(self, lungcancer_csv, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], lungcancer_csv, *argv[1:]])
        assert exit_info.value.code == 2
        assert "--model" in capsys.readouterr().err


class TestUnreadableCsv:
    """A data CSV that cannot be read is a typed error naming the path."""

    @pytest.fixture(params=["missing", "directory", "not-utf8"])
    def bad_csv(self, request, tmp_path):
        path = tmp_path / "data.csv"
        if request.param == "directory":
            path.mkdir()
        elif request.param == "not-utf8":
            path.write_bytes(b"Location,LungCancer\n\xff\xfe,1\n")
        return str(path)

    @pytest.mark.parametrize(
        "command",
        ["fds", "discover", "groupby", "ingest", "fit", "explain",
         "batch-explain", "explain-view", "serve"],
    )
    def test_exits_2_with_one_error_line(
        self, bad_csv, lung_model, tmp_path, capsys, command
    ):
        extra = {
            "groupby": ["--by", "Location", "--measure", "LungCancer"],
            "ingest": ["--out", str(tmp_path / "out.store")],
            "fit": ["--out", str(tmp_path / "m.json")],
            "explain": ["--model", lung_model, "--s1", "Location=A",
                        "--s2", "Location=B", "--measure", "LungCancer"],
            "batch-explain": ["--model", lung_model,
                              "--queries", str(tmp_path / "q.json")],
            "explain-view": ["--model", lung_model, "--by", "Location",
                             "--measure", "LungCancer"],
            "serve": ["--model", lung_model, "--port", "0"],
        }.get(command, [])
        assert main([command, bad_csv, *extra]) == 2
        captured = capsys.readouterr()
        errors = [
            line for line in captured.err.splitlines() if line.startswith("error:")
        ]
        assert len(errors) == 1 and bad_csv in errors[0]
        assert captured.out == ""


class TestUnreadableModel:
    """A model file that cannot be read is a typed error naming the path."""

    @pytest.fixture(params=["missing", "directory", "not-utf8"])
    def bad_model(self, request, tmp_path):
        path = tmp_path / "model.json"
        if request.param == "directory":
            path.mkdir()
        elif request.param == "not-utf8":
            path.write_bytes(b'{"schema": "\xff\xfe"}')
        return str(path)

    @pytest.mark.parametrize(
        "command",
        ["inspect", "explain", "batch-explain", "explain-view", "serve"],
    )
    def test_exits_2_with_one_error_line(
        self, bad_model, lungcancer_csv, tmp_path, capsys, monkeypatch, command
    ):
        def boot(*args, **kwargs):
            raise AssertionError("serve booted without a readable model")

        monkeypatch.setattr("repro.cli.run_stack", boot)
        queries = tmp_path / "q.json"
        queries.write_text(json.dumps([{
            "s1": {"Location": "A"}, "s2": {"Location": "B"},
            "measure": "LungCancer", "agg": "AVG",
        }]))
        argv = {
            "inspect": [bad_model],
            "explain": [lungcancer_csv, "--model", bad_model, "--s1",
                        "Location=A", "--s2", "Location=B",
                        "--measure", "LungCancer"],
            "batch-explain": [lungcancer_csv, "--model", bad_model,
                              "--queries", str(queries)],
            "explain-view": [lungcancer_csv, "--model", bad_model,
                             "--by", "Location", "--measure", "LungCancer"],
            "serve": [lungcancer_csv, "--model", bad_model, "--port", "0"],
        }[command]
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        errors = [
            line for line in captured.err.splitlines() if line.startswith("error:")
        ]
        assert len(errors) == 1 and bad_model in errors[0]
        assert captured.out == ""
