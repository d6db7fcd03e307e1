"""The FigureSpec registry, Rows helpers, deprecation shims, and new CLI."""

import argparse
import json

import pytest

import repro.figures as figures
from repro.cli import dispatch, main, parse_param_grid, parse_seeds
from repro.figures import (
    Rows,
    UnknownFigureError,
    get_spec,
    parse_int_tuple,
    registry,
    run_figure,
)


class TestRegistry:
    def test_names(self):
        assert set(registry()) == {
            "fig1", "fig4-delay", "fig4-jitter", "fig5", "fig6",
        }

    def test_registry_returns_a_copy(self):
        snapshot = registry()
        snapshot.pop("fig1")
        assert "fig1" in registry()

    def test_spec_defaults_and_docs(self):
        spec = registry()["fig4-jitter"]
        assert spec.doc.startswith("Figure 4 right")
        assert spec.defaults() == {"flow_counts": (1, 5, 25), "cycles": 400}

    def test_get_spec_unknown_lists_available(self):
        with pytest.raises(UnknownFigureError) as info:
            get_spec("fig9")
        assert "fig9" in str(info.value)
        assert "fig4-delay" in str(info.value)

    def test_resolve_rejects_unknown_param(self):
        with pytest.raises(ValueError, match="valid parameters"):
            registry()["fig4-delay"].resolve({"cycle": 10})

    def test_resolve_coerces_strings(self):
        spec = registry()["fig4-jitter"]
        params = spec.resolve({"cycles": "30", "flow_counts": "1:5"})
        assert params == {"cycles": 30, "flow_counts": (1, 5)}

    def test_run_figure_validates_name(self):
        rows = run_figure("fig4-delay", cycles=30)
        assert len(rows) == 6
        with pytest.raises(UnknownFigureError):
            run_figure("fig9")

    def test_parse_int_tuple(self):
        assert parse_int_tuple("1,5,25") == (1, 5, 25)
        assert parse_int_tuple("1:5:25") == (1, 5, 25)
        assert parse_int_tuple([1, 5]) == (1, 5)


class TestRows:
    def test_is_a_list(self):
        rows = Rows([{"a": 1}])
        assert rows == [{"a": 1}]
        assert len(rows) == 1

    def test_to_json_round_trip(self):
        rows = Rows([{"a": 1, "b": "x"}])
        assert json.loads(rows.to_json()) == [{"a": 1, "b": "x"}]

    def test_render_dispatch(self):
        rows = Rows([{"a": 1}])
        assert rows.render("csv") == rows.to_csv()
        assert rows.render("table") == rows.to_table()
        assert rows.render("json") == rows.to_json(indent=2)
        with pytest.raises(ValueError, match="yaml"):
            rows.render("yaml")

    def test_empty(self):
        assert Rows().to_csv() == ""
        assert Rows().to_table() == "(no data)"
        assert Rows().to_json() == "[]"


class TestDeprecationShims:
    """The retired aliases are gone; module attribute lookups fail loudly."""

    def test_unknown_module_attribute_still_raises(self):
        for name in ("no_such_name", "FIGURES", "rows_to_csv", "rows_to_table"):
            with pytest.raises(AttributeError):
                getattr(figures, name)


class TestCliRedesign:
    def test_format_json(self, capsys):
        assert main(["fig4-delay", "--cycles", "30", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["variant"] for row in payload} >= {"Base", "TS"}

    def test_param_flag_reaches_figure(self, capsys):
        assert main(["fig4-jitter", "--cycles", "30",
                     "--flow-counts", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["flows"] for row in payload] == [1]

    def test_out_respects_format(self, tmp_path):
        target = tmp_path / "rows.json"
        assert main(["fig4-delay", "--cycles", "30",
                     "--out", str(target), "--format", "json"]) == 0
        assert json.loads(target.read_text())

    def test_dispatch_bypassing_argparse_unknown_figure(self, capsys):
        args = argparse.Namespace(command="fig9")
        assert dispatch(args) == 2
        err = capsys.readouterr().err
        assert "fig9" in err and "fig4-delay" in err

    def test_dispatch_bad_param_value_friendly(self, capsys):
        args = argparse.Namespace(
            command="sweep", figure=["fig1"], seeds="0",
            param=["bogus"], out_dir=None, manifest=None,
            jobs=1, no_cache=True,
        )
        assert dispatch(args) == 2
        assert "bad --param" in capsys.readouterr().err

    def test_sweep_manifest_and_warm_cache(self, tmp_path, capsys):
        argv = [
            "sweep", "--figure", "fig4-delay", "--seeds", "0,1",
            "--param", "cycles=30", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path / "rows"),
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache_misses"] == 2 and cold["cache_hits"] == 0

        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache_hits"] == 2 and warm["cache_misses"] == 0
        assert all(job["cached"] for job in warm["jobs"])
        assert len(list((tmp_path / "rows").glob("*.csv"))) == 2

    def test_parse_seeds(self):
        assert parse_seeds("0,1,2") == [0, 1, 2]
        assert parse_seeds("0..4") == [0, 1, 2, 3, 4]
        assert parse_seeds("7") == [7]
        for empty in ("3..1", ",", ""):
            with pytest.raises(ValueError, match="empty seed list"):
                parse_seeds(empty)

    def test_parse_param_grid(self):
        assert parse_param_grid(["cycles=1,2", "flow_counts=1:5"]) == {
            "cycles": ["1", "2"], "flow_counts": ["1:5"],
        }
        with pytest.raises(ValueError, match="bad --param"):
            parse_param_grid(["cycles"])
        for empty in ("cycles=,", "cycles= , "):
            with pytest.raises(ValueError, match="bad --param"):
                parse_param_grid([empty])
