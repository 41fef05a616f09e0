"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestTablesAndCatalog:
    def test_tables(self):
        code, text = run(["tables"])
        assert code == 0
        assert "Table 1" in text and "Table 2" in text and "Table 3" in text
        assert "Network Lethal Dose" in text

    def test_catalog_default_table_only(self):
        code, text = run(["catalog"])
        assert code == 0
        assert "Distributed Management" in text
        assert "Quality of Documentation" not in text

    def test_catalog_all(self):
        code, text = run(["catalog", "--all"])
        assert "Quality of Documentation" in text
        assert "low(0):" in text

    def test_catalog_human_factors(self):
        code, text = run(["catalog", "--human-factors"])
        assert "Operator Workload" in text


class TestScenario:
    def test_generate_and_reload(self, tmp_path):
        path = str(tmp_path / "scenario.rtrc")
        code, text = run(["scenario", "--out", path, "--duration", "20",
                          "--no-dos", "--seed", "3"])
        assert code == 0
        assert "attack instances" in text
        from repro.net.trace import Trace

        trace = Trace.load(path)
        assert len(trace) > 0
        # ground truth preserved on disk
        assert any(p.attack_id for _, p in trace)

    def test_ecommerce_profile(self, tmp_path):
        path = str(tmp_path / "shop.rtrc")
        code, text = run(["scenario", "--out", path, "--profile",
                          "ecommerce", "--duration", "15", "--no-dos"])
        assert code == 0


class TestEvaluateAndSweep:
    def test_quick_evaluate_two_products(self):
        code, text = run(["evaluate", "--quick", "--products", "nid",
                          "manhunt", "--profile", "realtime"])
        assert code == 0
        assert "ranking (realtime):" in text
        assert "sim-nid" in text and "sim-manhunt" in text

    def test_sweep_small(self):
        code, text = run(["sweep", "--product", "manhunt", "--points", "2",
                          "--duration", "25"])
        assert code == 0
        assert "Equal Error Rate" in text
        assert "sensitivity" in text


class TestTemplate:
    def test_blank_scorecard_roundtrip(self, tmp_path):
        path = str(tmp_path / "template.json")
        code, text = run(["template", "--out", path,
                          "--products", "ids-a", "ids-b"])
        assert code == 0
        assert "52 metrics" in text
        from repro.core.catalog import default_catalog
        from repro.core.io import load_scorecard

        card = load_scorecard(path, default_catalog())
        assert card.products == ("ids-a", "ids-b")
        assert len(card) == 0  # blank: everything left to score

    def test_human_factors_template(self, tmp_path):
        path = str(tmp_path / "hf.json")
        code, text = run(["template", "--out", path, "--human-factors"])
        assert code == 0
        assert "57 metrics" in text
