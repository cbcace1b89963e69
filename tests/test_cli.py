import decimal
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellentropy
from ellentropy.cli import main, parse_model
from ellentropy.errors import InvalidModel
from ellentropy.hyperrect import exact_entropy
from ellentropy.sequences import Canonical, Tabulated, TwoTermPolynomial

from series_reference import zeta_series_constant_alternating


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestModelParsing:
    def test_shorthand_canonical(self):
        assert parse_model("canonical:b=1,c=1") == Canonical(1.0, 1.0)

    def test_shorthand_two_term(self):
        m = parse_model("two_term:c1=1,c2=0.5,alpha1=1,alpha2=1.5")
        assert m == TwoTermPolynomial(1.0, 0.5, 1.0, 1.5)

    def test_shorthand_table_with_tail(self):
        m = parse_model("table:values=1;0.5,tail_b=1,tail_c=1")
        assert m == Tabulated((1.0, 0.5), tail=Canonical(1.0, 1.0))

    def test_inline_json(self):
        m = parse_model('{"kind":"canonical","b":2.0,"c":3.0}')
        assert m == Canonical(2.0, 3.0)

    def test_file_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(Canonical(1.5, 2.0).to_json()))
        assert parse_model(f"@{path}") == Canonical(1.5, 2.0)

    def test_single_value_table(self):
        assert parse_model("table:values=0.5") == Tabulated((0.5,))

    @pytest.mark.parametrize("text", [
        "canonical:b=abc,c=1",
        "table:values=1;x",
        "table:values=1,tail_b=1,tail_c=?",
        '{"kind": "canonical", "b": "abc", "c": 1}',
        '{"kind": "table", "values": [1, null]}',
    ])
    def test_malformed_number_is_invalid_model(self, text):
        with pytest.raises(InvalidModel):
            parse_model(text)


class TestExact:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "exact", "--model", "canonical:b=1,c=1", "--eps", "0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["value_bits"] == 4.0
        assert payload["kind"] == "exact"
        assert payload["epsilon"] == 0.3
        assert payload["certificate"]["center_count"] == 16

    @pytest.mark.parametrize("model,eps", [("canonical:b=1,c=1", 0.3), ("canonical:b=1,c=1", 0.003),
                                           ("table:values=1.0;0.5;0.5;0.2", 0.1)])
    def test_count_runs_expand_to_per_axis_counts(self, capsys, model, eps):
        code, out, _ = run(capsys, "exact", "--model", model, "--eps", str(eps))
        assert code == 0
        cert = json.loads(out)["certificate"]
        expanded = [count for count, mult in cert["count_runs"] for _ in range(mult)]
        assert expanded == cert["per_axis_counts"]
        assert all(mult > 0 for _, mult in cert["count_runs"])
        assert all(a != b for (a, _), (b, _) in zip(cert["count_runs"], cert["count_runs"][1:]))

    def test_nats_flag(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--model", "canonical:b=1,c=1", "--eps", "0.3", "--nats"
        )
        assert json.loads(out)["value_bits"] == pytest.approx(4.0 * math.log(2.0))

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "exact", "--model", "canonical:b=1,c=1", "--eps", "0.3",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["value_bits"] == 4.0

    def test_output_is_compact(self, capsys):
        # d* = 30,303: one line per axis count would more than double the output
        code, out, _ = run(capsys, "exact", "--model", "canonical:b=1,c=1", "--eps", "3.3e-5")
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"]["effective_dim"] == 30303
        assert len(out) < 0.5 * len(json.dumps(payload, indent=2, sort_keys=True))

    def test_center_count_past_the_digit_limit(self, capsys):
        # 9,999 axes: the covering number has more digits than json.loads
        # accepts in an int, so it is written as a decimal string
        code, out, _ = run(capsys, "exact", "--model", "canonical:b=1,c=1", "--eps", "1e-4")
        assert code == 0
        count = json.loads(out)["certificate"]["center_count"]
        assert isinstance(count, str) and len(count) > sys.get_int_max_str_digits()
        product = exact_entropy(Canonical(1.0, 1.0), 1e-4).exact_product()
        assert decimal.Decimal(count) == decimal.Decimal(product)

    def test_centers_export_csv_and_json(self, capsys, tmp_path):
        csv_file = tmp_path / "centers.csv"
        code, out, _ = run(
            capsys, "exact", "--model", "canonical:b=1,c=1", "--eps", "0.3",
            "--centers", str(csv_file),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"]["center_count"] == 16
        rows = csv_file.read_text().strip().splitlines()
        assert len(rows) == 16
        assert len(rows[0].split(",")) == 3  # effective dimension

        json_file = tmp_path / "centers.json"
        run(
            capsys, "exact", "--model", "canonical:b=1,c=1", "--eps", "0.3",
            "--centers", str(json_file),
        )
        assert len(json.loads(json_file.read_text())) == 16

    def test_centers_cap_reports_count(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "exact", "--model", "canonical:b=1,c=1", "--eps", "1e-5",
            "--centers", str(tmp_path / "never.csv"),
        )
        assert code == 4
        payload = json.loads(out)
        assert payload["kind"] == "cap-exceeded"
        assert payload["count_log2"] > 10**5  # count still reported, in log2


class TestExitCodes:
    def test_invalid_model_is_2(self, capsys):
        code, _, err = run(capsys, "exact", "--model", "bogus", "--eps", "0.3")
        assert code == 2
        assert json.loads(err)["kind"] == "invalid-input"

    @pytest.mark.parametrize("argv", [
        ("exact", "--model", "canonical:b=abc,c=1", "--eps", "0.3"),
        ("exact", "--model", "table:values=1;x", "--eps", "0.3"),
        ("bound-finite", "--axes", "1,x", "--p", "2", "--q", "2", "--eps", "0.4"),
        ("oracle", "--axes", "1,x", "--p", "2", "--q", "2", "--eps", "0.4"),
        ("mixed-bound", "--model", "table:values=1;0.5", "--dims", "9,x", "--eps", "0.5"),
    ])
    def test_malformed_number_is_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(err)["kind"] == "invalid-input"

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("exact", "--model", "canonical:b=1,c=1"),
        ("bound-finite", "--axes", "1,0.5", "--p", "2", "--q", "2"),
        ("bound-infinite", "--model", "canonical:b=1,c=1", "--p", "2", "--q", "2"),
        ("mixed-bound", "--model", "table:values=1;0.5", "--dims", "9,3"),
        ("asymptotic", "--p", "2", "--q", "2", "--b", "1"),
        ("estimator", "--model", "canonical:b=1,c=1"),
        ("oracle", "--axes", "1,0.5", "--p", "2", "--q", "2", "--resolution", "16"),
        ("besov", "--s", "1", "--d", "1", "--p1", "2", "--vol", "1"),
    ], ids=lambda argv: argv[0])
    def test_non_finite_eps_is_2(self, capsys, argv, eps):
        code, out, err = run(capsys, *argv, "--eps", eps)
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "invalid-input"

    @pytest.mark.parametrize("eps", ["0", "-0.1", "abc"])
    def test_eps_not_positive_number_is_2(self, capsys, eps):
        code, _, err = run(capsys, "exact", "--model", "canonical:b=1,c=1", "--eps", eps)
        assert code == 2
        assert "--eps" in json.loads(err)["error"]

    @pytest.mark.parametrize("gamma", ["0.5", "inf", "nan"])
    def test_mixed_gamma_not_finite_or_below_1_is_2(self, capsys, gamma):
        code, out, err = run(
            capsys, "mixed-bound", "--model", "table:values=1;0.5", "--dims", "9,9",
            "--eps", "0.5", "--gamma", gamma,
        )
        assert code == 2 and out == ""
        assert "gamma" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv", [
        # mu_d underflows to 0.0 at the cut
        ("bound-infinite", "--model", "canonical:b=1.88799e+17,c=1.19923e+11",
         "--p", "3", "--q", "1.5", "--eps", "2.64738e-63"),
        # eta = eps / mu_1 underflows
        ("mixed-bound", "--model", "table:values=1e300", "--dims", "9", "--eps", "1e-300"),
        # an axis of the product grid underflows to 0.0 (the first radius
        # answers), then mu_d at the cut
        ("sweep", "--model", "canonical:b=7.03989e+17,c=1.02693e-12", "--what",
         "bound-infinite", "--p", "3", "--q", "1", "--eps-grid", "0.00676:1.375e-70:5",
         "--format", "json"),
        # a two-term axis underflows to 0.0 inside the log-product
        ("bound-infinite", "--model", "two_term:c1=1e11,c2=1,alpha1=1.8e17,alpha2=2e17",
         "--p", "3", "--q", "1.5", "--eps", "1e-63"),
    ])
    def test_axis_or_eta_below_the_float_range_is_4(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 4
        assert json.loads(out)["kind"] == "cap-exceeded"

    @pytest.mark.parametrize("argv", [
        ("exact", "--model", "canonical:b=1,c=1", "--eps", "0.1"),
        ("sweep", "--model", "canonical:b=1,c=1", "--eps-grid", "0.1:0.01:3"),
        ("classify", "--p", "2", "--q", "1", "--b", "0.3"),  # an exit-3 answer
        ("oracle", "--axes", "1,0.5,0.25", "--p", "inf", "--q", "inf", "--eps", "0.2",
         "--resolution", "800"),  # an exit-4 error object
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_is_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "answer.out"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["kind"] == "invalid-input" and str(target) in payload["error"]

    def test_besov_scale_past_the_float_range_is_2(self, capsys):
        code, _, err = run(
            capsys, "besov", "--s", "67.5965", "--d", "1", "--p1", "1.5",
            "--vol", "7.05641e+07", "--eps", "7.1183e-22",
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["kind"] == "invalid-input" and "vol^e" in payload["error"]

    def test_mixed_lattice_past_the_float_range_is_4(self, capsys):
        code, out, _ = run(
            capsys, "mixed-bound", "--model", "table:values=1;0.5", "--dims", "9,9",
            "--eps", "0.5", "--gamma", "300",
        )
        assert code == 4
        assert json.loads(out)["kind"] == "cap-exceeded"

    def test_band_overflow_is_2(self, capsys):
        code, _, err = run(
            capsys, "asymptotic", "--p", "2", "--q", "2", "--b", "0.005", "--c", "1",
            "--eps", "1e-3",
        )
        assert code == 2
        assert "band edge leaves the float range" in json.loads(err)["error"]

    def test_noncompact_classify_is_3(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "2", "--q", "1", "--b", "0.3")
        assert code == 3
        assert json.loads(out)["regime"]["case"] == "NonCompact_a"

    def test_noncompact_bound_is_3(self, capsys):
        code, _, _ = run(
            capsys, "bound-infinite", "--model", "canonical:b=0.3,c=1",
            "--p", "2", "--q", "1", "--eps", "0.1",
        )
        assert code == 3

    def test_cap_is_4(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--axes", "1,0.5,0.25", "--p", "inf", "--q", "inf",
            "--eps", "0.2", "--resolution", "800",
        )
        assert code == 4
        assert json.loads(out)["kind"] == "cap-exceeded"

    def test_tail_power_past_the_float_range_is_4(self, capsys):
        # theta = 1/(1/1.999 - 1/2) is near 4,000, and 2**theta passes 2**1024
        code, out, _ = run(
            capsys, "bound-infinite", "--model", "canonical:b=1,c=2",
            "--p", "2", "--q", "1.999", "--eps", "0.1",
        )
        assert code == 4
        assert json.loads(out)["kind"] == "cap-exceeded"

    def test_non_positive_two_term_is_2(self, capsys):
        model = "two_term:c1=1,c2=-2,alpha1=1,alpha2=1.000001"
        code, _, err = run(capsys, "exact", "--model", model, "--eps", "0.1")
        assert code == 2
        assert json.loads(err)["kind"] == "invalid-input"

    @pytest.mark.parametrize("model, eps", [
        ("two_term:c1=1.0,c2=0.5,alpha1=0.001,alpha2=1.0", "0.1"),
        ("two_term:c1=1,c2=-0.9999,alpha1=0.001,alpha2=0.0011", "0.5"),
    ])
    @pytest.mark.parametrize("command", ["exact", "estimator"])
    def test_count_past_the_float_range_is_4(self, capsys, command, model, eps):
        code, out, _ = run(capsys, command, "--model", model, "--eps", eps)
        assert code == 4
        assert json.loads(out)["kind"] == "cap-exceeded"

    @pytest.mark.parametrize("argv, expected, kind", [
        # the regime constants leave the float range; the bands do not use them
        (("classify", "--p", "2", "--q", "1", "--b", "137.532"), 4, "cap-exceeded"),
        (("asymptotic", "--p", "2", "--q", "1", "--b", "140", "--eps", "0.5"), 0, "asymptotic"),
        (("besov", "--s", "300", "--d", "1", "--p1", "2", "--vol", "1", "--eps", "0.5"),
         0, "asymptotic"),
        # the power-sum kernel's rounding bound leaves the float range
        (("bound-infinite", "--model", "canonical:b=1e19,c=1", "--p", "2", "--q", "1",
          "--eps", "0.5"), 4, "cap-exceeded"),
        (("sweep", "--model", "canonical:b=7.38e17,c=1", "--what", "bound-infinite",
          "--p", "3", "--q", "2", "--eps-grid", "0.5:0.1:2", "--format", "json"),
         4, "cap-exceeded"),
    ], ids=lambda x: x[0] if isinstance(x, tuple) else None)
    def test_past_the_float_range_answers_or_is_4(self, capsys, argv, expected, kind):
        code, out, _ = run(capsys, *argv)
        assert code == expected
        assert json.loads(out)["kind"] == kind

    @pytest.mark.parametrize("argv, expected, kind", [
        # within an ulp of q = p/(pb+1) the float test of 1/q - 1/p < b gave
        # the other side from classify's exact one (exit 4 on a non-compact
        # body, exit 3 on a compact one)
        (("bound-infinite", "--model", "canonical:b=0.16666666666666666,c=1", "--p", "2",
          "--q", "1.5", "--eps", "0.5"), 3, "non-compact"),
        (("bound-infinite", "--model", "canonical:b=0.33333333333333337,c=1", "--p", "1.5",
          "--q", "1", "--eps", "0.5"), 4, "cap-exceeded"),
        # compact, with theta*b rounding to 1.0: the tail sum raised
        # DivergentTail, exit 2
        (("bound-infinite", "--model", "canonical:b=0.33333333333333337,c=1", "--p", "3",
          "--q", "1.5", "--eps", "0.5"), 4, "cap-exceeded"),
        (("bound-infinite", "--model", "canonical:b=0.6666666666666667,c=1", "--p", "inf",
          "--q", "1.5", "--eps", "0.5"), 4, "cap-exceeded"),
        # b + 1/p - 1/q rounds to 0.0 in a compact case: ZeroDivisionError,
        # exit 1
        (("classify", "--p", "1.5", "--q", "1", "--b", "0.33333333333333337"), 0,
         "classification"),
    ], ids=lambda x: x[0] if isinstance(x, tuple) else None)
    def test_near_the_critical_line_follows_classify(self, capsys, argv, expected, kind):
        code, out, _ = run(capsys, *argv)
        assert code == expected
        assert json.loads(out)["kind"] == kind

    def test_band_at_a_rounded_b_star_is_typed(self, capsys):
        # b* = 3.7e-17 > 0 exactly, where the float b + 1/p - 1/q is 0.0
        # (exit 1); the lower edge (Gamma c/eps)^(1/b*) leaves the float
        # range, as every such band edge does, with exit 2
        code, _, err = run(
            capsys, "asymptotic", "--p", "1.5", "--q", "1", "--b", "0.33333333333333337",
            "--eps", "0.1",
        )
        assert code == 2
        assert json.loads(err)["error"] == "lower band edge leaves the float range"

    def test_mixed_block_under_dimension_3_answers(self, capsys):
        # the density bound needs d >= 3, and a leading block of 2
        # dimensions went to it and exited 2
        code, out, _ = run(
            capsys, "mixed-bound", "--model", "canonical:b=1,c=1", "--dims", "2,3",
            "--eps", "0.5",
        )
        assert code == 0
        answer = json.loads(out)
        assert answer["certificate"]["block_sizes"] == [2]
        assert answer["lower"]["value_bits"] <= answer["value_bits"]

    @pytest.mark.parametrize("argv", [
        # these printed NaN or Infinity, which is not JSON, and exited 0
        ("bound-finite", "--axes", "1,1,1", "--p", "2", "--q", "2", "--eps", "0.5", "--eta", "inf"),
        ("bound-finite", "--axes", "1,1,1", "--p", "2", "--q", "2", "--eps", "0.5", "--eta", "nan"),
        ("bound-finite", "--axes", "1,1,nan", "--p", "2", "--q", "2", "--eps", "0.5"),
        ("bound-infinite", "--model", "canonical:b=inf,c=1", "--p", "2", "--q", "2",
         "--eps", "0.1"),
        # these raised a bare ValueError or OverflowError, so exited 1
        ("classify", "--p", "2", "--q", "2", "--b", "nan"),
        ("classify", "--p", "nan", "--q", "2", "--b", "1"),
        ("asymptotic", "--p", "2", "--q", "2", "--b", "nan", "--eps", "0.1"),
        ("exact", "--model", "table:values=inf", "--eps", "0.1"),
        # b below the float range became 0.0, and 0/0 exited 1
        ("classify", "--p", "2", "--q", "2", "--b", "1e-400"),
        # bound-finite fell back to the volume bound with a warning, and
        # oracle reported a product grid, both exiting 0
        ("bound-finite", "--axes", "1,1,1", "--p", "2", "--q", "2", "--eps", "0.5", "--eta", "0"),
        ("bound-finite", "--axes", "1,1,1", "--p", "2", "--q", "2", "--eps", "0.5", "--eta", "-1"),
        ("oracle", "--axes", "1,0.9,0.8", "--p", "2", "--q", "2", "--eps", "0.5",
         "--resolution", "8", "--eta", "0"),
    ], ids=" ".join)
    def test_number_out_of_its_range_is_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "invalid-input"

    def test_oracle_with_a_reach_past_an_axis_answers(self, capsys):
        # the snap window came out empty, and argmin raised a bare ValueError
        code, out, _ = run(
            capsys, "oracle", "--axes", "3.39791e+27,7.30267e+25,4.33166e-30", "--p", "3",
            "--q", "1.5", "--eps", "41.3643", "--resolution", "13",
        )
        assert code == 0
        assert json.loads(out)["all_ok"] is True

    def test_oracle_at_a_radius_past_the_float_squares_answers(self, capsys):
        # the snap reach squared to inf, and the window raised a bare
        # OverflowError; the counts are 1, and the product grid 0 bits
        code, out, _ = run(
            capsys, "oracle", "--axes", "1,0.5", "--p", "2", "--q", "2", "--eps", "1e200",
            "--resolution", "8",
        )
        assert code == 0
        answer = json.loads(out)
        assert answer["all_ok"] is True
        assert answer["report"]["cover_count"] == answer["report"]["pack_count"] == 1
        assert answer["values"]["upper_at_eps"] == 0.0

    def test_noncompact_besov_is_3(self, capsys):
        # s/d below 1/p1 - 1/2: the smoothness ball is not compact in L2
        code, _, _ = run(
            capsys, "besov", "--s", "0.3", "--d", "1", "--p1", "1", "--vol", "1",
            "--eps", "0.01",
        )
        assert code == 3


class TestSubcommands:
    def test_classify_compact_payload(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "2", "--q", "2", "--b", "1")
        assert code == 0
        regime = json.loads(out)["regime"]
        assert regime["case"] == "Compact_iii"
        assert regime["exact_const"] == pytest.approx(1 / math.log(2))

    def test_constants_gamma(self, capsys):
        code, out, _ = run(capsys, "constants", "--gamma-pq", "--p", "2", "--q", "2")
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_constants_tables(self, capsys):
        code, out, _ = run(capsys, "constants")
        payload = json.loads(out)
        assert payload["gamma_pq_table"]["2,2"] == 1.0
        table = payload["zeta_series_table"]
        assert sorted(table) == ["0.5", "1.0", "2.0"]
        for b, value in table.items():
            assert abs(value - zeta_series_constant_alternating(float(b))) <= 1e-12

    @pytest.mark.parametrize("b", ["inf", "nan", "0", "1e17"])
    def test_zeta_series_without_enclosure_is_2(self, capsys, b):
        code, out, err = run(capsys, "constants", "--zeta-series", b)
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "invalid-input"

    def test_bound_finite_payload(self, capsys):
        code, out, _ = run(
            capsys, "bound-finite", "--axes", "1,0.9,0.8", "--p", "2", "--q", "2",
            "--eps", "0.4", "--eta", "1.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["upper"]["case_tag"] in ("FD1", "FD2")
        assert payload["upper"]["kappa_used"] > 1.0
        assert payload["upper"]["admissible_radius"][1] >= 0.4
        assert payload["lower"]["value_bits"] <= payload["upper"]["value_bits"]

    def test_bound_infinite_certificate(self, capsys):
        code, out, _ = run(
            capsys, "bound-infinite", "--model", "canonical:b=1,c=1",
            "--p", "inf", "--q", "inf", "--eps", "0.1",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["certificate"]["effective_dimension"] == 9
        assert payload["value_bits"] > 0

    def test_bound_infinite_where_eps_power_underflows(self, capsys):
        # eps**3 is below the smallest float, yet the split radius is not
        code, out, _ = run(
            capsys, "bound-infinite", "--model",
            "table:values=126557851342830.53;49252082008376.6;71973.5167531462;"
            "2.023857410434625e-07",
            "--p", "3", "--q", "3", "--eps", "2.000850940303659e-276",
        )
        assert code == 0
        assert json.loads(out)["value_bits"] == pytest.approx(3753.6, rel=1e-4)

    def test_mixed_bound(self, capsys):
        code, out, _ = run(
            capsys, "mixed-bound", "--model", "table:values=1;0.5", "--dims", "9,9",
            "--eps", "0.5",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["lower"]["value_bits"] <= payload["value_bits"]
        assert payload["warnings"] == []
        assert "rogers_k" not in payload["query"]
        assert any("density bound" in n for n in payload["certificate"]["notes"])

    def test_mixed_bound_has_no_rogers_k_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["mixed-bound", "--model", "table:values=1;0.5", "--dims", "9,9",
                  "--eps", "0.5", "--rogers-k", "1"])
        assert info.value.code == 2

    def test_estimator(self, capsys):
        code, out, _ = run(
            capsys, "estimator", "--model", "canonical:b=1,c=1", "--eps", "0.01"
        )
        assert code == 0
        assert json.loads(out)["value_bits"] == pytest.approx(100 / math.log(2), rel=0.05)

    def test_asymptotic_band(self, capsys):
        code, out, _ = run(
            capsys, "asymptotic", "--p", "2", "--q", "2", "--b", "1", "--c", "1",
            "--eps", "0.01",
        )
        lo, hi = json.loads(out)["value_bits"]
        assert lo == pytest.approx(100 / math.log(2))
        assert hi == pytest.approx(100 * (1 / math.log(2) + 1))

    def test_besov(self, capsys):
        code, out, _ = run(
            capsys, "besov", "--s", "1", "--d", "1", "--p1", "2", "--vol", "1",
            "--eps", "0.01",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["model"] == {"kind": "canonical", "b": 1.0, "c": 1.0}
        assert payload["value_bits"][0] == pytest.approx(100 / math.log(2))

    def test_oracle_report(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--axes", "1,0.5", "--p", "inf", "--q", "inf",
            "--eps", "0.3", "--resolution", "32",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["all_ok"] is True
        assert payload["report"]["cover_count"] >= 8


class TestSweep:
    def test_csv_row_count(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", "canonical:b=1,c=1",
            "--eps-grid", "0.01:0.3:7", "--what", "exact",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,value_bits,kind"
        assert len(lines) == 8

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", "canonical:b=1,c=1",
            "--eps-grid", "0.05:0.5:4", "--what", "estimator", "--format", "json",
        )
        payload = json.loads(out)
        assert len(payload["rows"]) == 4
        assert all(r["kind"] == "asymptotic" for r in payload["rows"])

    @pytest.mark.parametrize("grid", ["nan:0.3:4", "0.01:inf:4"])
    def test_non_finite_grid_is_2(self, capsys, grid):
        code, _, err = run(capsys, "sweep", "--model", "canonical:b=1,c=1", "--eps-grid", grid)
        assert code == 2
        assert json.loads(err)["kind"] == "invalid-input"

    def test_bad_grid_is_2(self, capsys):
        code, _, _ = run(
            capsys, "sweep", "--model", "canonical:b=1,c=1", "--eps-grid", "oops"
        )
        assert code == 2


# exit code, stdout and stderr of each argv through cli.main: the CLI's
# output contract, byte for byte; re-record only for a deliberate change
PINNED = json.loads((Path(__file__).parent / "cli_bytes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", PINNED, ids=lambda case: " ".join(case["argv"]))
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_pinned_bytes(capsys, tmp_path, case, to_file):
    target = tmp_path / "answer.out"
    argv = case["argv"] + (["--out", str(target)] if to_file else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (case["exit"], case["stderr"])
    if to_file:
        # --out takes what stdout would print; an error on stderr writes no file
        assert out == ""
        written = target.read_text(encoding="utf-8") if target.exists() else ""
        assert written == case["stdout"]
    else:
        assert out == case["stdout"]


def _scaled_by_ln2(bits, nats) -> int:
    """Assert that ``nats`` is ``bits`` with every value under a ``value_bits``
    key times ln 2 and nothing else changed; the number of such values."""
    if isinstance(bits, dict):
        assert sorted(bits) == sorted(nats)
        scaled = 0
        for key, value in bits.items():
            if key == "value_bits":
                values = value if isinstance(value, list) else [value]
                expect = [v * math.log(2.0) for v in values]
                assert nats[key] == (expect if isinstance(value, list) else expect[0])
                scaled += len(values)
            else:
                scaled += _scaled_by_ln2(value, nats[key])
        return scaled
    if isinstance(bits, list):
        assert len(bits) == len(nats)
        return sum(_scaled_by_ln2(b, n) for b, n in zip(bits, nats))
    assert bits == nats
    return 0


@pytest.mark.parametrize("argv", [
    ("exact", "--model", "canonical:b=1,c=1", "--eps", "0.1"),
    ("bound-finite", "--axes", "1,0.5,0.25", "--p", "2", "--q", "2", "--eps", "0.2"),
    ("bound-finite", "--axes", "1,0.5", "--p", "2", "--q", "2", "--eps", "0.2"),  # lower only
    ("bound-infinite", "--model", "canonical:b=1,c=1", "--p", "2", "--q", "2", "--eps", "0.1"),
    ("mixed-bound", "--model", "table:values=1;0.5", "--dims", "9,9", "--eps", "0.5"),
    ("asymptotic", "--p", "1", "--q", "2", "--b", "1", "--eps", "0.01"),
    ("estimator", "--model", "canonical:b=1,c=1", "--eps", "0.01"),
    ("besov", "--s", "2", "--d", "1", "--p1", "2", "--vol", "1", "--eps", "0.01"),
    ("sweep", "--model", "canonical:b=1,c=1", "--eps-grid", "0.1:0.01:3", "--format", "json"),
    # oracle values stay in bits, as their log2_ names say
    ("oracle", "--axes", "1,0.5", "--p", "2", "--q", "2", "--eps", "0.3", "--resolution", "8"),
], ids=lambda argv: argv[0])
def test_nats_scales_every_value_bits_and_nothing_else(capsys, argv):
    code, out, _ = run(capsys, *argv)
    code_nats, out_nats, _ = run(capsys, *argv, "--nats")
    assert code == code_nats == 0
    scaled = _scaled_by_ln2(json.loads(out), json.loads(out_nats))
    assert (scaled > 0) == (argv[0] != "oracle")


def _run_python(code, *args):
    """stdout of ``python -c code args`` in a fresh process on this package."""
    src = str(Path(ellentropy.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=60,
        capture_output=True,
        text=True,
    ).stdout


def test_import_leaves_numpy_unloaded():
    # only the oracle needs numpy; the package imports it on first use
    _run_python("import ellentropy, ellentropy.cli, sys; assert 'numpy' not in sys.modules")
    assert ellentropy.oracle.greedy_cover is ellentropy.greedy_cover


def test_import_loads_no_submodule():
    code = "import ellentropy, sys; print([m for m in sys.modules if m.startswith('ellentropy.')])"
    assert _run_python(code).strip() == "[]"


# one cheap query for each of the 11 subcommands
SUBCOMMANDS = {
    "exact": ["--model", "canonical:b=1,c=1", "--eps", "0.1"],
    "bound-finite": ["--axes", "1,0.5,0.25", "--p", "2", "--q", "2", "--eps", "0.2"],
    "bound-infinite": ["--model", "canonical:b=1,c=1", "--p", "2", "--q", "2", "--eps", "0.1"],
    "mixed-bound": ["--model", "table:values=1;0.5", "--dims", "9,9", "--eps", "0.5"],
    "classify": ["--p", "2", "--q", "1", "--b", "1"],
    "asymptotic": ["--p", "2", "--q", "2", "--b", "1", "--eps", "0.01"],
    "estimator": ["--model", "canonical:b=1,c=1", "--eps", "0.01"],
    "oracle": ["--axes", "1,0.5", "--p", "2", "--q", "2", "--eps", "0.3", "--resolution", "8"],
    "besov": ["--s", "2", "--d", "1", "--p1", "2", "--vol", "1", "--eps", "0.01"],
    "constants": [],
    "sweep": ["--model", "canonical:b=1,c=1", "--eps-grid", "0.1:0.01:3"],
}


def _loaded_by(subcommand):
    """The modules a process loads to run one subcommand: ellentropy's
    submodules, and whichever of dataclasses and numpy it loads."""
    code = (
        "import contextlib, io, json, sys\n"
        "from ellentropy.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('ellentropy.')\n"
        "                    or m in ('dataclasses', 'numpy')))"
    )
    code, *modules = _run_python(code, subcommand, *SUBCOMMANDS[subcommand]).split()
    assert code == "0"
    return set(modules)


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_subcommand_loads_only_what_it_runs(subcommand):
    loaded = _loaded_by(subcommand)
    if subcommand == "oracle":
        assert "numpy" in loaded
    else:
        assert not loaded & {"dataclasses", "numpy", "ellentropy.oracle"}
    if subcommand == "classify":
        assert not loaded & {"ellentropy.block_decomp", "ellentropy.hyperrect"}


# every name the package served when it imported its modules eagerly
EXPORTS = {
    "asymptotics": (
        "Regime canonical_band classify effective_dimension entropy_estimator "
        "hilbert_second_order"
    ),
    "besov": "BesovSpec besov_entropy_band semi_axes_from_besov",
    "block_decomp": (
        "MixedEllipsoidSpec infinite_upper_bound mixed_lower_bound mixed_upper_bound tail_radius"
    ),
    "constants": (
        "HolderExponent as_exponent gamma_pq unit_ball_log_volume volume_ratio "
        "zeta zeta_series_constant"
    ),
    "errors": "EntropyError",
    "finite_bounds": (
        "FiniteBound FiniteEllipsoid admissible_radius density_upper_bound volume_lower_bound"
    ),
    "hyperrect": "HyperrectEntropy exact_entropy exact_entropy_counting optimal_covering",
    "numerics": "",
    "oracle": "OracleReport greedy_cover greedy_pack sandwich_report",
    "results": "BoundCertificate EntropyResult",
    "sequences": (
        "Canonical SemiAxisModel Tabulated TwoTermPolynomial axis cesaro_log_ratio "
        "counting log_product tail_power_sum"
    ),
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_package_names_are_their_modules_objects(module):
    mod = importlib.import_module(f"ellentropy.{module}")
    assert getattr(ellentropy, module) is mod
    listed = dir(ellentropy)
    assert module in listed
    for name in EXPORTS[module].split():
        assert getattr(ellentropy, name) is getattr(mod, name), name
        assert name in listed


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        ellentropy.nonexistent  # noqa: B018


def test_star_import_leaves_numpy_unloaded():
    code = (
        "import sys\n"
        "from ellentropy import *\n"
        "assert 'numpy' not in sys.modules\n"
        "print(exact_entropy.__module__, Canonical.__module__)"
    )
    assert _run_python(code).split() == ["ellentropy.hyperrect", "ellentropy.sequences"]
