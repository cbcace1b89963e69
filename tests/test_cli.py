import decimal
import json
import math
import sys

import pytest

from ellentropy.cli import main, parse_model
from ellentropy.hyperrect import exact_entropy
from ellentropy.sequences import Canonical, Tabulated, TwoTermPolynomial


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
        assert "1.0" in payload["zeta_series_table"]

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

    def test_mixed_bound(self, capsys):
        code, out, _ = run(
            capsys, "mixed-bound", "--model", "table:values=1;0.5", "--dims", "9,9",
            "--eps", "0.5", "--rogers-k", "1",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["lower"]["value_bits"] <= payload["value_bits"]

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

    def test_bad_grid_is_2(self, capsys):
        code, _, _ = run(
            capsys, "sweep", "--model", "canonical:b=1,c=1", "--eps-grid", "oops"
        )
        assert code == 2
