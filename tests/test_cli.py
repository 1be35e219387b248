import json
import subprocess
import sys

import pytest

from knotpoly import BiPoly, LaurentPoly
from knotpoly import cli, identities


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolynomialCommands:
    def test_alexander_trefoil(self, capsys):
        code, out, _ = run_cli(capsys, "alexander", "--s", "3")
        assert code == 0
        assert out == "t - 1 + t^(-1)\n"

    def test_alexander_unknot(self, capsys):
        code, out, _ = run_cli(capsys, "alexander", "--s", "1")
        assert code == 0
        assert out == "1\n"

    def test_homfly(self, capsys):
        code, out, _ = run_cli(capsys, "homfly", "--m", "1")
        assert code == 0
        assert out == "2a^2 + a^2z^2 - a^4\n"

    def test_qnum(self, capsys):
        code, out, _ = run_cli(capsys, "qnum", "--n", "4")
        assert code == 0
        assert out == "q^3 + q + q^(-1) + q^(-3)\n"

    def test_qpnum(self, capsys):
        code, out, _ = run_cli(capsys, "qpnum", "--n", "3")
        assert code == 0
        assert out == "q^2 + qp + p^2\n"

    def test_chebyshev(self, capsys):
        code, out, _ = run_cli(capsys, "chebyshev", "--kind", "first", "--n", "3")
        assert code == 0
        assert out == "x^3 - 3x\n"
        code, out, _ = run_cli(capsys, "chebyshev", "--kind", "second", "--n", "2")
        assert out == "x^2 - 1\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["alexander"],
            ["alexander", "--s", "0"],
            ["alexander", "--s", "two"],
            ["homfly", "--m", "-1"],
            ["chebyshev", "--kind", "third", "--n", "1"],
            ["verify", "no-such-suite"],
            ["table", "unified"],
            ["no-such-command"],
        ],
    )
    def test_exit_code_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "usage" in err


class TestVerify:
    def test_homfly_bridge_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "homfly-bridge", "--max-n", "50")
        assert code == 0
        assert out == "50/50 identities hold\n"

    def test_all_suites_pass_small(self, capsys):
        for suite in identities.SUITES:
            code, out, err = run_cli(capsys, "verify", suite, "--max-n", "12")
            assert code == 0, (suite, out, err)

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        # negative control: one side of one registry identity perturbed at n=4
        bridge = next(i for i in identities.IDENTITIES if i.suite == "homfly-bridge")
        broken = bridge._replace(rhs=lambda seq, n: bridge.rhs(seq, n) + int(n == 4))
        monkeypatch.setattr(identities, "IDENTITIES", (broken,))
        line = f"{bridge.name} n=4: sides differ"
        assert run_cli(capsys, "verify", "homfly-bridge", "--max-n", "9") == (
            1, "8/9 identities hold\n", f"FAIL {line}\n")
        code, out, _ = run_cli(capsys, "verify", "homfly-bridge", "--max-n", "9", "--format", "json")
        assert (code, json.loads(out)["failures"]) == (1, [line])

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "qnum-oracle", "--max-n", "7", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "qnum-oracle"
        assert report["passed"] == report["total"] == 16
        assert report["failures"] == []


class TestTables:
    def test_unified_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "unified", "--max", "3")
        assert code == 0
        assert out.splitlines() == [
            "s=1: 1",
            "s=2: t^(1/2) - t^(-1/2)",
            "s=3: t - 1 + t^(-1)",
        ]

    def test_link_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "alexander-links", "--max", "2")
        assert out.splitlines() == [
            "m=1/2: t^(1/2) - t^(-1/2)",
            "m=3/2: t^(3/2) - t^(1/2) + t^(-1/2) - t^(-3/2)",
        ]

    def test_json_rows_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "homfly", "--max", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["family"] == "homfly"
        labels = [row["label"] for row in payload["rows"]]
        assert labels == ["m=0", "m=1", "m=2"]
        polys = [BiPoly.from_json_dict(row["poly"]) for row in payload["rows"]]
        assert polys[2] == BiPoly.from_json_dict(
            json.loads(polys[2].render("json"))
        )

    @pytest.mark.parametrize("k", [0, 1, 12])
    @pytest.mark.parametrize("family", cli._TABLE_FAMILIES)
    def test_json_table_is_the_dict_built_dump(self, capsys, family, k):
        # the joined string the CLI writes against json.dumps of the schema
        rows = cli._TABLE_FAMILIES[family][0](k)
        want = json.dumps({"family": family, "rows": [
            {"label": label, "poly": poly.to_json_dict()} for label, poly in rows]})
        assert run_cli(capsys, "table", family, "--max", str(k), "--format", "json") == \
            (0, want + "\n", "")


class TestSkeinDerive:
    def test_classical(self, capsys):
        code, out, _ = run_cli(capsys, "skein-derive", "--family", "classical")
        assert code == 0
        assert out.splitlines() == [
            "c1 = t + t^(-1)",
            "c2 = -1",
            "b1 = t^(1/2) - t^(-1/2)",
            "b2 = 1",
        ]

    def test_rx(self, capsys):
        code, out, _ = run_cli(capsys, "skein-derive", "--family", "rx")
        assert out.splitlines() == [
            "c1 = rx",
            "c2 = -r^2",
            "b1 = r^(1/2) * sqrt(x - 2)",
            "b2 = r",
        ]

    def test_az(self, capsys):
        code, out, _ = run_cli(capsys, "skein-derive", "--family", "az")
        assert out.splitlines() == [
            "c1 = 2a^2 + a^2z^2",
            "c2 = -a^4",
            "b1 = az",
            "b2 = a^2",
        ]

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "skein-derive", "--family", "az", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["roundtrip_ok"] is True
        b2 = BiPoly.from_json_dict(payload["b2"])
        assert b2.terms == {(4, 0): 1}


    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failed_round_trip_exits_1(self, capsys, monkeypatch, fmt):
        compose = cli.compose_skein

        def perturbed(b1, b2):
            c1, c2 = compose(b1, b2)
            return c1 + 1, c2

        monkeypatch.setattr(cli, "compose_skein", perturbed)
        code, out, err = run_cli(capsys, "skein-derive", "--family", "az", "--format", fmt)
        assert code == 1
        assert err == "FAIL round trip: compose_skein(b1, b2) gives c1 = 1 + 2a^2 + a^2z^2, c2 = -a^4\n"
        if fmt == "json":
            assert json.loads(out)["roundtrip_ok"] is False


class TestJsonPolynomials:
    def test_alexander_json_round_trip_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "alexander", "--s", "6", "--format", "json")
        assert code == 0
        text = out.strip()
        poly = LaurentPoly.from_json_dict(json.loads(text))
        assert poly.render("json") == text



# every single-polynomial command and every table family, at a small index,
# with the text order of its table entry
SURFACE = [
    pytest.param([name, *(["--kind", "second"] if name == "chebyshev" else []),
                  f"--{option}", str(least + 3)], ascending, id=name)
    for name, (_, option, least, _, _, ascending) in cli._MEMBER_COMMANDS.items()
] + [
    pytest.param(["table", family, "--max", "3"], ascending, id=f"table-{family}")
    for family, (_, ascending) in cli._TABLE_FAMILIES.items()
]


def _parse(obj):
    return (BiPoly if "variables" in obj else LaurentPoly).from_json_dict(obj)


def _text(poly, ascending):
    return poly.render() if ascending is None else poly.render(ascending=ascending)


@pytest.mark.parametrize("argv, ascending", SURFACE)
def test_text_and_json_agree_and_json_round_trips(capsys, argv, ascending):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    if argv[0] == "table":
        rows = [(row["label"] + ": ", _parse(row["poly"])) for row in payload["rows"]]
        assert rows
        rebuilt = json.dumps({"family": argv[1], "rows": [
            {"label": row["label"], "poly": json.loads(poly.render("json"))}
            for row, (_, poly) in zip(payload["rows"], rows)]})
    else:
        rows = [("", _parse(payload))]
        rebuilt = rows[0][1].render("json")
    assert out == rebuilt + "\n"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "".join(f"{label}{_text(poly, ascending)}\n" for label, poly in rows)


# one line each, with the width fixed wide: argparse's help sections vary
# across Python versions, its usage lines do not
USAGE = {
    "": "usage: knotpoly [-h] command ...",
    "alexander": "usage: knotpoly alexander [-h] [--format {text,json}] --s S",
    "homfly": "usage: knotpoly homfly [-h] [--format {text,json}] --m M",
    "qnum": "usage: knotpoly qnum [-h] [--format {text,json}] --n N",
    "qpnum": "usage: knotpoly qpnum [-h] [--format {text,json}] --n N",
    "chebyshev": "usage: knotpoly chebyshev [-h] [--format {text,json}] --kind {first,second} --n N",
    "skein-derive": "usage: knotpoly skein-derive [-h] [--format {text,json}] --family {classical,rx,az}",
    "verify": "usage: knotpoly verify [-h] [--format {text,json}] [--max-n MAX_N] {"
              + ",".join(identities.SUITES) + "}",
    "table": "usage: knotpoly table [-h] [--format {text,json}] --max MAX {"
             + ",".join(cli._TABLE_FAMILIES) + "}",
}


@pytest.mark.parametrize("command", list(USAGE), ids=lambda c: c or "knotpoly")
def test_usage_line(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "1000")
    code, out, _ = run_cli(capsys, *filter(None, [command]), "--help")
    assert code == 0
    assert out.splitlines()[0] == USAGE[command]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "knotpoly", "alexander", "--s", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "t^2 - t + 1 - t^(-1) + t^(-2)\n"
