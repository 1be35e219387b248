import argparse
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoly import BiPoly, LaurentPoly, cheb_second
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

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int-to-str digit limit")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficients_longer_than_the_digit_limit(self, capsys, fmt):
        # the largest coefficient of cheb_second(3400) has 709 digits; the
        # command lifts the limit while it runs and restores the caller's
        caller_limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = cheb_second(3400).render(fmt) + "\n"
            sys.set_int_max_str_digits(640)
            code, out, err = run_cli(capsys, "chebyshev", "--kind", "second", "--n", "3400",
                                     "--format", fmt)
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(caller_limit)
        assert (code, err) == (0, "")
        assert out == expected


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

    def test_library_run_refuses_an_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite 'no-such-suite'"):
            identities.run("no-such-suite", 3)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("max_n", [identities.NUMERIC_MAX_N + 1, 5000])
    def test_trig_refuses_n_past_the_float_range(self, capsys, monkeypatch, fmt, max_n):
        # refused before the sweep: no side of the suite is ever called
        def never(seq, n):
            raise AssertionError("the sweep ran")

        trig = tuple(i._replace(lhs=never, rhs=never)
                     for i in identities.IDENTITIES if i.suite == "trig")
        monkeypatch.setattr(identities, "IDENTITIES", trig)
        assert run_cli(capsys, "verify", "trig", "--max-n", str(max_n), "--format", fmt) == (
            2, "", "knotpoly verify: error: suite 'trig' samples floats,"
            " which support n up to 1023\n")
        with pytest.raises(ValueError, match="support n up to 1023"):
            identities.run("trig", max_n)

    def test_only_numeric_suites_have_the_float_limit(self):
        identities.check("trig", identities.NUMERIC_MAX_N)
        for suite in identities.SUITES:
            if suite != "trig":
                identities.check(suite, 5000)

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


# the last row builds the parser that run() keeps under a narrow terminal,
# where the table usage wraps, and widens the terminal before asking for help
@pytest.mark.parametrize("command, built_narrow", [
    *[pytest.param(command, False, id=command or "knotpoly") for command in USAGE],
    pytest.param("table", True, id="table-built-narrow"),
])
def test_usage_line(capsys, monkeypatch, command, built_narrow):
    if built_narrow:
        cli._parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "40")
        assert run_cli(capsys, "qnum", "--n", "1") == (0, "1\n", "")
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and out.splitlines()[0] != USAGE[command]
    monkeypatch.setenv("COLUMNS", "1000")
    code, out, _ = run_cli(capsys, *filter(None, [command]), "--help")
    assert code == 0
    assert out.splitlines()[0] == USAGE[command]


# one process's run() calls, each argv in JSON and then without --format,
# over every command, a usage error, a help page and two refusals
REUSED = [
    argv + fmt
    for argv in [
        *(param.values[0] for param in SURFACE),
        *(["skein-derive", "--family", family] for family in cli._SKEIN_FAMILIES),
        *(["verify", suite, "--max-n", "3"] for suite in identities.SUITES),
        ["verify", "trig", "--max-n", "5000"],
        ["alexander", "--s", "0"],
        ["table", "qnum", "--max", "10001"],
        ["verify", "--help"],
    ]
    for fmt in (["--format", "json"], [])
]


def test_reused_parser_gives_what_a_fresh_one_gives(capsys, monkeypatch):
    build = cli.build_parser
    builds = []

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    reused = [run_cli(capsys, *argv) for argv in REUSED]
    assert len(builds) == 1
    fresh = []
    for argv in REUSED:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    # the JSON call does not leave its format to the next one
    assert reused[REUSED.index(["qnum", "--n", "3"])] == (0, "q^2 + 1 + q^(-2)\n", "")


# each index option past its cap, with the largest index it accepts
TOO_LARGE = [
    *([name, *(["--kind", "first"] if name == "chebyshev" else []), f"--{option}"]
      for name, (_, option, *_) in cli._MEMBER_COMMANDS.items()),
    *(["table", family, "--max"] for family in cli._TABLE_FAMILIES),
    *(["verify", suite, "--max-n"] for suite in identities.SUITES),
]
BUILDERS = ["alexander_closed", "homfly_closed", "qnum_closed", "qpnum_closed", "cheb_first",
            "cheb_second", "cheb_first_seq", "cheb_second_seq", "alexander_unified_rec",
            "homfly_rec"]


@pytest.mark.parametrize("argv", TOO_LARGE, ids=" ".join)
def test_refuses_an_index_past_the_cost_cap(capsys, monkeypatch, argv):
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("a builder ran")

    for name in BUILDERS:
        monkeypatch.setattr(cli, name, spy)
    monkeypatch.setattr(identities, "check", spy)
    monkeypatch.setattr(identities, "run", spy)
    largest = 10**6 if argv[0] in cli._MEMBER_COMMANDS else 10**4
    code, out, err = run_cli(capsys, *argv, str(largest + 1))
    assert (code, out, calls) == (2, "", [])
    assert err.endswith(f"error: argument {argv[-1]}: value must be at most {largest}\n")
    args = cli.build_parser().parse_args([*argv, str(largest)])
    assert vars(args)[argv[-1][2:].replace("-", "_")] == largest


# an index too long for int(), past the interpreter's int-from-str digit
# limit, is refused by the bound its sign breaks, and malformed text is
# echoed cut short: each refusal is two short lines, not the whole argument
@pytest.mark.parametrize("argv, past, below", [
    (["alexander", "--s"], "at most 1000000", "at least 1"),
    (["table", "homfly", "--max"], "at most 10000", "nonnegative"),
    (["verify", "trig", "--max-n"], "at most 10000", "at least 1"),
], ids=["member", "table", "verify"])
def test_refuses_an_index_too_long_to_parse(capsys, argv, past, below):
    for text, refusal in [("9" * 5000, f"value must be {past}"),
                          ("-" + "9" * 5000, f"value must be {below}"),
                          ("9" * 5000 + "x", f"{'9' * 40!r}... is not an integer")]:
        code, out, err = run_cli(capsys, *argv, text)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {argv[-1]}: {refusal}\n")
        assert len(err.encode()) < 400
    # leading zeros count towards the limit, but not towards the value
    args = cli.build_parser().parse_args([*argv, "0" * 5000 + "7"])
    assert vars(args)[argv[-1][2:].replace("-", "_")] == 7


# every index is read by the one pattern ``cli._INTEGER``: it refuses as no
# integer exactly the text that int() refuses, digits of any script and the
# whitespace int() strips included, and reads any other text to int()'s value
# or to the bound that value breaks
@settings(max_examples=300)
@given(text=st.one_of(
    st.text(max_size=30),
    st.from_regex(r"\s*[+-]?\d+(_\d+)*\s*", fullmatch=True),
    st.text(st.sampled_from(" \t\x0b\x1c\x1f\x85\xa0\u3000_+-0123456789\u0660\u0967\uff10x"),
            max_size=30),
), lower=st.integers(0, 2), power=st.sampled_from((2, 3)))
def test_reads_an_index_as_int_does(text, lower, power):
    try:
        value = int(text)
    except ValueError:
        want = None
    else:
        if value < lower:
            want = "value must be nonnegative" if lower == 0 else f"value must be at least {lower}"
        elif value ** power > cli.MAX_DIGITS:
            want = f"value must be at most {round(cli.MAX_DIGITS ** (1 / power))}"
        else:
            want = value
    try:
        got = cli._index(lower, power)(text)
    except argparse.ArgumentTypeError as err:
        got = str(err)
    if want is None:
        assert isinstance(got, str) and got.endswith(" is not an integer")
    else:
        assert got == want


# the largest requests that CI, the benchmark's op lists and the tests make
@pytest.mark.parametrize("argv", [
    ["chebyshev", "--kind", "second", "--n", "21000"],
    ["alexander", "--s", "2000"],
    ["homfly", "--m", "200"],
    ["qnum", "--n", "1000"],
    ["table", "alexander-knots", "--max", "1000"],
    ["verify", "unified-skein", "--max-n", "1000"],
    ["verify", "closed-forms", "--max-n", "500"],
    ["verify", "trig", "--max-n", "5000"],
], ids=" ".join)
def test_accepts_every_index_in_use(argv):
    cli.build_parser().parse_args(argv)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "knotpoly", "alexander", "--s", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "t^2 - t + 1 - t^(-1) + t^(-2)\n"
