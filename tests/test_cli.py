"""Command-line surface: golden outputs, exit codes and determinism.

Every CLI path is a thin wrapper over the library, so these tests pin exact
bytes for the data payloads and the documented exit-code contract:
0 proved stable, 3 conditional or semistable-only, 4 no certificate,
2 usage errors.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bnloci.cli import main

TABLE2_GOLDEN = """n2,g_min,paper_g_min
2,9,9
3,7,7
4,6,6
5,7,7
6,8,8
7,9,9
8,10,10
9,11,11
10,12,12
"""

TABLE1_GOLDEN = """n2,d_min_formula,d_max_formula,d_max_direct,paper_d_min,paper_d_max
2,9,10,11,9,10
3,11,17,18,12,17
4,12,24,24,15,24
5,14,31,31,19,31
6,15,37,37,23,37
7,16,44,44,26,44
8,17,50,50,30,50
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_beta_universal_text(capsys):
    code, out, _ = run(
        capsys, ["beta", "universal", "--g", "6", "--b1", "2,10",
                 "--b2", "4,-10", "--k", "5"],
    )
    assert code == 0
    assert out == "beta = -23\nbeta_negative_criterion = true\n"


def test_beta_classical(capsys):
    code, out, _ = run(
        capsys, ["beta", "classical", "--g", "10", "--n", "1", "--d", "9",
                 "--k", "3"],
    )
    assert code == 0 and out == "beta = 1\n"
    code, out, _ = run(
        capsys, ["beta", "classical", "--g", "6", "--n", "2", "--d", "10",
                 "--k", "0"],
    )
    assert code == 0 and out == "beta = 21\n"


def test_beta_twisted_json(capsys):
    code, out, _ = run(
        capsys, ["beta", "twisted", "--g", "6", "--b1", "2,10",
                 "--b2", "4,-10", "--k", "5", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"beta": -104}


def test_beta_usage_errors(capsys):
    code, _, err = run(capsys, ["beta", "classical", "--g", "6", "--k", "1"])
    assert code == 2 and err
    code, _, _ = run(capsys, ["beta", "nonsense", "--g", "6", "--k", "1"])
    assert code == 2


def test_certify_phi_proved(capsys):
    code, out, _ = run(
        capsys, ["certify", "phi", "--curve", "general:7",
                 "--locus1", "5,12,6", "--cs", "2,10,4"],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "proved"
    assert cert["witnesses"]["k"] == 24
    assert cert["beta"] == -64
    assert cert["conclusion"]["strength"] == "stable"


def test_certify_t10_worked_example(capsys):
    code, out, _ = run(
        capsys, ["certify", "t10", "--curve", "smooth:6,nonhyp",
                 "--n1", "2", "--d1", "10", "--k1", "5", "--c", "4",
                 "--d", "26", "--k", "33"],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["status"] == "proved"
    assert cert["witnesses"]["k"] == 33
    assert cert["witnesses"]["h0_tensor"] == 52
    assert cert["level_required"] == "general"


def test_certify_np1_semistable_exit_code(capsys):
    code, out, _ = run(
        capsys, ["certify", "np1", "--curve", "general:2", "--n1", "2",
                 "--d1", "4"],
    )
    assert code == 3
    cert = json.loads(out)
    assert cert["status"] == "proved"
    assert cert["conclusion"]["strength"] == "semistable"


def test_certify_none_exit_code(capsys):
    code, out, err = run(
        capsys, ["certify", "np1", "--curve", "general:10", "--n1", "6",
                 "--d1", "8"],
    )
    assert code == 4 and out == ""
    assert "no certificate" in err


def test_certify_t4_ex11(capsys):
    code, out, _ = run(
        capsys, ["certify", "t4", "--curve", "general:6", "--n1", "2",
                 "--d1", "10", "--k1", "5", "--n", "1", "--e", "25",
                 "--f", "0", "--d", "10"],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["beta"] == -23
    assert cert["witnesses"]["k"] == 5


def test_certify_usage_errors(capsys):
    code, _, _ = run(capsys, ["certify", "unknown-rule", "--curve", "general:5"])
    assert code == 2
    code, _, err = run(capsys, ["certify", "phi", "--curve", "general:5"])
    assert code == 2 and "--locus1" in err
    code, _, err = run(
        capsys, ["certify", "phi", "--curve", "bogus", "--locus1", "2,5,2",
                 "--cs", "1,9,3"],
    )
    assert code == 2


def test_sweep_table2_golden(capsys):
    code, out, _ = run(capsys, ["sweep", "table2"])
    assert code == 0
    assert out == TABLE2_GOLDEN


def test_sweep_table1_golden(capsys):
    code, out, _ = run(
        capsys, ["sweep", "table1", "--g", "10", "--locus1", "6,22,7"],
    )
    assert code == 0
    assert out == TABLE1_GOLDEN


def test_sweep_ex40(capsys):
    code, out, _ = run(capsys, ["sweep", "ex40", "--g", "11", "--n1", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n1,g,d1,k,beta"
    assert lines[1] == "3,11,12,16,-362"
    assert len(lines) == 5


def test_sweep_bnmap(capsys, tmp_path):
    boundary = tmp_path / "f10.csv"
    boundary.write_text("mu,lambda\n3,1\n9,11/10\n", encoding="utf-8")
    code, out, _ = run(
        capsys, ["sweep", "bnmap", "--g", "10", "--locus1", "2,5,2",
                 "--family", "dmin", "--n2", "5..8",
                 "--boundary", str(boundary)],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu0_num,mu0_den,lambda0_num,lambda0_den,classification"
    assert lines[1] == "53,10,6,5,new"
    assert len(lines) == 5
    # without a boundary the classification is unknown
    code, out, _ = run(
        capsys, ["sweep", "bnmap", "--g", "10", "--locus1", "2,5,2",
                 "--n2", "5..5"],
    )
    assert code == 0 and out.splitlines()[1].endswith("unknown")


def test_sweep_output_is_deterministic(capsys):
    first = run(capsys, ["sweep", "table1"])
    second = run(capsys, ["sweep", "table1"])
    assert first == second


def test_facts_list_contains_builtins(capsys):
    code, out, _ = run(capsys, ["facts", "list"])
    assert code == 0
    assert "S(2,g+3,4)" in out
    assert "odd genus" in out
    assert out.count("[builtin]") == 4


def test_facts_add_round_trip(capsys, tmp_path):
    path = tmp_path / "facts.json"
    record = json.dumps(
        {
            "kind": "B", "n": 3, "d": 14, "k": 4, "level": "general",
            "genus": {"min": 4}, "citation": "user-supplied fixture",
        }
    )
    code, out, _ = run(capsys, ["facts", "add", record, "--facts", str(path)])
    assert code == 0 and "added B(3,14,4)" in out
    code, out, _ = run(capsys, ["facts", "list", "--facts", str(path)])
    assert code == 0
    assert "B(3,14,4)" in out and "user-supplied fixture" in out


def test_facts_add_without_citation_rejected(capsys, tmp_path):
    path = tmp_path / "facts.json"
    record = json.dumps({"kind": "B", "n": 3, "d": 14, "k": 4})
    code, _, err = run(capsys, ["facts", "add", record, "--facts", str(path)])
    assert code == 2
    assert "citation" in err


def _assert_one_line_usage_error(capsys, tmp_path, record):
    path = tmp_path / "facts.json"
    code, out, err = run(capsys, ["facts", "add", record, "--facts", str(path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    return err


def test_facts_add_missing_rank_is_usage_error(capsys, tmp_path):
    record = json.dumps({"kind": "B", "d": 14, "k": 4, "citation": "x"})
    err = _assert_one_line_usage_error(capsys, tmp_path, record)
    assert "'n'" in err


def test_facts_add_non_object_record_is_usage_error(capsys, tmp_path):
    err = _assert_one_line_usage_error(capsys, tmp_path, "[1]")
    assert "JSON object" in err


def test_facts_add_invalid_json_is_usage_error(capsys, tmp_path):
    _assert_one_line_usage_error(capsys, tmp_path, "{kind: B")


def test_facts_env_var_default(capsys, tmp_path, monkeypatch):
    path = tmp_path / "facts.json"
    record = json.dumps(
        {"kind": "B", "n": 5, "d": 30, "k": 6, "citation": "env fixture"}
    )
    monkeypatch.setenv("BNLOCI_FACTS", str(path))
    code, _, _ = run(capsys, ["facts", "add", record])
    assert code == 0
    code, out, _ = run(capsys, ["facts", "list"])
    assert code == 0 and "env fixture" in out


def test_certificate_json_rationals_never_decimal(capsys):
    code, out, _ = run(
        capsys, ["certify", "t4", "--curve", "general:6", "--n1", "2",
                 "--d1", "10", "--k1", "5", "--n", "1", "--e", "25",
                 "--f", "0", "--d", "10"],
    )
    assert code == 0
    cert = json.loads(out)

    def no_floats(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into certificate JSON")
        if isinstance(node, dict):
            for value in node.values():
                no_floats(value)
        if isinstance(node, list):
            for value in node:
                no_floats(value)

    no_floats(cert)


def test_certify_missing_facts_file_is_usage_error(capsys, tmp_path):
    code, out, err = run(
        capsys, ["certify", "s", "--curve", "smooth:6", "--cs", "1,26,17",
                 "--facts", str(tmp_path / "typo.json")],
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "typo.json" in err


def test_facts_list_missing_facts_file_is_usage_error(capsys, tmp_path, monkeypatch):
    missing = str(tmp_path / "nope.json")
    code, out, err = run(capsys, ["facts", "list", "--facts", missing])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "nope.json" in err
    # the environment variable is a read path too
    monkeypatch.setenv("BNLOCI_FACTS", missing)
    code, out, err = run(capsys, ["facts", "list"])
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert not (tmp_path / "nope.json").exists()


def test_facts_add_duplicate_user_fact_rejected(capsys, tmp_path):
    path = tmp_path / "facts.json"
    record = json.dumps({"kind": "B", "n": 3, "d": 14, "k": 4, "citation": "x"})
    code, _, _ = run(capsys, ["facts", "add", record, "--facts", str(path)])
    assert code == 0
    saved = path.read_bytes()
    code, out, err = run(capsys, ["facts", "add", record, "--facts", str(path)])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "B(3,14,4)" in err
    assert path.read_bytes() == saved
    assert len(json.loads(saved)) == 1


def test_readme_rule_table_matches_registry():
    """The README's "Rules and their parameters" table lists exactly the
    CLI's certify rules, each with its flags in parameter order."""
    from bnloci.certkit import RULES as RULE_TABLE
    from bnloci.cli import RULES

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("Rules and their parameters:", 1)[1].lstrip("\n")
    rows = section[:section.index("\n\n")].splitlines()
    table = {}
    for row in rows[2:]:  # below the header and its separator
        rule, _, params = [cell.strip() for cell in row.strip("|").split("|")]
        flags = [word[2:] for word in params.replace("`", " ").split()
                 if word.startswith("--")]
        table[rule.strip("`")] = flags
    assert table == {rule: list(RULE_TABLE[rule].params) for rule in RULES}


def test_beta_json_bytes(capsys):
    code, out, _ = run(
        capsys, ["beta", "universal", "--g", "10", "--b1", "6,22", "--b2", "2,7",
                 "--k", "21", "--format", "json"],
    )
    assert code == 0
    assert out == '{\n  "beta": -541,\n  "beta_negative_criterion": true\n}\n'
    code, out, _ = run(
        capsys, ["beta", "classical", "--g", "10", "--n", "2", "--d", "9",
                 "--k", "3", "--format", "json"],
    )
    assert code == 0 and out == '{\n  "beta": 1\n}\n'


# Three records: a non-ASCII citation with quotes, a genus-relative degree
# with two genus keys, and no genus constraint at all (written as {}).
FACTS_ADDED = (
    '{"kind":"B","n":3,"d":14,"k":4,"genus":{"min":4},"level":"general",'
    '"citation":"Teixidor, \\"rank three\\" — B(3,14,4)"}',
    '{"kind":"S","n":2,"d":"g+5","v":4,"genus":{"equals":7, "parity":"odd"},'
    '"citation":"x"}',
    '{"kind":"Btilde","n":4,"d":"g-1","k":2,"citation":"y"}',
)
FACTS_FILE_GOLDEN = """[
  {
    "kind": "B",
    "n": 3,
    "d": 14,
    "k": 4,
    "level": "general",
    "genus": {
      "min": 4
    },
    "citation": "Teixidor, \\"rank three\\" \\u2014 B(3,14,4)"
  },
  {
    "kind": "S",
    "n": 2,
    "d": "g+5",
    "v": 4,
    "level": "smooth",
    "genus": {
      "equals": 7,
      "parity": "odd"
    },
    "citation": "x"
  },
  {
    "kind": "Btilde",
    "n": 4,
    "d": "g-1",
    "k": 2,
    "level": "smooth",
    "genus": {},
    "citation": "y"
  }
]
"""


def test_facts_add_file_and_json_list_bytes(capsys, tmp_path):
    path = tmp_path / "facts.json"
    for record in FACTS_ADDED:
        code, _, _ = run(capsys, ["facts", "add", record, "--facts", str(path)])
        assert code == 0
    assert path.read_text(encoding="utf-8") == FACTS_FILE_GOLDEN
    code, out, _ = run(capsys, ["facts", "list", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9edc1000f22da2396d85352c41fce09e98d76028aa0b2c07d698dc609681f072")
    code, out, _ = run(
        capsys, ["facts", "list", "--format", "json", "--facts", str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6e90ea024de24458f8bcbc6b6e8341d69d35919f5207d44172b65d5f5b4288fe")


def test_facts_file_with_a_repeated_key_is_rejected(capsys, tmp_path):
    path = tmp_path / "dup.json"
    record = {"kind": "B", "n": 3, "d": 14, "k": 4, "citation": "x"}
    path.write_text(json.dumps([record, dict(record, citation="y")]),
                    encoding="utf-8")
    saved = path.read_bytes()
    for argv in (["facts", "list"], ["facts", "list", "--format", "json"],
                 ["certify", "np1", "--curve", "general:10", "--n1", "6",
                  "--d1", "15"]):
        code, out, err = run(capsys, argv + ["--facts", str(path)])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "B(3,14,4)" in err
    other = json.dumps({"kind": "B", "n": 2, "d": 9, "k": 2, "citation": "z"})
    code, out, err = run(capsys, ["facts", "add", other, "--facts", str(path)])
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert path.read_bytes() == saved


def test_facts_add_non_string_citation_is_usage_error(capsys, tmp_path):
    err = _assert_one_line_usage_error(
        capsys, tmp_path,
        json.dumps({"kind": "B", "n": 3, "d": 14, "k": 4, "citation": 1.5}))
    assert "citation" in err
    assert not (tmp_path / "facts.json").exists()


def test_facts_add_non_integer_genus_bound_is_usage_error(capsys, tmp_path):
    err = _assert_one_line_usage_error(
        capsys, tmp_path,
        json.dumps({"kind": "B", "n": 3, "d": 14, "k": 4, "citation": "x",
                    "genus": {"min": "four"}}))
    assert "genus min" in err
    assert not (tmp_path / "facts.json").exists()


@pytest.mark.parametrize("field, value, name", [
    ("d", 14.5, "d"), ("k", "4", "section count"), ("n", True, "n"),
])
def test_facts_add_rejects_fields_that_are_not_integers(
        capsys, tmp_path, field, value, name):
    # int() would store B(3,14,4) for a degree of 14.5 or a count of "4",
    # and rank 1 for true; the record is refused instead.
    record = {"kind": "B", "n": 3, "d": 14, "k": 4, "citation": "x"}
    record[field] = value
    err = _assert_one_line_usage_error(capsys, tmp_path, json.dumps(record))
    assert err == "error: fact field %s must be an integer, got %r\n" % (
        name, value)
    assert not (tmp_path / "facts.json").exists()


def test_facts_add_malformed_genus_offset_names_the_field(capsys, tmp_path):
    for degree in ("g+x", "h+3"):
        err = _assert_one_line_usage_error(
            capsys, tmp_path,
            json.dumps({"kind": "B", "n": 3, "d": degree, "k": 4,
                        "citation": "x"}))
        assert err == (
            "error: fact field d must be an integer or g+offset, got %r\n"
            % degree)


def test_sweeps_reject_genus_below_two(capsys):
    for g in ("1", "0", "-5"):
        for argv in (["sweep", "ex40", "--g", g, "--n1", "3"],
                     ["sweep", "bnmap", "--g", g, "--n2", "3"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == ""
            assert err == "error: genus must be at least 2, got %s\n" % g


def test_deeply_nested_json_is_usage_error(capsys, tmp_path):
    deep = "[" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep, encoding="utf-8")
    for argv in (["facts", "list", "--facts", str(path)],
                 ["certify", "np1", "--curve", "general:10", "--n1", "6",
                  "--d1", "15", "--facts", str(path)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "recursion" in err
    _assert_one_line_usage_error(capsys, tmp_path, deep)
    assert not (tmp_path / "facts.json").exists()


def test_certify_t4_with_assumed_h1_vanishing_is_conditional(capsys, tmp_path):
    # B(2,2,3) has no rule on genus 6, so it comes from a user fact; the
    # slope of E1 tensor E is 1 + 8 = 9, not above 2g-2 = 10, so
    # h^1(E1 tensor E) = 0 is assumed rather than checked.
    path = tmp_path / "facts.json"
    record = json.dumps({"kind": "B", "n": 2, "d": 2, "k": 3, "citation": "x"})
    assert run(capsys, ["facts", "add", record, "--facts", str(path)])[0] == 0
    code, out, _ = run(
        capsys, ["certify", "t4", "--curve", "general:6", "--n1", "2",
                 "--d1", "2", "--k1", "3", "--n", "1", "--e", "7", "--f", "0",
                 "--d", "8", "--facts", str(path)],
    )
    assert code == 3
    cert = json.loads(out)
    assert cert["status"] == "conditional"
    assumed = [h["description"] for h in cert["hypotheses"]
               if h["status"] == "assumed"]
    assert assumed == [
        "there exists E1 in B(2,2,3) with h^1(E1 tensor E) = 0"]
    assert all(s["status"] == "proved" for s in cert["subcertificates"])


def test_readme_library_section_lists_every_export():
    """Every name that bnloci/__init__.py imports appears in the README's
    Library section."""
    import ast

    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "src" / "bnloci" / "__init__.py").read_text(
        encoding="utf-8"))
    exported = [alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert exported
    assert [name for name in exported if "`%s`" % name not in section] == []
