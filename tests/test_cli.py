"""CLI verbs, spec parsing, report rendering, exit codes."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cutlab

from cutlab import group_core
from cutlab.cli import (
    EXIT_DISAGREEMENT,
    EXIT_EXPECTATION,
    EXIT_OK,
    EXIT_ORDER_CAP,
    EXIT_PARSE,
    main,
    parse_group_spec,
)
from cutlab.constructors import (
    abelian,
    construct,
    cyclic,
    dicyclic,
    heisenberg,
    metacyclic,
    permutation,
    product,
    quotient_spec,
    symmetric,
    table_spec,
)
from cutlab.corpus import builtin_corpus
from cutlab.errors import CutlabError, InvalidParameters, OrderCapExceeded, ParseError

# at least one invalid spec per kind with parameter checks: (spec, cap)
INVALID_SPECS = [
    (cyclic(0), None),
    (cyclic(1000), 100),
    (abelian([2, 0]), None),
    (metacyclic(9, 2, 3), None),
    (metacyclic(9, 2, 4), None),
    (dicyclic(0), None),
    (heisenberg(9), None),
    (heisenberg(45), 65_536),
    (symmetric(0), None),
    (symmetric(9), None),
    (permutation(3, [(0, 0, 2)]), None),
    (permutation(3, []), None),
    (table_spec(2, [[0, 1]]), None),
    (product(), None),
    (product(cyclic(50), cyclic(50)), 1000),
    (quotient_spec(cyclic(4), [9]), None),
    (quotient_spec(cyclic(4), [-1]), None),
]


def spec_file(tmp_path, payload, name="group.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# -- parse_group_spec ---------------------------------------------------------

def test_parse_metacyclic():
    spec = parse_group_spec('{"kind":"metacyclic","m":12,"n":2,"r":5}')
    assert spec == metacyclic(12, 2, 5)


def test_parse_trivial_cyclic():
    spec = parse_group_spec('{"kind":"cyclic","n":1}')
    assert spec.kind == "cyclic" and spec.n == 1


def test_parse_rejects_invalid_metacyclic_with_residue():
    with pytest.raises(InvalidParameters, match=r"7"):
        parse_group_spec('{"kind":"metacyclic","m":9,"n":2,"r":4}')


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(ParseError) as err:
        parse_group_spec('{"kind": cyclic}')
    assert err.value.position is not None


def test_parse_rejects_deep_nesting():
    text = '{"kind":"cyclic","n":2}'
    for _ in range(1000):
        text = '{"kind":"product","parts":[' + text + "]}"
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_group_spec(text)


def test_parse_rejects_unknown_kind():
    with pytest.raises(InvalidParameters):
        parse_group_spec('{"kind":"simple","n":60}')


def test_parse_nested_product():
    spec = parse_group_spec(
        '{"kind":"product","parts":[{"kind":"cyclic","n":2},'
        '{"kind":"dicyclic","n":2}]}'
    )
    assert spec.kind == "product" and len(spec.parts) == 2


def test_parse_render_roundtrip_on_corpus_descriptors():
    for entry in builtin_corpus():
        echoed = json.dumps(entry.spec.to_dict())
        assert parse_group_spec(echoed) == entry.spec
    # one validator: parsing and constructing reject a spec the same way
    for spec, cap in INVALID_SPECS:
        with pytest.raises(CutlabError) as parsed:
            parse_group_spec(json.dumps(spec.to_dict()), cap)
        with pytest.raises(CutlabError) as built:
            construct(spec, cap)
        assert type(parsed.value) is type(built.value), spec
        assert str(parsed.value) == str(built.value), spec


@pytest.mark.parametrize("index", [9, -1])
def test_quotient_generator_index_out_of_range(tmp_path, capsys, index):
    spec = {"kind": "quotient", "group": {"kind": "cyclic", "n": 4}, "normal_generators": [index]}
    with pytest.raises(InvalidParameters, match="normal generator"):
        parse_group_spec(json.dumps(spec))
    with pytest.raises(InvalidParameters, match="normal generator"):
        construct(quotient_spec(cyclic(4), [index]))
    # a permutation parent has no order before it is built
    with pytest.raises(InvalidParameters, match="normal generator"):
        construct(quotient_spec(permutation(3, [(1, 2, 0)]), [index]))
    assert main(["analyze", spec_file(tmp_path, spec)]) == EXIT_PARSE
    assert "invalid parameters" in capsys.readouterr().err


# -- analyze ------------------------------------------------------------------

def test_analyze_paper_positive(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "metacyclic", "m": 12, "n": 2, "r": 5})
    assert main(["analyze", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cut: true" in out
    assert "eppo: false" in out


def test_analyze_paper_negative_text(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "metacyclic", "m": 9, "n": 9, "r": 4})
    assert main(["analyze", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cut: false  witness: (b, j=2)" in out


def test_analyze_central_height_zero(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "metacyclic", "m": 7, "n": 3, "r": 2})
    assert main(["analyze", path]) == EXIT_OK
    assert "central_height: 0" in capsys.readouterr().out


def test_analyze_trivial_group(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "cyclic", "n": 1})
    assert main(["analyze", path, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["cut"] is True and doc["witnesses"] == []


def test_analyze_expectation_mismatch(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "metacyclic", "m": 12, "n": 2, "r": 5})
    assert main(["analyze", path, "--expect", "not-cut"]) == EXIT_EXPECTATION
    capsys.readouterr()


def test_analyze_json_is_canonical(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "heisenberg", "p": 3})
    assert main(["analyze", path, "--format", "json"]) == EXIT_OK
    first = json.loads(capsys.readouterr().out)
    assert main(["analyze", path, "--format", "json"]) == EXIT_OK
    second = json.loads(capsys.readouterr().out)
    first.pop("seconds")
    second.pop("seconds")
    assert first == second
    assert first["descriptor"] == {"kind": "heisenberg", "p": 3}


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == EXIT_PARSE
    capsys.readouterr()


def test_invalid_parameters_exit_code(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "metacyclic", "m": 9, "n": 2, "r": 4})
    assert main(["analyze", path]) == EXIT_PARSE
    assert "7" in capsys.readouterr().err


def test_order_cap_exit_code(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "cyclic", "n": 500})
    assert main(["analyze", path, "--max-order", "100"]) == EXIT_ORDER_CAP
    capsys.readouterr()


def test_bool_is_not_an_integer(tmp_path, capsys):
    for payload in (
        {"kind": "cyclic", "n": True},
        {"kind": "abelian", "factors": [2, True]},
    ):
        path = spec_file(tmp_path, payload)
        assert main(["analyze", path]) == EXIT_PARSE
        assert "invalid parameters" in capsys.readouterr().err


def run_cli(*args, **env_overrides):
    """Run ``python -m cutlab.cli`` in a subprocess with a clean order cap."""
    env = dict(os.environ, PYTHONPATH=str(Path(cutlab.__file__).parents[1]))
    env.pop("CUTLAB_MAX_ORDER", None)
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-m", "cutlab.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )


def test_huge_heisenberg_prime_hits_cap_before_factoring(tmp_path):
    # 2^61 - 1 is prime; trial division of it would run for hours
    path = spec_file(tmp_path, {"kind": "heisenberg", "p": 2305843009213693951})
    proc = run_cli("analyze", path)
    assert proc.returncode == EXIT_ORDER_CAP
    assert "order cap exceeded" in proc.stderr


def test_permutation_order_bound_hits_cap_before_closure():
    # one 100000-cycle has order 100000; closing it up to the cap would store
    # 65536 image arrays of degree 100000
    cycle = list(range(1, 100_000)) + [0]
    text = json.dumps({"kind": "permutation", "degree": 100_000, "generators": [cycle]})
    with pytest.raises(OrderCapExceeded):
        parse_group_spec(text, 65_536)
    # S3 on three points: generator orders 2, 2 and one orbit of length 3
    text = json.dumps({"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [0, 2, 1]]})
    with pytest.raises(OrderCapExceeded):
        parse_group_spec(text, 5)
    assert parse_group_spec(text, 6).degree == 3
    # S4 from (0 1 2) and (0 1 2 3): generator orders 3 and 4, one orbit of length 4
    text = json.dumps({"kind": "permutation", "degree": 4, "generators": [[1, 2, 0, 3], [1, 2, 3, 0]]})
    with pytest.raises(OrderCapExceeded):
        parse_group_spec(text, 11)
    assert parse_group_spec(text, 24).degree == 4


def test_permutation_byte_budget_exits_before_closure(tmp_path):
    # one 65536-cycle passes the order cap (its order is 65536), but its closure would
    # store 65536 images of 65536 points, 16 GiB; under a 1 GiB address-space limit the
    # CLI must still exit 65 at once, so it allocates nothing of that size
    cycle = list(range(1, 65_536)) + [0]
    path = spec_file(tmp_path, {"kind": "permutation", "degree": 65_536, "generators": [cycle]})
    env = dict(os.environ, PYTHONPATH=str(Path(cutlab.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    env.pop("CUTLAB_MAX_ORDER", None)
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "cutlab.cli", "analyze", path],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == EXIT_ORDER_CAP
    assert "byte budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_permutation_byte_budget_checked_at_parse_time(monkeypatch):
    # S4 from (0 1 2) and (0 1 2 3): the order bound 12 times 4 points times 4 bytes is 192
    text = json.dumps({"kind": "permutation", "degree": 4, "generators": [[1, 2, 0, 3], [1, 2, 3, 0]]})
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 191)
    with pytest.raises(OrderCapExceeded, match="byte budget 191"):
        parse_group_spec(text, 24)
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 192)
    assert parse_group_spec(text, 24).degree == 4


def test_non_integer_max_order_environment_exits_cleanly(tmp_path):
    path = spec_file(tmp_path, {"kind": "cyclic", "n": 4})
    proc = run_cli("analyze", path, CUTLAB_MAX_ORDER="abc")
    assert proc.returncode == EXIT_PARSE
    assert "CUTLAB_MAX_ORDER" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_spec_file_exits_cleanly(tmp_path):
    proc = run_cli("analyze", str(tmp_path / "missing.json"))
    assert proc.returncode == EXIT_PARSE
    assert "missing.json" in proc.stderr
    assert "Traceback" not in proc.stderr


# -- verify -------------------------------------------------------------------

def test_verify_reports_agreement(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "metacyclic", "m": 9, "n": 9, "r": 4})
    assert main(["verify", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "thm_nilpotent" in out and "agrees=true" in out


def test_verify_json(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "dicyclic", "n": 2})
    assert main(["verify", path, "--format", "json"]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    names = {r["name"] for r in reports}
    assert "thm_nilpotent" in names and "cor_p6_products" in names


# -- construct ----------------------------------------------------------------

def test_construct_emit_table_roundtrip(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "cyclic", "n": 6})
    assert main(["construct", path, "--emit-table"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 6
    table_path = spec_file(
        tmp_path, {"kind": "table", "order": 6, "table": payload["table"]}, "t.json"
    )
    assert main(["analyze", table_path]) == EXIT_OK
    assert "cut: true" in capsys.readouterr().out


def test_construct_summary(tmp_path, capsys):
    path = spec_file(tmp_path, {"kind": "symmetric", "degree": 4})
    assert main(["construct", path]) == EXIT_OK
    assert "24" in capsys.readouterr().out


# -- corpus run ---------------------------------------------------------------

def test_corpus_run_filtered(tmp_path, capsys):
    code = main(["corpus", "run", "--filter", "paper-example", "--format", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    payload = json.loads(out)
    ids = [e["id"] for e in payload["entries"]]
    assert ids == ["paper-cut-24", "paper-noncut-81"]
    assert payload["aggregate"]["disagreements"] == 0
    assert payload["aggregate"]["oracle_mismatches"] == 0


def test_corpus_run_text_format(capsys):
    code = main(["corpus", "run", "--filter", "paper-example"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "2 groups analyzed" in out
    assert "disagreements: 0" in out


def test_corpus_run_expectation_exit_code(monkeypatch, capsys):
    from cutlab import cli as cli_module
    from cutlab.corpus import CorpusEntry
    from cutlab.constructors import cyclic

    monkeypatch.setattr(
        cli_module,
        "builtin_corpus",
        lambda: [CorpusEntry("mislabeled", cyclic(5), frozenset({"cut-expected"}))],
    )
    assert main(["corpus", "run"]) == EXIT_EXPECTATION
    capsys.readouterr()


def test_corpus_run_order_cap_exit_code(monkeypatch, capsys):
    from cutlab import cli as cli_module
    from cutlab.corpus import CorpusEntry
    from cutlab.constructors import cyclic

    monkeypatch.setattr(
        cli_module,
        "builtin_corpus",
        lambda: [
            CorpusEntry("small", cyclic(3), frozenset({"cut-expected"})),
            CorpusEntry("big", cyclic(30), frozenset()),
        ],
    )
    assert main(["corpus", "run", "--max-order", "10"]) == EXIT_ORDER_CAP
    capsys.readouterr()


def test_corpus_run_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "corpus", "run",
            "--filter", "paper-example",
            "--format", "json",
            "--output", str(out_path),
        ]
    )
    assert code == EXIT_OK
    assert "report written" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["aggregate"]["groups_analyzed"] == 2


def test_corpus_run_unwritable_output_exits_before_running(tmp_path):
    # the full corpus takes seconds; a bad path must fail before it starts
    out_path = tmp_path / "no-such-dir" / "report.json"
    proc = run_cli("corpus", "run", "--output", str(out_path))
    assert proc.returncode == EXIT_PARSE
    assert "report.json" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
