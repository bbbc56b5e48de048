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
from cutlab.characterizations import verify_equivalences
from cutlab.cli import (
    EXIT_DISAGREEMENT,
    EXIT_EXPECTATION,
    EXIT_OK,
    EXIT_ORDER_CAP,
    EXIT_PARSE,
    main,
    parse_group_spec,
    render_verify,
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


@pytest.mark.parametrize(
    "text", ['{"kind":"cyclic","n":4,"colour":"red"}', '{"kind":"cyclic","n":5,"n":4}']
)
def test_unknown_fields_are_ignored_and_the_last_duplicate_wins(tmp_path, capsys, text):
    path = tmp_path / "group.json"
    path.write_text(text)
    assert main(["analyze", str(path), "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"] == "cyclic(4)"
    assert doc["descriptor"] == {"kind": "cyclic", "n": 4}


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


def test_small_order_cap_skips_the_p6_products(tmp_path, monkeypatch):
    # the four fixed 2-groups of the p6 check are built whatever the cap; the
    # products with them past the cap are recorded as skipped
    path = spec_file(tmp_path, {"kind": "cyclic", "n": 2})
    proc = run_cli("analyze", path, "--format", "json", CUTLAB_MAX_ORDER="4")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    p6 = next(r for r in json.loads(proc.stdout)["theorem_reports"] if r["name"] == "cor_p6_products")
    assert p6["agrees_with_decider"]
    monkeypatch.setenv("CUTLAB_MAX_ORDER", "4")
    report = next(r for r in verify_equivalences(construct(cyclic(2))) if r.name == "cor_p6_products")
    assert [t.clause.startswith("skipped") for t in report.trace] == [False, True, True, True]


def test_small_order_cap_skips_remark_pairs_past_it(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "corpus", "run", "--filter", "2-group", "--format", "json", "--output", str(out),
        CUTLAB_MAX_ORDER="100",
    )
    assert proc.returncode == EXIT_ORDER_CAP  # the 2-groups of order 256 are past the cap
    assert "Traceback" not in proc.stderr
    payload = json.loads(out.read_text())
    orders = [pair["product_order"] for pair in payload["remark_pairs"]]
    assert orders and max(orders) <= 100
    assert payload["aggregate"]["remark_pairs_checked"] == len(orders)


def test_max_order_option_caps_the_remark_pairs_like_the_environment(tmp_path):
    # --max-order reaches the remark pairs and the p6 products, as CUTLAB_MAX_ORDER does
    payloads = []
    for args, env in (((), {"CUTLAB_MAX_ORDER": "100"}), (("--max-order", "100"), {})):
        out = tmp_path / f"r{len(payloads)}.json"
        proc = run_cli(
            "corpus", "run", "--filter", "2-group", "--format", "json", "--output", str(out),
            *args, **env,
        )
        assert proc.returncode == EXIT_ORDER_CAP  # the 2-groups of order 256 are past the cap
        assert "Traceback" not in proc.stderr
        payloads.append(json.loads(out.read_text()))
    env_run, option_run = payloads
    assert option_run["aggregate"]["remark_pairs_checked"] == 91
    assert option_run["remark_pairs"] == env_run["remark_pairs"]
    assert [e["theorem_reports"] for e in option_run["entries"]] == [
        e["theorem_reports"] for e in env_run["entries"]
    ]


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
    proc = _run_under_address_limit("analyze", path, timeout=10)
    assert proc.returncode == EXIT_ORDER_CAP
    assert "byte budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_table_byte_budget_exits_before_allocation(tmp_path):
    # cyclic(65536) passes the order cap, but its int32 Cayley table would take 16 GiB
    # (and the int64 formula intermediates more); under a 1 GiB address-space limit
    # the CLI must still exit 65 at once
    path = spec_file(tmp_path, {"kind": "cyclic", "n": 65_536})
    proc = _run_under_address_limit("analyze", path, timeout=10)
    assert proc.returncode == EXIT_ORDER_CAP
    assert "byte budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def _run_under_address_limit(*args, limit=1 << 30, timeout=60):
    """Run ``python -m cutlab.cli`` in a subprocess under an address-space limit."""
    env = dict(os.environ, PYTHONPATH=str(Path(cutlab.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    env.pop("CUTLAB_MAX_ORDER", None)
    return subprocess.run(
        [sys.executable, "-m", "cutlab.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_quotient_table_byte_budget_exits_before_allocation(tmp_path):
    # the quotient of an order-65536 group by a subgroup of order 2 has a 4 GiB table
    parent = product(abelian([2] * 12), cyclic(16))
    path = spec_file(tmp_path, quotient_spec(parent, [8]).to_dict())
    proc = _run_under_address_limit("construct", path)
    assert proc.returncode == EXIT_ORDER_CAP
    assert "byte budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_quotient_by_a_large_subgroup_within_a_small_address_space(tmp_path):
    # N of order 4096 in a group of order 65536: the products of G with N take
    # 2 GiB at once, so the coset representatives are found in row blocks
    parent = product(abelian([2] * 12), cyclic(16))
    path = spec_file(tmp_path, quotient_spec(parent, [16 << k for k in range(12)]).to_dict())
    proc = _run_under_address_limit("construct", path, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert ": order 16," in proc.stdout
    assert "Traceback" not in proc.stderr


def test_order_8192_quotient_table_within_a_small_address_space(tmp_path):
    # N of order 8 in a group of order 65536: the quotient's int32 table takes 256 MiB,
    # and all its 8192^2 products at once would take 512 MiB per int64 array, so the
    # table is filled in row blocks
    parent = product(abelian([2] * 12), cyclic(16))
    path = spec_file(tmp_path, quotient_spec(parent, [2]).to_dict())
    proc = _run_under_address_limit("construct", path, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert ": order 8192," in proc.stdout
    assert "Traceback" not in proc.stderr


def test_analyze_symmetric_8_within_a_small_address_space(tmp_path):
    # A8, the derived subgroup of S8, is analyzed as a member set of S8: its own
    # table would take 1.5 GiB
    path = spec_file(tmp_path, {"kind": "symmetric", "degree": 8})
    proc = _run_under_address_limit("analyze", path, "--format", "json", timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    assert report["cut"] is True and report["solvable"] is False
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


def test_verify_table_sylow_subjects_name_elements_of_g(tmp_path, capsys):
    # an unlabeled table of Q8 x C3: each thm_nilpotent subject is an element of G
    G = construct(table_spec(24, construct(product(dicyclic(2), cyclic(3))).dense_table()))
    path = spec_file(tmp_path, {"kind": "table", "order": 24, "table": G.dense_table().tolist()})
    assert main(["verify", path, "--format", "json"]) == EXIT_OK
    (report,) = [r for r in json.loads(capsys.readouterr().out) if r["name"] == "thm_nilpotent"]
    assert report["predicted"] is True
    subjects = {"x^3 ~ x or x^-1": [], "x^2 ~ x^-1": []}
    for entry in report["trace"]:
        if entry["clause"] in subjects:
            subjects[entry["clause"]].append(int(entry["subject"]))
    two_orders = {int(G.element_order(x)) for x in subjects["x^3 ~ x or x^-1"]}
    three_orders = {int(G.element_order(x)) for x in subjects["x^2 ~ x^-1"]}
    assert two_orders == {1, 2, 4} and three_orders == {1, 3}
    assert len(subjects["x^3 ~ x or x^-1"]) == 5 and len(subjects["x^2 ~ x^-1"]) == 3


def test_p6_products_past_the_cap_are_skipped(tmp_path, capsys):
    # order 9216: the products with C2 and C2xC2 are within the cap, those with D8 and Q8 are not
    spec = product(abelian([2] * 10), abelian([3, 3]))
    path = spec_file(tmp_path, spec.to_dict())
    assert main(["analyze", path]) == EXIT_OK
    assert "cut: true" in capsys.readouterr().out
    assert main(["verify", path, "--format", "json"]) == EXIT_OK
    (report,) = [r for r in json.loads(capsys.readouterr().out) if r["name"] == "cor_p6_products"]
    assert report["agrees_with_decider"] is True
    clauses = {t["subject"]: t["clause"] for t in report["trace"]}
    assert clauses["G x C2"] == clauses["G x C2xC2"] == "product keeps cut"
    for name in ("G x D8", "G x Q8"):
        assert clauses[name] == "skipped: product order 73728 exceeds the cap 65536"


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


@pytest.mark.parametrize(
    "spec",
    [
        cyclic(1),
        table_spec(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
        symmetric(4),
        product(symmetric(3), cyclic(2)),
        quotient_spec(metacyclic(9, 9, 4), [3]),
        heisenberg(5),
    ],
    ids=lambda s: s.describe(),
)
def test_emit_table_writes_the_bytes_of_one_json_dump(tmp_path, capsys, spec):
    G = construct(spec)
    payload = {
        "group": spec.describe(),
        "order": G.order,
        "table": G.dense_table().tolist(),
        "labels": [G.label(x) for x in range(G.order)],
    }
    assert main(["construct", spec_file(tmp_path, spec.to_dict()), "--emit-table"]) == EXIT_OK
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_emit_table_within_a_small_address_space(tmp_path):
    # the 16 MiB table of cyclic(2048) prints as 46 MiB of JSON, one row at a time
    path = spec_file(tmp_path, cyclic(2048).to_dict())
    proc = _run_under_address_limit("construct", path, "--emit-table", limit=256 << 20)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith('{\n  "group": "cyclic(2048)",\n  "order": 2048,\n  "table": [\n')
    assert proc.stdout.endswith('"g^2047"\n  ]\n}\n')


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


def test_corpus_reports_hold_plain_python_values(corpus_result):
    # a numpy bool in a report changes its repr and makes verify's JSON writer fail
    checked = 0
    for entry in corpus_result.entries:
        for r in entry.reports:
            assert type(r.predicted) in (bool, type(None)), (entry.entry_id, r.name)
            assert type(r.agrees_with_decider) in (bool, type(None)), (entry.entry_id, r.name)
            assert all(type(t.ok) is bool for t in r.trace), (entry.entry_id, r.name)
            render_verify([r])
            checked += 1
    assert checked > 500


def test_public_names_resolve():
    for name in cutlab.__all__:
        assert hasattr(cutlab, name), name
