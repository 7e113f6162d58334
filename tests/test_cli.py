"""Command line behavior: output formats, exit codes, determinism."""

import functools
import json
import random

import pytest

from srw import cli, hecke, seminormal
from srw.cli import build_parser, main, system_from_doc, system_to_doc
from srw.hecke import hecke_system
from srw.order import InstanceOrder
from srw.words import find_redexes

from oracles import all_words, commutation_class, fixpoint_reach


@pytest.fixture
def h3full(tmp_path):
    path = tmp_path / "h3full.json"
    assert main(["hecke", "gen", "3", "--variant", "rfull", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def h3prime(tmp_path):
    path = tmp_path / "h3prime.json"
    assert main(["hecke", "gen", "3", "--variant", "rprime", "-o", str(path)]) == 0
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The item lines of `srw hecke verify n`, as the per-pair criticals check
# printed them before the checks shared one diagram per class.
_VERIFY_ITEMS = {
    3: (
        "natural-diagrams-decreasing: PASS (64 rule pairs decreasing for every "
        "separator and whisker (123 sides by the context margin, 5 by the head))",
        "critical-pairs-covered: PASS (50 ordered pairs covered by decreasing "
        "diagrams "
        "(BB:4,Ba:2,Bc2:2,Bc3:2,aB:2,aa:6,ab:4,ac:2,ac-mirror:2,bB:2,ba:4,bb:4,undo:14))",
        "commutation-subsystem: PASS (terminating (each of 1 rules removes one "
        "inversion in every context), 0 critical pairs all cc-shaped and joinable)",
        "attractor-loops-are-commutations: PASS (2 interchanges keep the measure "
        "(length, count of each letter, largest first) and 6 other rules lower it, so "
        "every loop step is a commutation, for every word)",
        "coherence: PASS (25/25 diagram classes derivable from the base family)",
    ),
    4: (
        "natural-diagrams-decreasing: PASS (256 rule pairs decreasing for every "
        "separator and whisker (492 sides by the context margin, 20 by the head))",
        "critical-pairs-covered: PASS (146 ordered pairs covered by decreasing "
        "diagrams "
        "(BB:16,Ba:6,Bc1:2,Bc2:6,Bc3:6,Bc4:2,aB:6,aa:8,ab:6,ac:6,ac-mirror:6,bB:6,ba:6,bb:6,bc:2,undo:56))",
        "commutation-subsystem: PASS (terminating (each of 3 rules removes one "
        "inversion in every context), 0 critical pairs all cc-shaped and joinable)",
        "attractor-loops-are-commutations: PASS (6 interchanges keep the measure "
        "(length, count of each letter, largest first) and 10 other rules lower it, "
        "so every loop step is a commutation, for every word)",
        "coherence: PASS (73/73 diagram classes derivable from the base family)",
    ),
    5: (
        "natural-diagrams-decreasing: PASS (729 rule pairs decreasing for every "
        "separator and whisker (1408 sides by the context margin, 50 by the head))",
        "critical-pairs-covered: PASS (326 ordered pairs covered by decreasing "
        "diagrams "
        "(BB:40,Ba:12,Bc1:8,Bc2:12,Bc3:12,Bc4:8,aB:12,aa:10,ab:8,ac:12,ac-mirror:12,bB:12,ba:8,bb:8,bc:6,cB:2,cc:2,undo:142))",
        "commutation-subsystem: PASS (terminating (each of 6 rules removes one "
        "inversion in every context), 2 critical pairs all cc-shaped and joinable)",
        "attractor-loops-are-commutations: PASS (12 interchanges keep the measure "
        "(length, count of each letter, largest first) and 15 other rules lower it, "
        "so every loop step is a commutation, for every word)",
        "coherence: PASS (163/163 diagram classes derivable from the base family)",
    ),
    6: (
        "natural-diagrams-decreasing: PASS (1681 rule pairs decreasing for every "
        "separator and whisker (3262 sides by the context margin, 100 by the head))",
        "critical-pairs-covered: PASS (618 ordered pairs covered by decreasing "
        "diagrams "
        "(BB:80,Ba:20,Bc1:20,Bc2:20,Bc3:20,Bc4:20,aB:20,aa:12,ab:10,ac:20,ac-mirror:20,bB:20,ba:10,bb:10,bc:12,cB:8,cc:8,undo:288))",
        "commutation-subsystem: PASS (terminating (each of 10 rules removes one "
        "inversion in every context), 8 critical pairs all cc-shaped and joinable)",
        "attractor-loops-are-commutations: PASS (20 interchanges keep the measure "
        "(length, count of each letter, largest first) and 21 other rules lower it, "
        "so every loop step is a commutation, for every word)",
        "coherence: PASS (309/309 diagram classes derivable from the base family)",
    ),
    7: (
        "natural-diagrams-decreasing: PASS (3364 rule pairs decreasing for every "
        "separator and whisker (6553 sides by the context margin, 175 by the head))",
        "critical-pairs-covered: PASS (1050 ordered pairs covered by decreasing "
        "diagrams "
        "(BB:140,Ba:30,Bc1:40,Bc2:30,Bc3:30,Bc4:40,aB:30,aa:14,ab:12,ac:30,ac-mirror:30,"
        "bB:30,ba:12,bb:12,bc:20,cB:20,cc:20,undo:510))",
        "commutation-subsystem: PASS (terminating (each of 15 rules removes one "
        "inversion in every context), 20 critical pairs all cc-shaped and joinable)",
        "attractor-loops-are-commutations: PASS (30 interchanges keep the measure "
        "(length, count of each letter, largest first) and 28 other rules lower it, "
        "so every loop step is a commutation, for every word)",
        "coherence: PASS (525/525 diagram classes derivable from the base family)",
    ),
    8: (
        "natural-diagrams-decreasing: PASS (6084 rule pairs decreasing for every "
        "separator and whisker (11888 sides by the context margin, 280 by the head))",
        "critical-pairs-covered: PASS (1650 ordered pairs covered by decreasing "
        "diagrams "
        "(BB:224,Ba:42,Bc1:70,Bc2:42,Bc3:42,Bc4:70,aB:42,aa:16,ab:14,ac:42,ac-mirror:42,"
        "bB:42,ba:14,bb:14,bc:30,cB:40,cc:40,undo:824))",
        "commutation-subsystem: PASS (terminating (each of 21 rules removes one "
        "inversion in every context), 40 critical pairs all cc-shaped and joinable)",
        "attractor-loops-are-commutations: PASS (42 interchanges keep the measure "
        "(length, count of each letter, largest first) and 36 other rules lower it, "
        "so every loop step is a commutation, for every word)",
        "coherence: PASS (825/825 diagram classes derivable from the base family)",
    ),
}


def test_gen_validate_roundtrip(h3full, capsys):
    code, out, _ = run(capsys, ["validate", h3full])
    assert code == 0
    assert out == "valid: 8 rules over 3 generators\n"
    with open(h3full) as fh:
        doc = json.load(fh)
    sys = system_from_doc(doc)
    assert system_to_doc(sys) == doc
    assert doc["order"] == {"kind": "hecke"}


def test_gen_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run(capsys, ["hecke", "gen", "2", "-o", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": 2, "rules": []}')
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 2 and "rules" in err
    bad.write_text("not json")
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    code, _, err = run(capsys, ["validate", str(tmp_path / "missing.json")])
    assert code == 2
    bad.write_text(
        '{"generators": 2, "rules": [{"name": "r", "lhs": [1], "rhs": [3]}]}'
    )
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 2


def _rules_doc(*rules):
    return json.dumps({
        "generators": 2,
        "rules": [{"name": name, "lhs": lhs, "rhs": rhs} for name, lhs, rhs in rules],
    })


def test_loading_an_unchanged_file_gives_the_same_system(h3full):
    first = cli.load_system(h3full)
    assert cli.load_system(h3full) is first
    with open(h3full) as fh:
        assert first == system_from_doc(json.load(fh))


def test_a_rewritten_file_answers_from_its_new_rules(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(_rules_doc(("swp", [2, 1], [1, 2])))
    before = cli.load_system(str(path))
    assert run(capsys, ["equal", str(path), "12", "21"]) == (0, "equal\n", "")
    path.write_text(_rules_doc(("dbl", [1, 1], [1])))
    assert run(capsys, ["equal", str(path), "12", "21"]) == (1, "different\n", "")
    assert cli.load_system(str(path)) != before
    path.write_text(_rules_doc(("swp", [2, 1], [1, 2])))
    assert cli.load_system(str(path)) is before


@pytest.mark.parametrize(
    "text, want",
    [
        ('{"generators": 2, "rules": [}', "error: {path} is not valid JSON: "),
        ('{"generators": true, "rules": [{"name": "a", "lhs": [1], "rhs": []}]}',
         "error: field 'generators' must be a positive integer\n"),
    ],
    ids=["invalid-json", "boolean-generators"],
)
def test_a_bad_document_fails_on_every_load(text, want, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    first = run(capsys, ["equal", str(path), "1", "1"])
    assert first == run(capsys, ["equal", str(path), "1", "1"])
    code, out, err = first
    assert code == 2 and out == "" and err.startswith(want.format(path=path))


def test_redexes_output(h3full, capsys):
    code, out, _ = run(capsys, ["redexes", h3full, "3213"])
    assert code == 0
    assert out == "-:b31:-\n32:c13:-\n"
    code, out, _ = run(capsys, ["redexes", h3full, "3213", "--json"])
    doc = json.loads(out)
    assert doc == {"word": "3213", "redexes": ["-:b31:-", "32:c13:-"]}


def test_reach_output(h3full, capsys):
    code, out, _ = run(capsys, ["reach", h3full, "13"])
    assert code == 0 and out == "13\n31\n"


def test_normal_form_and_equal(h3full, capsys):
    code, out, _ = run(capsys, ["normal-form", h3full, "1131"])
    assert code == 0 and out == "13\n"
    code, out, _ = run(capsys, ["equal", h3full, "212", "121"])
    assert code == 0 and out == "equal\n"
    code, out, _ = run(capsys, ["equal", h3full, "13", "12"])
    assert code == 1 and out == "different\n"


def test_max_words_leaves_canonical_forms_undecided(h3full, capsys):
    word = "32132132"
    code, out, err = run(capsys, ["equal", h3full, word, "121", "--max-words", "1"])
    assert code == 1 and out == ""
    assert err == f"undecided: descendant graph of {word} truncated at 1 word\n"
    code, out, err = run(capsys, ["normal-form", h3full, word, "--max-words", "1"])
    assert code == 1 and out == ""
    assert err == f"no canonical form: descendant graph of {word} truncated at 1 word\n"
    # A bound the graph fits in changes no answer.
    for argv in (["normal-form", h3full, word], ["equal", h3full, word, "2321"]):
        assert run(capsys, argv + ["--max-words", "1000"]) == run(capsys, argv)


def test_undecided_answer_names_its_word(h3full, capsys):
    # The second word's graph outgrows the bound, not the first's.
    code, out, err = run(capsys, ["equal", h3full, "121", "32132132", "--max-words", "10"])
    assert code == 1 and out == ""
    assert err == "undecided: descendant graph of 32132132 truncated at 10 words\n"


def test_max_words_counts_commutation_classes(tmp_path, capsys):
    # On rfull the bound counts classes, not words, so the 16-letter word's
    # graph fits in 1000 nodes and is not cut short.
    h5 = str(tmp_path / "h5.json")
    assert main(["hecke", "gen", "5", "--variant", "rfull", "-o", h5]) == 0
    argv = ["equal", h5, "2554221122223325", "12145432", "--max-words", "1000"]
    assert run(capsys, argv) == (0, "equal\n", "")


def test_max_words_is_exact_on_the_class_graph(h3full, capsys):
    # A word whose descendants fall into k commutation classes has a class
    # graph of k nodes: bound k answers, bound k - 1 is undecided.
    sys = hecke_system(3, "rfull")
    for w in all_words(3, 6):
        k = len({frozenset(commutation_class(x, 3)) for x in fixpoint_reach(w, sys)})
        if k < 2:
            continue
        word = sys.fmt(w)
        argv = ["normal-form", h3full, word, "--max-words"]
        assert run(capsys, argv + [str(k)]) == run(capsys, argv[:3])
        nodes = f"{k - 1} word" if k == 2 else f"{k - 1} words"
        err = f"no canonical form: descendant graph of {word} truncated at {nodes}\n"
        assert run(capsys, argv + [str(k - 1)]) == (1, "", err)


def test_max_words_is_exact_on_the_word_graph(h3prime, capsys):
    # rprime has no quotient route: a word whose word graph has k nodes
    # answers at bound k as without one, and is undecided at k - 1.
    sys = hecke_system(3, "rprime")
    for w in all_words(3, 6):
        k = len(fixpoint_reach(w, sys))
        if k < 2:
            continue
        word = sys.fmt(w)
        argv = ["normal-form", h3prime, word, "--max-words"]
        assert run(capsys, argv + [str(k)]) == run(capsys, argv[:3])
        nodes = f"{k - 1} word" if k == 2 else f"{k - 1} words"
        err = f"no canonical form: descendant graph of {word} truncated at {nodes}\n"
        assert run(capsys, argv + [str(k - 1)]) == (1, "", err)


def test_lengthening_rules_without_a_bound_exit_two(tmp_path, capsys):
    # As for reach: a missing bound is unusable input, not an undecided answer.
    path = tmp_path / "grow.json"
    path.write_text(json.dumps({"generators": 1, "rules": [{"name": "g", "lhs": [1], "rhs": [1, 1]}]}))
    err = "error: system has lengthening rules: descendant graphs need a bound\n"
    assert run(capsys, ["reach", str(path), "1"])[0] == 2
    assert run(capsys, ["normal-form", str(path), "1"]) == (2, "", err)
    assert run(capsys, ["equal", str(path), "1", "11"]) == (2, "", err)
    want = (1, "", "undecided: descendant graph of 1 truncated at 5 words\n")
    assert run(capsys, ["equal", str(path), "1", "11", "--max-words", "5"]) == want


def test_parser_reuse_leaks_no_state(h3full, capsys):
    build_parser.cache_clear()
    code, out, _ = run(capsys, ["equal", h3full, "212", "121", "--json"])
    assert code == 0 and json.loads(out) == {"equal": True}
    code, out, _ = run(capsys, ["equal", h3full, "212", "121"])
    assert code == 0 and out == "equal\n"
    code, out, err = run(capsys, ["reach", h3full, "3213", "--max", "2"])
    assert code == 0 and len(out.splitlines()) == 2 and "truncated at 2 words" in err
    code, out, err = run(capsys, ["reach", h3full, "3213"])
    assert code == 0 and len(out.splitlines()) > 2 and err == ""
    for bad in (["redexes", h3full, "19"], ["unknown-command"], []):
        assert run(capsys, bad)[0] == 2
        assert run(capsys, ["normal-form", h3full, "1131"]) == (0, "13\n", "")
    assert build_parser.cache_info().misses == 1


def test_critical_pairs_listing(h3full, capsys):
    code, out, _ = run(capsys, ["critical-pairs", h3full])
    assert code == 0
    assert len(out.splitlines()) == 50
    code, out, _ = run(capsys, ["critical-pairs", h3full, "--json"])
    doc = json.loads(out)
    assert doc["count"] == 50


def test_confluence_exit_codes(h3full, h3prime, capsys):
    code, out, _ = run(capsys, ["confluence", h3full])
    assert code == 0 and out.endswith("PASS: 50 critical pairs join (bound 16)\n")
    code, out, _ = run(capsys, ["confluence", h3prime])
    assert code == 1
    assert "unjoinable: overlap 3231" in out
    assert "FAIL: 2 of 24" in out
    code, out, _ = run(capsys, ["confluence", h3prime, "--json"])
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "FAIL" and doc["cut"] == []


def test_confluence_cut_search_is_unknown(tmp_path, capsys):
    rdp = str(tmp_path / "rdp3.json")
    assert main(["hecke", "gen", "3", "--variant", "rdoubleprime", "-o", rdp]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["confluence", rdp, "--bound", "1"])
    assert code == 1
    assert "unjoinable" not in out and "undecided: overlap 311" in out
    assert out.endswith("UNKNOWN: 24 of 34 critical pairs did not join (bound 1)\n")
    code, out, _ = run(capsys, ["confluence", rdp, "--bound", "1", "--json"])
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "UNKNOWN"
    assert len(doc["failures"]) == len(doc["cut"]) == 24
    code, out, _ = run(capsys, ["confluence", rdp, "--json"])
    assert code == 0 and json.loads(out)["verdict"] == "PASS"


def test_check_decreasing(h3full, capsys):
    # 64 rule pairs, each deciding its natural squares for every separator,
    # and 50 critical diagrams.
    code, out, _ = run(capsys, ["check-decreasing", h3full])
    assert code == 0
    assert out.endswith("PASS: 114 diagrams checked, 0 not decreasing\n")
    code, out, _ = run(capsys, ["check-decreasing", h3full, "--json"])
    doc = json.loads(out)
    assert code == 0
    assert (doc["verdict"], doc["chooser"], doc["checked"]) == ("PASS", "curated", 114)


def test_check_decreasing_has_no_contexts_option(h3full, capsys):
    code, out, err = run(capsys, ["check-decreasing", h3full, "--contexts", "1"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --contexts 1" in err


def test_check_decreasing_names_tied_natural_sides(monkeypatch, tmp_path, capsys):
    """Under a Hecke key whose heads all tie, the w = () squares stay
    decreasing but 20 sides are undecided for longer separators: UNKNOWN,
    with one line per side."""
    def flat_heads(inst):
        head, stats = hecke._instance_key(inst)
        return (), head + stats

    monkeypatch.setattr(cli, "hecke_order", lambda: InstanceOrder("hecke", flat_heads))
    # A load cache of its own: the same text loaded before holds the real order.
    fresh = functools.lru_cache(maxsize=8)(cli._system_from_text.__wrapped__)
    monkeypatch.setattr(cli, "_system_from_text", fresh)
    path = tmp_path / "h4.json"
    assert main(["hecke", "gen", "4", "--variant", "rfull", "-o", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["check-decreasing", str(path)])
    *lines, last = out.splitlines()
    assert code == 1 and last == "UNKNOWN: 402 diagrams checked, 0 not decreasing"
    assert len(lines) == 20
    assert all(
        line.startswith("natural ") and line.endswith(" side undecided, the heads tie")
        for line in lines
    )


def _gen3(tmp_path, variant):
    path = tmp_path / f"h3{variant}.json"
    assert main(["hecke", "gen", "3", "--variant", variant, "-o", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("variant, checked", [("rprime", 60), ("rdoubleprime", 83)])
def test_check_decreasing_outside_curated_family(variant, checked, tmp_path, capsys):
    # The curated diagrams cover rfull only; the other variants are checked
    # with BFS joins, whose diagrams at the 3231 overlap are not decreasing.
    # Another join might be, so the verdict is UNKNOWN, not FAIL.
    path = _gen3(tmp_path, variant)
    code, out, _ = run(capsys, ["check-decreasing", path])
    assert code == 1
    assert out.count("critical overlap 3231: ") == 2
    assert out.count(" (bfs chooser)\n") == 2
    assert out.endswith(f"UNKNOWN: {checked} diagrams checked, 2 not decreasing\n")
    code, out, _ = run(capsys, ["check-decreasing", path, "--json"])
    doc = json.loads(out)
    assert code == 1
    assert (doc["verdict"], doc["chooser"], doc["ok"]) == ("UNKNOWN", "bfs", False)


def test_complete_peak_outside_curated_family(tmp_path, capsys):
    argv = ["--top=32:c31:-", "--left=-:b3:1"]
    code, out, _ = run(capsys, ["complete-peak", _gen3(tmp_path, "rdoubleprime"), *argv])
    assert code == 0
    assert out == "sink 2321\nright 32:c13:-,-:b3:1\nbottom -\ncells 1\n"
    # rprime lacks the inverse commutation c13, so the peak has no join.
    code, out, err = run(capsys, ["complete-peak", _gen3(tmp_path, "rprime"), *argv])
    assert code == 1 and out == ""
    assert err == "error: no cell for corner (32:c31:-, -:b3:1)\n"


def test_check_decreasing_needs_order(tmp_path, capsys):
    doc = system_to_doc(hecke_system(2, "rfull"))
    del doc["order"]
    path = tmp_path / "noorder.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["check-decreasing", str(path)])
    assert code == 2 and "order" in err


def test_complete_peak_output(h3full, capsys):
    code, out, _ = run(
        capsys,
        ["complete-peak", h3full, "--top=32:c13:-", "--left=-:b31:-"],
    )
    assert code == 0
    assert out == "sink 2321\nright 32:c31:-,-:b31:-\nbottom -\ncells 1\n"


def test_a_peak_past_the_step_code_stride_exits_two(monkeypatch, h3full, capsys):
    import weakref

    from srw import diagrams

    monkeypatch.setattr(diagrams, "_STRIDE", 1)
    monkeypatch.setattr(diagrams, "_CODER", diagrams._Coder())
    monkeypatch.setattr(diagrams, "_CHOSEN", weakref.WeakKeyDictionary())
    code, out, err = run(capsys, ["complete-peak", h3full, "--top=32:c13:-", "--left=-:b31:-"])
    assert (code, out) == (2, "")
    assert err == "error: more rules than the step code's stride 1 can number\n"


def test_complete_peak_dot(h3full, capsys):
    code, out, _ = run(
        capsys,
        ["complete-peak", h3full, "--top=32:c13:-", "--left=-:b31:-", "--dot"],
    )
    assert code == 0
    assert out.startswith("digraph tiling {") and "rank=same" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["complete-peak", "{sys}", "--top=32:c13:-", "--left=-:b31:-"],
        ["complete-zigzag", "{sys}", "--zigzag=>-:a1:13;>1:c13:-"],
    ],
    ids=["peak", "zigzag"],
)
def test_dot_and_json_exclude_each_other(argv, h3full, capsys):
    argv = [a.replace("{sys}", h3full) for a in argv]
    assert run(capsys, argv + ["--dot", "--json"]) == (
        2, "", "error: --dot and --json exclude each other\n"
    )


def test_complete_peak_bad_input(h3full, capsys):
    code, _, err = run(
        capsys, ["complete-peak", h3full, "--top=-:nope:-", "--left=-:b31:-"]
    )
    assert code == 2 and "unknown rule" in err
    code, _, err = run(capsys, ["complete-peak", h3full, "--top=-", "--left=-"])
    assert code == 2
    code, _, err = run(
        capsys, ["complete-peak", h3full, "--top=32:c13:-", "--left=-:a1:-"]
    )
    assert code == 2 and "same word" in err


def test_complete_zigzag_output(h3full, capsys):
    code, out, _ = run(
        capsys,
        ["complete-zigzag", h3full, "--zigzag=>-:a1:13;>1:c13:-"],
    )
    assert code == 0
    assert out == "common 131\nfrom-start -:a1:13,1:c13:-\nfrom-end -\ncells 0\n"
    code, _, err = run(capsys, ["complete-zigzag", h3full, "--zigzag=-:a1:13"])
    assert code == 2 and "'>' or '<'" in err


def test_hecke_enumerate_output(capsys):
    code, out, _ = run(capsys, ["hecke", "enumerate", "2"])
    assert code == 0
    assert out == "count 6\n-\n1\n2\n12\n21\n121\n"
    code, out, _ = run(capsys, ["hecke", "enumerate", "7"])
    assert code == 2
    # rank-3 rprime lacks c13: its irreducible words are not one per element
    code, out, err = run(capsys, ["hecke", "enumerate", "3", "--variant", "rprime"])
    assert code == 2 and out == "" and "paired with its inverse" in err
    code, out, _ = run(capsys, ["hecke", "enumerate", "2", "--json"])
    doc = json.loads(out)
    assert doc["count"] == 6 and doc["elements"][0] == "-"


@pytest.mark.parametrize(
    "argv",
    [
        ["reach", "{sys}", "1", "--max", "-1"],
        ["reach", "{sys}", "1", "--max", "0"],
        ["confluence", "{sys}", "--bound", "-1"],
        ["complete-peak", "{sys}", "--top=32:c13:-", "--left=-:b31:-", "--fuel", "-1"],
        ["complete-zigzag", "{sys}", "--zigzag=>-:a1:13", "--fuel", "-2"],
        ["hecke", "enumerate", "2", "--cap", "-1"],
        ["hecke", "verify", "2", "--coherence-bound", "-5"],
        ["reach", "{sys}", "1", "--max", "many"],
        ["normal-form", "{sys}", "1", "--max-words", "0"],
        ["equal", "{sys}", "1", "2", "--max-words", "0"],
    ],
)
def test_negative_budgets_exit_two(argv, h3full, capsys):
    code, out, err = run(capsys, [a.replace("{sys}", h3full) for a in argv])
    assert code == 2 and out == ""
    assert "must be at least" in err or "invalid budget value: 'many'" in err


def test_hecke_verify_output(capsys):
    code, out, _ = run(capsys, ["hecke", "verify", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "VERDICT: PASS"
    assert len(lines) == 6
    assert all(": PASS (" in line for line in lines[:-1])


def test_hecke_verify_json(capsys):
    code, out, _ = run(capsys, ["hecke", "verify", "1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS" and len(doc["items"]) == 5
    assert all(item["seconds"] >= 0.0 for item in doc["items"])


def test_hecke_verify_unknown_exits_one(capsys):
    # Every rank-3 class closes at its first generated neighbour, so only
    # bound 0 cuts rank 3: it leaves the 10 classes equal modulo commutations.
    code, out, _ = run(capsys, ["hecke", "verify", "3", "--coherence-bound", "0"])
    assert code == 1
    assert "coherence: UNKNOWN (10/25 " in out
    assert out.endswith("VERDICT: UNKNOWN\n")
    code, out, _ = run(
        capsys, ["hecke", "verify", "3", "--coherence-bound", "0", "--json"]
    )
    assert code == 1 and json.loads(out)["verdict"] == "UNKNOWN"


def test_hecke_verify_cut_coherence_is_unknown(capsys):
    # A path search cut by its budget disproves nothing: no FAIL.
    code, out, _ = run(capsys, ["hecke", "verify", "2", "--coherence-bound", "0"])
    assert code == 1
    assert out.endswith("VERDICT: UNKNOWN\n")
    line = next(x for x in out.splitlines() if x.startswith("coherence: "))
    assert line.startswith("coherence: UNKNOWN (0/5 ")
    assert "aa@111" in line.split("unknown: ")[1].rstrip(")").split(",")


def test_stdout_deterministic(h3full, capsys):
    argv = ["critical-pairs", h3full, "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    argv = ["hecke", "verify", "2"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_rule_rank_order_document(tmp_path, capsys):
    doc = {
        "generators": 2,
        "rules": [
            {"name": "dbl", "lhs": [1, 1], "rhs": [1]},
            {"name": "swp", "lhs": [2, 1], "rhs": [1, 2]},
        ],
        "order": {"kind": "rule-rank", "ranks": {"dbl": 0, "swp": 1}, "tie": "length"},
    }
    path = tmp_path / "ranked.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 0
    # Each BFS join of the 211 overlap has a swp step of the left swp step's
    # rank and source length, which neither the dbl step (rank 0) nor that
    # swp step dominates, under either tie policy.
    want = (
        "critical overlap 211: 2:dbl:- | -:swp:1: bottom path: "
        "step 1 not dominated by either side (bfs chooser)\n"
        "critical overlap 211: -:swp:1 | 2:dbl:-: right path: "
        "step 1 not dominated by either side (bfs chooser)\n"
        "UNKNOWN: 8 diagrams checked, 2 not decreasing\n"
    )
    for tie in ("length", "equivalent"):
        doc["order"]["tie"] = tie
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["check-decreasing", str(path)])
        assert (code, out) == (1, want)
    doc["order"] = {"kind": "mystery"}
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2 and "mystery" in err


_TWO_RULES = [
    {"name": "a1", "lhs": [1, 1], "rhs": [1]},
    {"name": "b", "lhs": [2, 1], "rhs": [1, 2]},
]


@pytest.mark.parametrize(
    "doc, why",
    [
        (
            {"generators": True, "rules": [{"name": "a1", "lhs": [True, True], "rhs": [1]}]},
            "field 'generators' must be a positive integer",
        ),
        (
            {"generators": 2, "rules": [{"name": "a1", "lhs": [1, True], "rhs": [1]}]},
            "rule a1: sides must be lists of integers",
        ),
        (
            {"generators": 2, "rules": _TWO_RULES,
             "order": {"kind": "rule-rank", "ranks": {"a1": "x", "b": 1}}},
            "rank of rule a1 must be an integer, got 'x'",
        ),
        (
            {"generators": 2, "rules": _TWO_RULES,
             "order": {"kind": "rule-rank", "ranks": {"a1": 0, "b": True}}},
            "rank of rule b must be an integer, got True",
        ),
    ],
    ids=["boolean-generators", "boolean-letter", "string-rank", "boolean-rank"],
)
@pytest.mark.parametrize("command", ["validate", "check-decreasing"])
def test_non_integer_document_fields_exit_two(doc, why, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, [command, str(path)])
    assert (code, out, err) == (2, "", f"error: {why}\n")


def test_usage_errors_exit_two(h3full, capsys):
    assert main(["redexes", h3full, "19"]) == 2  # letter out of range
    assert main(["redexes", h3full, "abc"]) == 2
    assert main([]) == 2
    assert main(["unknown-command"]) == 2


def test_a_rule_error_names_the_rule_once(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"generators": 2, "rules": [{"name": "a", "lhs": [], "rhs": [1]}]}))
    assert run(capsys, ["validate", str(path)]) == (2, "", "error: rule a: empty left-hand side\n")


_USAGE = {
    "srw": "[-h] {validate,redexes,reach,normal-form,equal,critical-pairs,confluence,"
    "check-decreasing,complete-peak,complete-zigzag,hecke} ...",
    "srw validate": "[-h] [--json] system",
    "srw redexes": "[-h] [--json] system word",
    "srw reach": "[-h] [--max MAX] [--json] system word",
    "srw normal-form": "[-h] [--max-words MAX_WORDS] [--json] system word",
    "srw equal": "[-h] [--max-words MAX_WORDS] [--json] system word1 word2",
    "srw critical-pairs": "[-h] [--json] system",
    "srw confluence": "[-h] [--bound BOUND] [--json] system",
    "srw check-decreasing": "[-h] [--json] system",
    "srw complete-peak": "[-h] --top TOP --left LEFT [--fuel FUEL] [--dot] [--json] system",
    "srw complete-zigzag": "[-h] --zigzag ZIGZAG [--fuel FUEL] [--dot] [--json] system",
    "srw hecke": "[-h] {gen,enumerate,verify} ...",
    "srw hecke gen": "[-h] [--variant {rprime,rdoubleprime,rfull}] [-o OUTPUT] rank",
    "srw hecke enumerate": "[-h] [--variant {rprime,rdoubleprime,rfull}] [--cap CAP] [--json] rank",
    "srw hecke verify": "[-h] [--coherence-bound COHERENCE_BOUND] [--json] rank",
}


def test_every_usage_line(monkeypatch):
    """The usage line of `srw` and of each sub-parser, on one line: the
    arguments each command takes, in order, with `--json` last."""
    import argparse

    monkeypatch.setenv("COLUMNS", "500")

    def parsers(p):
        yield p
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                for child in action.choices.values():
                    yield from parsers(child)

    got = {p.prog: p.format_usage() for p in parsers(build_parser())}
    assert got == {prog: f"usage: {prog} {args}\n" for prog, args in _USAGE.items()}


# One rank-3 run of each command that takes --json; "undecided" ones have
# no answer to print.
_JSON_RUNS = {
    "validate": ["validate", "{sys}"],
    "redexes": ["redexes", "{sys}", "3213"],
    "reach": ["reach", "{sys}", "13"],
    "reach-truncated": ["reach", "{sys}", "3213", "--max", "2"],
    "normal-form": ["normal-form", "{sys}", "1131"],
    "normal-form-undecided": ["normal-form", "{sys}", "32132132", "--max-words", "1"],
    "equal": ["equal", "{sys}", "212", "121"],
    "critical-pairs": ["critical-pairs", "{sys}"],
    "confluence": ["confluence", "{sys}"],
    "check-decreasing": ["check-decreasing", "{sys}"],
    "complete-peak": ["complete-peak", "{sys}", "--top=32:c13:-", "--left=-:b31:-"],
    "complete-zigzag": ["complete-zigzag", "{sys}", "--zigzag=>-:a1:13;>1:c13:-"],
    "hecke-enumerate": ["hecke", "enumerate", "3"],
    "hecke-verify": ["hecke", "verify", "3"],
}


def test_every_json_command_has_a_parity_run():
    have = {"srw " + " ".join(argv[: 2 if argv[0] == "hecke" else 1]) for argv in _JSON_RUNS.values()}
    assert have == {prog for prog, args in _USAGE.items() if "[--json]" in args}


@pytest.mark.parametrize("name", list(_JSON_RUNS))
def test_text_and_json_give_one_answer(name, h3full, capsys):
    """The same exit code and stderr either way; under --json, stdout is
    one indented JSON document, or nothing where the answer is undecided."""
    argv = [a.replace("{sys}", h3full) for a in _JSON_RUNS[name]]
    code, out, err = run(capsys, argv)
    jcode, jout, jerr = run(capsys, argv + ["--json"])
    assert (jcode, jerr) == (code, err)
    if name.endswith("-undecided"):
        assert (code, out, jout) == (1, "", "")
    else:
        assert out
        assert jout == json.dumps(json.loads(jout), sort_keys=True, indent=2) + "\n"


def test_completion_output_matches_the_golden_capture(tmp_path, capsys):
    """`complete-peak` and `complete-zigzag`, as text, `--json` and `--dot`,
    byte for byte as captured in `golden_completions.json`: seeded peaks
    and zigzags over rfull at ranks 3-5 (curated chooser) and over rank-3
    rdoubleprime (BFS chooser), each with one run out of fuel."""
    import pathlib

    golden = json.loads((pathlib.Path(__file__).parent / "golden_completions.json").read_text())
    systems = {}
    for case in golden["cases"]:
        key = (case["rank"], case["variant"])
        if key not in systems:
            systems[key] = str(tmp_path / f"{case['variant']}{case['rank']}.json")
            main(["hecke", "gen", str(case["rank"]), "--variant", case["variant"], "-o", systems[key]])
        argv = [a.replace("{system}", systems[key]) for a in case["argv"]]
        code, out, err = run(capsys, argv)
        assert (code, out, err.replace(systems[key], "{system}")) == (
            case["exit"], case["stdout"], case["stderr"]
        ), argv
    assert len(golden["cases"]) == 192


def test_rprime_different_needs_certified_rfull(h3prime, capsys):
    # 3213 and 2321 are one step from the peak 3231 each, yet their rprime
    # graphs end in distinct classes: no certificate backs "different".
    code, out, err = run(capsys, ["equal", h3prime, "3213", "2321"])
    assert (code, out) == (1, "")
    assert err.startswith("undecided: 3213 and 2321 settle into distinct classes, ")
    # 3231's rprime graph ends in two classes; certified rfull tells it from 1.
    assert run(capsys, ["equal", h3prime, "3231", "1"]) == (1, "different\n", "")
    code, out, err = run(capsys, ["equal", h3prime, "3231", "1", "--max-words", "1000"])
    assert (code, out) == (1, "") and err == "undecided: 3231 settles into 2 distinct classes\n"


def test_empty_words_on_rprime(h3prime, capsys):
    # No descent on rprime, so the empty words reach `_apart` with no letter.
    assert run(capsys, ["equal", h3prime, "-", "-"]) == (0, "equal\n", "")
    assert run(capsys, ["equal", h3prime, "-", "1"]) == (1, "different\n", "")


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_verify_item_lines_are_unchanged(n, capsys):
    code, out, err = run(capsys, ["hecke", "verify", str(n)])
    assert (code, err) == (0, "")
    assert tuple(out.splitlines()) == _VERIFY_ITEMS[n] + ("VERDICT: PASS",)


def test_bounded_rprime_different_needs_certified_rfull(h3prime, capsys):
    # The bounded graphs reach distinct classes, which certified rfull
    # joins: undecided, as without the bound.  It backs 13 against 12.
    code, out, err = run(capsys, ["equal", h3prime, "3213", "2321", "--max-words", "1000"])
    assert (code, out) == (1, "")
    assert err.startswith("undecided: 3213 and 2321 settle into distinct classes, ")
    assert run(capsys, ["equal", h3prime, "13", "12", "--max-words", "1000"]) == (1, "different\n", "")


def test_equal_with_one_descent_computes_no_certificate(h3full, capsys):
    hecke.certified.cache_clear()
    assert run(capsys, ["equal", h3full, "3213", "2321"]) == (0, "equal\n", "")
    info = hecke.certified.cache_info()
    assert (info.misses, info.hits) == (0, 0)
    assert run(capsys, ["equal", h3full, "13", "12"]) == (1, "different\n", "")
    assert run(capsys, ["equal", h3full, "31", "2"]) == (1, "different\n", "")
    info = hecke.certified.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_certified_route_matches_graph_route(tmp_path, capsys, monkeypatch):
    """A seeded sample of rank-4 rfull pairs, half of them a word and one of
    its descendants: each query answers alike by the certified descents
    and, under --max-words, by the graph route; the first never builds a
    graph."""
    h4 = str(tmp_path / "h4.json")
    assert main(["hecke", "gen", "4", "--variant", "rfull", "-o", h4]) == 0
    sys, rng = hecke_system(4, "rfull"), random.Random(31)
    pairs = []
    for k in range(120):
        u = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 9)))
        v = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 9)))
        if k % 2:
            v = u
            for _ in range(rng.randint(1, 6)):
                steps = find_redexes(v, sys)
                if steps:
                    v = rng.choice(steps).target
        pairs.append((sys.fmt(u), sys.fmt(v)))
    graph = [run(capsys, ["equal", h4, u, v, "--max-words", "100000"]) for u, v in pairs]
    with monkeypatch.context() as mp:
        mp.setattr(seminormal, "attractors", None)
        certified = [run(capsys, ["equal", h4, u, v]) for u, v in pairs]
    assert certified == graph
    assert {out for _, out, _ in graph} == {"equal\n", "different\n"}
