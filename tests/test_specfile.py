"""Parsing and printing of .sub documents."""

from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesub.errors import ParseError, UnresolvedReference
from tilesub.grids import make_square_grid_document
from tilesub.specfile import parse_spec, print_spec


def test_bundled_document_structure(doc3):
    assert doc3.name == "square3x3"
    system = doc3.system
    assert len(system.rules) == 1
    rule = system.rules[0]
    assert len(rule.template.cells) == 9
    assert len(rule.template.internal_pairings) == 12
    assert [len(members) for _, members in rule.gamma] == [3, 3, 3, 3]
    net = doc3.networks["r1"]
    assert net.center == "c5"
    assert {b.path for b in net.branches} == {("c2",), ("c4",), ("c6",), ("c8",)}
    assert doc3.system.consistent is True
    second = doc3.second_networks["r1"]
    assert len(second.cells) == 5 and len(second.crossings) == 4


def test_missing_gamma_is_parse_error():
    text = """
substitution t
prototype sq facets 4 orient - + - +
rule r1 parent sq
  cell a sq
  gamma S : a.S
  gamma N : a.N
  gamma W : a.W
"""
    with pytest.raises(ParseError, match="gamma"):
        parse_spec(text)


def test_unresolved_cell_reference():
    text = """
substitution t
prototype sq facets 4 orient - + - +
rule r1 parent sq
  cell a sq
  adj a.E -- c10.W
"""
    with pytest.raises(UnresolvedReference, match="c10"):
        parse_spec(text)


def test_unknown_directive_is_parse_error():
    with pytest.raises(ParseError, match="unknown directive"):
        parse_spec("substitution t\nfrobnicate\n")


def test_facet_alias_requires_four_facets():
    text = """
substitution t
prototype tri facets 3 orient - + -
rule r1 parent tri
  cell a tri
  gamma S : a.1
"""
    with pytest.raises(ParseError, match="4-facet"):
        parse_spec(text)


def test_parse_error_carries_line_number():
    text = "substitution t\nprototype sq facets 4 orient - + - +\nbogus line\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_spec(text)


BUNDLED_TEXT = resources.files("tilesub.data").joinpath("square3x3.sub").read_text()
BUNDLED_LINES = [line.split() for line in BUNDLED_TEXT.splitlines()]


def _bundled_with(old, new):
    assert old in BUNDLED_TEXT
    return BUNDLED_TEXT.replace(old, new)


# A token of the bundled spec, a short string over its punctuation, digits
# and facet names, or any short string.
SPEC_CHARS = "rc0123456789-+SNWE.,:()~#"
TOKENS = (
    st.sampled_from(sorted({t for line in BUNDLED_LINES for t in line}))
    | st.text(alphabet=SPEC_CHARS, max_size=6)
    | st.text(max_size=4)
)
# Lines grouped by their first token, so every directive is edited as often
# as any other however many lines it has.
LINES_BY_HEAD: dict[str, list[int]] = {}
for _i, _line in enumerate(BUNDLED_LINES):
    LINES_BY_HEAD.setdefault(_line[0] if _line else "", []).append(_i)


@st.composite
def mutated_bundled(draw):
    """The bundled spec after one to four token edits: delete, insert or
    replace a token, swap two tokens of a line, move a token to another line,
    cut a line short, or delete or insert one character of a token."""
    lines = [list(line) for line in BUNDLED_LINES]
    rows = st.sampled_from(sorted(LINES_BY_HEAD)).flatmap(
        lambda head: st.sampled_from(LINES_BY_HEAD[head]))
    for _ in range(draw(st.integers(1, 4))):
        row = lines[draw(rows)]
        op = draw(st.sampled_from(["delete", "insert", "replace", "swap", "move", "cut",
                                   "char"]))
        if op == "insert" or not row:
            row.insert(draw(st.integers(0, len(row))), draw(TOKENS))
            continue
        i = draw(st.integers(0, len(row) - 1))
        if op == "delete":
            del row[i]
        elif op == "replace":
            row[i] = draw(TOKENS)
        elif op == "swap":
            j = draw(st.integers(0, len(row) - 1))
            row[i], row[j] = row[j], row[i]
        elif op == "move":
            target = lines[draw(rows)]
            target.insert(draw(st.integers(0, len(target))), row.pop(i))
        elif op == "cut":
            del row[i:]
        else:
            token = row[i]
            c = draw(st.integers(0, len(token)))
            if c < len(token) and draw(st.booleans()):
                row[i] = token[:c] + token[c + 1:]
            else:
                row[i] = token[:c] + draw(st.sampled_from(SPEC_CHARS)) + token[c:]
    return "\n".join(" ".join(line) for line in lines)


@settings(max_examples=500, deadline=None)
@given(mutated_bundled())
def test_mutated_bundled_spec_parses_or_raises_parse_error(text):
    """Malformed input never escapes as another exception, and whatever
    parses round-trips through the canonical printer."""
    try:
        doc = parse_spec(text)
    except ParseError:
        return
    assert parse_spec(print_spec(doc)) == doc


def test_macroadj_side_without_facet_is_parse_error():
    text = _bundled_with("macroadj (r1,S) ~ (r1,N)", "macroadj (r1) ~ (r1,N)")
    with pytest.raises(ParseError, match=r"line \d+: expected \(<rid>,<k>\)"):
        parse_spec(text)


def test_bare_network2_is_parse_error():
    text = _bundled_with("  network2 cells c2 c4 c5 c6 c8 crossings c2 c4 c6 c8", "  network2")
    with pytest.raises(ParseError, match="usage: network2"):
        parse_spec(text)


def test_roundtrip_bundled(doc3):
    assert parse_spec(print_spec(doc3)) == doc3


def test_roundtrip_generated_grid():
    doc = make_square_grid_document(4, 3)
    assert parse_spec(print_spec(doc)) == doc


def test_roundtrip_is_stable(doc3):
    once = print_spec(doc3)
    assert print_spec(parse_spec(once)) == once


def test_grid_3x3_matches_bundled(doc3):
    generated = make_square_grid_document(3, 3)
    assert generated.system == doc3.system
    assert generated.networks == doc3.networks
    assert set(generated.second_networks["r1"].cells) == set(
        doc3.second_networks["r1"].cells
    )
    assert set(generated.second_networks["r1"].crossings) == set(
        doc3.second_networks["r1"].crossings
    )
