"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import os
import tracemalloc
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from tilesub import cli, tileset
from tilesub.cli import main
from tilesub.grids import make_square_grid_document
from tilesub.specfile import print_spec
from tilesub.stages import stage_views
from tilesub.tileset import Tileset

SPEC = str(resources.files("tilesub.data") / "square3x3.sub")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_passes(capsys):
    code, out, _ = run(capsys, "validate", SPEC)
    assert code == 0
    assert "result=PASS" in out


def test_count_exact_output(capsys):
    code, out, _ = run(capsys, "count", SPEC)
    assert code == 0
    assert out.splitlines()[0] == "N0=36 Np=2304 bound=4680 coarse=8100"


def test_count_second_output(capsys):
    code, out, _ = run(capsys, "count", SPEC, "--second")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N0=36 Np=2304 bound=4680 coarse=8100"
    assert lines[1] == "N'0=3 N'q=9 N'p=57 N'c=276 bound=690 coarse=3420"


def test_count_exact_flag(capsys):
    code, out, _ = run(capsys, "count", SPEC, "--exact")
    assert code == 0
    assert "tiles=1544 bound=4680 holds=yes" in out


def test_generate_deterministic(capsys):
    code1, out1, _ = run(capsys, "generate", SPEC)
    code2, out2, _ = run(capsys, "generate", SPEC)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 1544


@pytest.mark.parametrize("batch", [1, 7, 1544, 5000])
def test_generate_writes_the_dump_in_batches(capsys, monkeypatch, batch):
    """Whatever the batch size, including one that does not divide the 1544
    lines and one larger than the dump, stdout is the golden dump."""
    monkeypatch.setattr(tileset, "_LINE_BATCH", batch)
    code, out, err = run(capsys, "generate", SPEC)
    golden = Path(__file__).parent / "golden" / "square3x3" / "tileset_dump.txt"
    assert (code, err) == (0, "")
    assert out == golden.read_text()


def test_generate_prints_one_empty_line_for_no_tiles(capsys, monkeypatch):
    """A tileset without tiles prints one empty line, as `print("")` does."""
    generated = cli._generated
    monkeypatch.setattr(cli, "_generated", lambda doc: (generated(doc)[0], Tileset((), ())))
    assert run(capsys, "generate", SPEC) == (0, "\n", "")


def test_generate_stage_files(capsys, tmp_path):
    stage_dir = tmp_path / "stages"
    code, _, _ = run(capsys, "generate", SPEC, "--stages", str(stage_dir))
    assert code == 0
    names = sorted(p.name for p in stage_dir.iterdir())
    assert names == [f"after_step{i}.txt" for i in range(1, 6)]
    step1 = (stage_dir / "after_step1.txt").read_text().splitlines()
    assert step1[0] == "T1 | k=1:m k=2:f3 k=3:m k=4:f1"
    assert len(step1) == 9


def test_generate_writes_each_stage_before_making_the_next(monkeypatch, tmp_path, grid4x4):
    """`generate --stages` writes each stage file as its lines are made. On
    the 4x4 grid, with the closure made beforehand and the dump printed to
    nothing, the command traces about 1.0 MB at its peak, where making all
    five stage texts (0.8 MB) before writing the first took 1.7 MB. The
    files are the stage views, byte for byte."""
    doc, numbering, tau, _ = grid4x4
    monkeypatch.setattr(cli, "_generated", lambda _: (numbering, tau))
    spec = tmp_path / "grid4x4.sub"
    spec.write_text(print_spec(doc))
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["generate", str(spec), "--stages", str(tmp_path / "stages")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0 and peak <= 1_300_000
    for name, text in stage_views(tau, numbering, doc.networks).items():
        assert (tmp_path / "stages" / f"after_{name}.txt").read_text() == text


def test_verify_output(capsys):
    code, out, _ = run(capsys, "verify", SPEC)
    assert code == 0
    assert "condition1 PASS instances=1544" in out
    assert "phi_membership PASS" in out
    assert "condition3 PASS" in out
    assert "condition2 patch-scale evidence: PASS" in out
    assert out.rstrip().endswith("result=PASS")


def test_networks_output(capsys):
    code, out, _ = run(capsys, "networks", SPEC)
    assert code == 0
    assert "rule r1 networks=9" in out
    assert "center=c5" in out


def test_networks_refuses_an_invalid_system(capsys, tmp_path):
    """A slot in two macro-facets breaks `validate_system`; the search would
    still find networks, so `networks` refuses the spec with one error line."""
    bad = tmp_path / "overlap.sub"
    bad.write_text(Path(SPEC).read_text().replace(
        "gamma W : c1.W c4.W c7.W\n", "gamma W : c1.W c4.W c7.W c2.S\n"))
    code, out, err = run(capsys, "networks", str(bad))
    assert (code, out, err) == (
        1, "", "error: system invalid: ['AdjacencyRange', 'GammaOverlap']\n")


# The count line and the SHA-256 of the whole `networks` stdout on the
# square grid specs, taken while the search still sorted its results.
NETWORKS_STDOUT_PINS = {
    (4, 4): (660, "98e3ff92facec2124e6a734cc9c0cd296f4b0a1ae04071f05d3815e2eb0e81a9"),
    (5, 5): (70363, "c425992e0813ab9d247c561b7a4d31129aea03fb32f972fcbaed8c1b249f06bc"),
}


@pytest.mark.parametrize("size", list(NETWORKS_STDOUT_PINS), ids=str)
def test_networks_stdout_on_grids_is_pinned(capsys, tmp_path, size):
    spec = tmp_path / "grid.sub"
    spec.write_text(print_spec(make_square_grid_document(*size)))
    code, out, err = run(capsys, "networks", str(spec))
    count, digest = NETWORKS_STDOUT_PINS[size]
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"rule r1 networks={count}"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The SHA-256 of the whole `generate` stdout (the closure's dump) on the
# square grid specs, taken while the closure still sorted by decoration rank.
GENERATE_STDOUT_PINS = {
    (4, 4): (10104, "eed2bcb044449ea77c056050fd2ad46fa2fcbd6ec6df5e578b4b3854b634dd06"),
    (5, 5): (42368, "01eaa216b26ecafc4b16fc403ce1dc4d3c803ca9fa5e3c25fb1f686c83ca13c6"),
}


@pytest.mark.parametrize("size", list(GENERATE_STDOUT_PINS), ids=str)
def test_generate_stdout_on_grids_is_pinned(capsys, tmp_path, size):
    spec = tmp_path / "grid.sub"
    spec.write_text(print_spec(make_square_grid_document(*size)))
    code, out, err = run(capsys, "generate", str(spec))
    count, digest = GENERATE_STDOUT_PINS[size]
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_assemble_output(capsys):
    code, out, _ = run(capsys, "assemble", SPEC, "--width", "1", "--height", "1")
    assert code == 0
    assert out.splitlines()[0] == "patches=1544"


# The SHA-256 of the whole `assemble --print-patches` stdout on the bundled
# 3x3, taken while the command still looked each tile's index up in the
# tileset.
ASSEMBLE_2X2_STDOUT_SHA256 = "5422bb583dbf85e804a9dc1ea41bdd8fd76d288d0e647c1ebdedede75a10b4a2"


def test_assemble_print_patches_stdout_is_pinned(capsys):
    code, out, err = run(capsys, "assemble", SPEC, "--width", "2", "--height", "2",
                         "--print-patches")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:3] == ["patches=8137", "0 50 228 492", "0 50 229 493"]
    assert len(lines) == 8138
    assert hashlib.sha256(out.encode()).hexdigest() == ASSEMBLE_2X2_STDOUT_SHA256


def test_assemble_seeded(capsys, tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("# seed the bottom-left corner\n0 0 7\n")
    code, out, _ = run(
        capsys, "assemble", SPEC, "--width", "2", "--height", "1",
        "--seed", str(seed), "--print-patches",
    )
    assert code == 0
    lines = out.splitlines()
    count = int(lines[0].split("=")[1])
    assert count >= 1
    assert all(line.startswith("7 ") for line in lines[1:])


def test_hierarchy_output(capsys):
    code, out, _ = run(capsys, "hierarchy", SPEC, "--depth", "2")
    assert code == 0
    assert "tiles=81" in out
    assert "undefined_slots=132" in out
    assert "matching=PASS" in out


HIERARCHY_STDOUT = {
    ("square3x3.sub", "--depth", "4"): [
        "tiles=6561",
        "undefined_slots=11220",
        "level=3 cells=9 undefined=12",
        "level=2 cells=81 undefined=132",
        "level=1 cells=729 undefined=1236",
        "level=0 cells=6561 undefined=11220",
        "matching=PASS",
    ],
    ("tworule3x3.sub", "--depth", "3", "--rule", "rb"): [
        "tiles=729",
        "undefined_slots=1236",
        "level=2 cells=9 undefined=12",
        "level=1 cells=81 undefined=132",
        "level=0 cells=729 undefined=1236",
        "matching=PASS",
    ],
}


@pytest.mark.parametrize("argv", sorted(HIERARCHY_STDOUT), ids=" ".join)
def test_hierarchy_stdout_is_pinned(capsys, argv):
    """The whole stdout, level lines top first, as measured before the
    levels were stored in C buffers."""
    spec, *args = argv
    code, out, err = run(capsys, "hierarchy", str(resources.files("tilesub.data") / spec), *args)
    assert (code, err) == (0, "")
    assert out.splitlines() == HIERARCHY_STDOUT[argv]


def test_hierarchy_and_render_build_no_tileset(capsys, monkeypatch, tmp_path):
    def no_closure(*args, **kwargs):
        raise AssertionError("the closure was built")

    monkeypatch.setattr(cli, "generate_tileset", no_closure)
    code, out, _ = run(capsys, "hierarchy", SPEC, "--depth", "2")
    assert code == 0
    assert "tiles=81" in out
    for subject in (["--hierarchy-depth", "2"], ["--empty", "2x2"]):
        code, _, _ = run(capsys, "render", SPEC, "--svg", str(tmp_path / "x.svg"), *subject)
        assert code == 0


def test_hierarchy_broken_network_exit_code(capsys, tmp_path):
    bad = tmp_path / "broken.sub"
    bad.write_text(Path(SPEC).read_text().replace("port c2.S", "port c2.W"))
    code, out, err = run(capsys, "hierarchy", str(bad), "--depth", "2")
    assert code == 1
    assert "error: rule r1 network invalid: ['PortMembership']" in err
    assert out == ""


def test_hierarchy_refuses_a_spec_without_rules_like_verify(capsys, tmp_path):
    """A spec that names only its substitution has no rule to seed the
    hierarchy from; `hierarchy` refuses it with the one error line that
    `verify` and `count` print."""
    empty = tmp_path / "empty.sub"
    empty.write_text("substitution x\n")
    for command in (["verify"], ["count"], ["hierarchy", "--depth", "1"]):
        code, out, err = run(capsys, command[0], str(empty), *command[1:])
        assert (code, out, err) == (1, "", "error: port condition fails: ['NoAdjacency']\n")


def test_render_tile_labels(capsys, tmp_path):
    out_path = tmp_path / "tile.svg"
    # T1 with parent 1 sits at index 7 of the canonical dump.
    code, out, _ = run(capsys, "render", SPEC, "--svg", str(out_path), "--tile", "7")
    assert code == 0
    svg = out_path.read_text()
    assert ">m 0 m<" in svg
    assert ">3 1 3<" in svg
    assert svg.count(">1<") >= 3  # the east side letters 1 1 1
    # Deterministic output.
    run(capsys, "render", SPEC, "--svg", str(tmp_path / "again.svg"), "--tile", "7")
    assert (tmp_path / "again.svg").read_text() == svg


def test_render_empty_patch(capsys, tmp_path):
    out_path = tmp_path / "empty.svg"
    code, _, _ = run(capsys, "render", SPEC, "--svg", str(out_path), "--empty", "2x2")
    assert code == 0
    svg = out_path.read_text()
    assert "<line" in svg and "<rect" not in svg


def test_render_empty_nonpositive_size_is_usage_error(capsys, tmp_path):
    out_path = tmp_path / "empty.svg"
    for size in ("0x0", "2x0", "-1x2"):
        code, out, err = run(capsys, "render", SPEC, "--svg", str(out_path), f"--empty={size}")
        assert code == 2
        assert f"--empty: {size} has a side below 1" in err
        assert out == ""
        assert not out_path.exists()


def test_render_instance_is_nine_cells(capsys, tmp_path):
    out_path = tmp_path / "instance.svg"
    code, _, _ = run(capsys, "render", SPEC, "--svg", str(out_path), "--instance", "0")
    assert code == 0
    assert out_path.read_text().count("<rect") == 9


def test_render_without_subject_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "render", SPEC, "--svg", str(tmp_path / "x.svg"))
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate", SPEC)[0] == 2


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.sub"
    bad.write_text("substitution t\nwat\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_code(capsys):
    assert run(capsys, "validate", "/nonexistent.sub")[0] == 2


def test_validate_failure_exit_code(capsys, tmp_path):
    text = """
substitution broken
prototype sq facets 4 orient - + - +
rule r1 parent sq
  cell a sq
  cell b sq
  gamma S : a.S b.S
  gamma N : a.N b.N
  gamma W : a.W
  gamma E : b.E
"""
    bad = tmp_path / "broken.sub"
    bad.write_text(text)
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "DisconnectedTemplate" in out


def test_hierarchy_depth_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "hierarchy", SPEC, "--depth", "0")
    assert code == 2
    assert "--depth: 0 is below the minimum 1" in err
    assert "Traceback" not in err and out == ""


def test_assemble_empty_grid_is_usage_error(capsys):
    code, out, err = run(capsys, "assemble", SPEC, "--width", "0", "--height", "2")
    assert code == 2
    assert "--width: 0 is below the minimum 1" in err
    assert "patches=" not in out


def test_assemble_negative_seed_index_is_parse_error(capsys, tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("0 0 -1\n")
    code, out, err = run(
        capsys, "assemble", SPEC, "--width", "1", "--height", "1", "--seed", str(seed),
    )
    assert code == 2
    assert "line 1: seed tile index -1 outside 0..1543" in err
    assert "patches=" not in out


def test_assemble_seed_outside_the_patch_is_parse_error(capsys, tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("0 0 7\n9 9 0\n")
    code, out, err = run(
        capsys, "assemble", SPEC, "--width", "2", "--height", "2", "--seed", str(seed),
    )
    assert code == 2
    assert "line 2: seed cell (9,9) outside the 2x2 patch" in err
    assert "patches=" not in out


def test_assemble_duplicate_seed_cell_is_parse_error(capsys, tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("0 0 5\n0 0 7\n")
    assert run(
        capsys, "assemble", SPEC, "--width", "2", "--height", "2", "--seed", str(seed),
    ) == (2, "", "error: line 2: seed cell (0,0) given twice\n")


@pytest.mark.parametrize("case", ["spec directory", "seed directory", "spec not UTF-8"])
def test_unreadable_input_is_one_error_line(capsys, tmp_path, case):
    """An input that cannot be read or decoded exits 2 with one error line
    naming it, and no traceback."""
    not_utf8 = tmp_path / "bad.sub"
    not_utf8.write_bytes(b"\xff\xfe")
    seeded = ("assemble", SPEC, "--width", "1", "--height", "1", "--seed")
    argv, path = {
        "spec directory": (("verify", str(tmp_path)), tmp_path),
        "seed directory": ((*seeded, str(tmp_path)), tmp_path),
        "spec not UTF-8": (("verify", str(not_utf8)), not_utf8),
    }[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1
    if case == "spec not UTF-8":
        assert err.endswith(": not UTF-8 (invalid start byte at byte 0)\n")


def test_render_negative_tile_is_usage_error(capsys, tmp_path):
    out_path = tmp_path / "tile.svg"
    code, _, err = run(capsys, "render", SPEC, "--svg", str(out_path), "--tile", "-1")
    assert code == 2
    assert "--tile: -1 is below the minimum 0" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag, index, message", [
    ("--tile", "1544", "error: tile index 1544 outside 0..1543"),
    ("--instance", "99999", "error: instance index 99999 outside 0..1543"),
])
def test_render_subject_past_the_end_is_usage_error(capsys, tmp_path, flag, index, message):
    out_path = tmp_path / "x.svg"
    code, out, err = run(capsys, "render", SPEC, "--svg", str(out_path), flag, index)
    assert code == 2
    assert err == message + "\n"
    assert out == "" and not out_path.exists()


def _edited_spec(tmp_path, edit):
    spec = tmp_path / "edited.sub"
    spec.write_text(edit(Path(SPEC).read_text()))
    return str(spec)


def _without_lines(marker):
    return lambda text: "".join(
        line for line in text.splitlines(keepends=True) if marker not in line
    )


def test_validate_reports_a_missing_branch_without_the_port_condition(capsys, tmp_path):
    """The port condition reads every branch, so a network that fails its
    own checks is reported and the port condition is not run on it."""
    spec = _edited_spec(tmp_path, _without_lines("branch S :"))
    code, out, _ = run(capsys, "validate", spec)
    assert code == 1
    assert out.startswith("VIOLATION BranchCount: r1: ")
    assert out.splitlines()[-1] == "result=FAIL"


def test_validate_reports_a_rule_without_a_network(capsys, tmp_path):
    spec = _edited_spec(tmp_path, _without_lines("  network "))
    code, out, _ = run(capsys, "validate", spec)
    assert code == 1
    assert out.splitlines() == ["VIOLATION MissingNetwork: rule r1 has no network", "result=FAIL"]


def test_count_refuses_unchecked_networks(capsys, tmp_path):
    moved = _edited_spec(tmp_path, lambda text: text.replace("port c2.S", "port c2.W"))
    assert run(capsys, "count", moved) == (
        1, "", "error: rule r1 network invalid: ['PortMembership']\n"
    )
    missing = _edited_spec(tmp_path, _without_lines("  network "))
    assert run(capsys, "count", missing) == (1, "", "error: rule r1 has no network\n")


@pytest.mark.parametrize("case", ["svg directory", "stages file"])
def test_unwritable_output_is_one_error_line(capsys, tmp_path, case):
    """An output that cannot be written exits 2 with one error line naming
    it, and no traceback: an SVG path that is a directory, and a stage
    directory that is an existing file."""
    stage_file = tmp_path / "stages"
    stage_file.write_text("kept\n")
    argv, path = {
        "svg directory": (("render", SPEC, "--svg", str(tmp_path), "--empty", "2x2"), tmp_path),
        "stages file": (("generate", SPEC, "--stages", str(stage_file)), stage_file),
    }[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert stage_file.read_text() == "kept\n"


def _repeated_rule(text):
    """The bundled 3x3 with its `rule r1` block declared twice."""
    start, end = text.index("rule r1 "), text.index("macroadj ")
    return text[:end] + text[start:end] + text[end:]


def test_a_repeated_rule_id_is_refused_by_every_command(capsys, tmp_path):
    """`validate` reports the repeated rule; every other command exits 1
    with one error line and no traceback."""
    spec = _edited_spec(tmp_path, _repeated_rule)
    code, out, _ = run(capsys, "validate", spec)
    assert (code, out) == (1, "VIOLATION DuplicateRule: r1: declared 2 times\nresult=FAIL\n")
    svg = str(tmp_path / "x.svg")
    for argv in (["verify"], ["count", "--exact"], ["hierarchy", "--depth", "2"],
                 ["networks"], ["generate"], ["assemble", "--width", "2", "--height", "1"],
                 ["render", "--svg", svg, "--hierarchy-depth", "1"],
                 ["render", "--svg", svg, "--empty", "2x2"]):
        code, out, err = run(capsys, argv[0], spec, *argv[1:])
        assert (code, out, err) == (1, "", "error: system invalid: ['DuplicateRule']\n"), argv
