"""``tools/report_diff.py`` lists every output file that differs in bytes or
exists under one output root only, and says how a differing text file moved."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_differing_files(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # report_diff.py imports its sibling bench_pairs.py
    spec = importlib.util.spec_from_file_location("report_diff", TOOLS / "report_diff.py")
    report_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_diff)

    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, last_digit in ((parent, "0"), (change, "1")):
        (root / "a_x1").mkdir(parents=True)
        (root / "a_x1" / "report.json").write_text('{"x": 1.0}\n')
        (root / "a_x1" / "rates.csv").write_text("n\n1.00000000000" + last_digit + "\n")
    (change / "a_x1" / "extra.csv").write_text("n\n")
    assert report_diff.differing_files(parent, change) == ["a_x1/extra.csv", "a_x1/rates.csv"]
    assert report_diff.differing_files(parent, parent) == []

    moved = report_diff.describe_move(*((root / "a_x1" / "rates.csv").read_text()
                                        for root in (parent, change)))
    assert moved == [
        "  line 2: parent '1.000000000000', change '1.000000000001'",
        "  largest relative difference 1.000e-12 at line 2 (1.000000000000 -> 1.000000000001)",
    ]
    assert report_diff.describe_move("x\n", "y\n")[1] == "  no numeric cell differs"
    assert (report_diff.describe_move('{\n  "b": 2.0,\n}\n', '{\n  "b": nan,\n}\n')[1]
            == "  largest relative difference inf at line 2 (2.0 -> nan)")
