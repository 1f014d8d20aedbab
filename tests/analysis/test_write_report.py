"""EXPERIMENTS.md rendering from a results JSON."""

import pathlib
import shutil

from repro.experiments.write_report import main, render

ROOT = pathlib.Path(__file__).resolve().parents[2]


def sample_data():
    def row(name, spd):
        return dict(
            name=name, spd=spd, pbc=25.0, pdih=8.0, alpbb=3.0,
            aspcb=40.0, phi=80.0, mppki=5.0, piscs=5.0,
            best=spd + 0.5, paper_spd=spd * 2,
        )

    suite = lambda names: dict(  # noqa: E731
        rows=[row(n, 5.0 + i) for i, n in enumerate(names)],
        geomean=6.0,
        paper_geomean=12.0,
    )
    return {
        "int2006": suite(["h264ref", "omnetpp"]),
        "fp2006": suite(["wrf"]),
        "int2000": suite(["vortex00"]),
        "fp2000": suite(["art00"]),
        "sensitivity": {
            "points": [],
            "slopes": {"astar": 0.28, "mcf": 0.33},
        },
        "issue_increase": [("h264ref", 1.2), ("wrf", 0.1)],
        "icache": {
            "slow": [], "piscs": [], "shadow": [],
            "geo_slow": 0.1, "mean_piscs": 4.0,
        },
        "motivation": [
            dict(b="gcc", inorder=6.7, ooo=-0.1, ooo_base=160.0)
        ],
        "quadrants": [
            dict(q="unbiased-predictable", pred=0.0, dec=9.7,
                 winner="decompose")
        ],
    }


def test_render_contains_all_sections():
    text = render(sample_data())
    for heading in (
        "Headline speedups",
        "Table 2 characterisation",
        "predictor sensitivity",
        "issued-instruction overhead",
        "code size and I-cache",
        "in-order vs out-of-order",
        "Figure 1 prescriptions",
        "Conceptual figures",
    ):
        assert heading in text, heading


def test_rows_sorted_by_speedup():
    text = render(sample_data())
    # omnetpp (6.0) should appear before h264ref (5.0) in the table.
    assert text.index("| omnetpp |") < text.index("| h264ref |")


def test_optional_sections_omitted_gracefully():
    data = sample_data()
    del data["motivation"]
    del data["quadrants"]
    text = render(data)
    assert "in-order vs out-of-order" not in text
    assert "Figure 1 prescriptions" not in text


def test_geomeans_reported():
    text = render(sample_data())
    assert "**6.0**" in text and "**12.0**" in text


def test_render_stops_before_the_hand_written_sections():
    text = render(sample_data())
    assert "## Runtime" not in text
    assert "Known deviations" not in text


def test_main_keeps_the_committed_report_byte_identical(
    tmp_path, monkeypatch
):
    """The committed JSON renders the committed measured sections, and
    every hand-written section after them survives the rewrite."""
    shutil.copy(ROOT / "EXPERIMENTS.md", tmp_path)
    (tmp_path / "results").mkdir()
    shutil.copy(ROOT / "results" / "experiments_full.json",
                tmp_path / "results")
    monkeypatch.chdir(tmp_path)
    assert main(["results/experiments_full.json"]) == 0
    assert (tmp_path / "EXPERIMENTS.md").read_bytes() \
        == (ROOT / "EXPERIMENTS.md").read_bytes()


def test_main_refuses_a_report_without_the_runtime_heading(
    tmp_path, monkeypatch, capsys
):
    (tmp_path / "EXPERIMENTS.md").write_text("# hand-written only\n")
    shutil.copy(ROOT / "results" / "experiments_full.json", tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["experiments_full.json"]) == 1
    assert (tmp_path / "EXPERIMENTS.md").read_text() \
        == "# hand-written only\n"
    assert "## Runtime" in capsys.readouterr().err
