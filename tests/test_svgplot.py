"""SVG box plots of efficiency records."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from svdstop.harness import ReplicationRecord
from svdstop.svgplot import efficiency_plot

SVG = "{http://www.w3.org/2000/svg}"


def records(strong, weak=None, procedure="plain_stop"):
    weak = strong if weak is None else weak
    return [
        ReplicationRecord(
            rep=i,
            procedure=procedure,
            tau=5,
            rho=None,
            immediate=False,
            err_strong=0.5,
            err_weak=0.4,
            eff_strong=s,
            eff_weak=w,
        )
        for i, (s, w) in enumerate(zip(strong, weak))
    ]


def boxes(svg):
    return {g.get("data-label"): g for g in ET.fromstring(svg).iter(f"{SVG}g")}


def test_box_stats_five_numbers():
    values = [1.0, 2.0, 3.0, 4.0, 100.0]
    box = boxes(efficiency_plot(records(values)))["plain_stop strong"]
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    assert [float(box.get(f"data-{k}")) for k in ("q1", "median", "q3", "lo", "hi")] == [q1, med, q3, 1.0, 4.0]
    assert len(box.findall(f"{SVG}circle")) == 1  # the outlier 100
    assert (box.get("data-dropped"), box.get("data-norm"), box.get("data-procedure")) == ("0", "strong", "plain_stop")


def test_box_stats_drops_nonfinite():
    box = boxes(efficiency_plot(records([1.0, np.nan, 2.0, np.inf, 3.0])))["plain_stop weak"]
    assert (box.get("data-dropped"), box.get("data-median"), box.get("data-norm")) == ("2", "2", "weak")


def test_a_box_with_no_finite_value_is_its_label_alone():
    recs = records([np.inf, np.inf], [np.nan, np.inf], "fixed_oracle") + records([1.0, 3.0])
    svg = efficiency_plot(recs)
    empty = boxes(svg)["fixed_oracle strong"]
    assert dict(empty.attrib) == {
        "class": "box",
        "data-label": "fixed_oracle strong",
        "data-dropped": "2",
        "data-norm": "strong",
        "data-procedure": "fixed_oracle",
    }
    assert list(empty) == []
    assert boxes(svg)["plain_stop strong"].get("data-median") == "2"
    # the axis spans the finite boxes; with none, [0, 1]
    assert ">3<" not in efficiency_plot(records([np.inf]))
    assert ">0.5<" in efficiency_plot(records([np.inf]))


def test_render_is_deterministic_and_self_contained():
    recs = records([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) + records([0.5, 0.7, 0.9], procedure="two_step_strong")
    one = efficiency_plot(recs, config_mapping={"dim": 10}, title="t")
    assert one == efficiency_plot(recs, config_mapping={"dim": 10}, title="t")
    assert one.lstrip().startswith("<svg")
    # no external references beyond the xmlns declaration
    assert one.count("http") == one.count("http://www.w3.org/2000/svg")
    assert "href" not in one
    assert list(boxes(one)) == ["plain_stop strong", "plain_stop weak", "two_step_strong strong", "two_step_strong weak"]
    assert boxes(one)["plain_stop weak"].get("data-median") == "4"
    assert '<desc>{&quot;dim&quot;: 10}</desc>' in one


def test_render_escapes_markup():
    svg = efficiency_plot(records([1.0, 2.0], procedure="<x&y>"), title='a "quoted" <title>')
    assert "<x&y>" not in svg and "<title>" not in svg
    assert "&lt;x&amp;y&gt; strong" in svg
    assert "a &quot;quoted&quot; &lt;title&gt;" in svg


def test_render_requires_boxes():
    with pytest.raises(ValueError, match="no records"):
        efficiency_plot([])


def test_efficiency_plot_from_records():
    records = [
        ReplicationRecord(
            rep=i,
            procedure=proc,
            tau=5,
            rho=None,
            immediate=False,
            err_strong=0.5,
            err_weak=0.4,
            eff_strong=0.5 + 0.01 * i,
            eff_weak=0.9,
        )
        for proc in ("plain_stop", "two_step_strong")
        for i in range(6)
    ]
    svg = efficiency_plot(records, title="relative efficiency")
    assert svg.count("<g class=\"box\"") == 4  # strong and weak per procedure
    assert "plain_stop" in svg and "two_step_strong" in svg
    assert "relative efficiency" in svg
