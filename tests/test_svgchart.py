"""``svgchart.line_chart`` called directly: series grouping, axis bounds and one pinned chart."""

import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossmesh import DomainError
from crossmesh.cli import _EXPERIMENTS
from crossmesh.svgchart import _axis, _nice_step, _ticks, line_chart

ROOT = Path(__file__).resolve().parent.parent
CHART = dict(title="t", xlabel="x", ylabel="y")
# Tick marks: x ticks hang below the plot (y1 = 40 + 392), y ticks stick out left of it (x1 = 64 - 5).
X_TICK = re.compile(r'<line x1="[^"]*" y1="432" ')
Y_TICK = re.compile(r'<line x1="59" ')
# An x tick's mark and label: (position, label).
X_TICK_LABEL = re.compile(r'<line x1="([^"]*)" y1="432" [^\n]*\n<text [^>]*>([^<]*)</text>')


def legend(svg: str) -> list[str]:
    return re.findall(r'<text x="[\d.]+" y="[\d.]+">([^<]*)</text>', svg)


def coordinates(svg: str) -> list[float]:
    attrs = re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', svg)
    points = [v for p in re.findall(r'points="([^"]*)"', svg) for v in re.split("[ ,]", p)]
    return [float(v) for v in attrs + points]


def chart_in_child(points) -> str:
    """The chart of (x, y) ``points``, drawn in a child with 2 GB of address space and 20 s.

    An axis whose ticks never end would loop until memory is gone.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)

    code = ("import sys; from crossmesh.svgchart import line_chart; "
            f"sys.stdout.write(line_chart([('s', x, y) for x, y in {points!r}], title='t', xlabel='x', ylabel='y'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=20, preexec_fn=limit)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_legend_follows_first_appearance():
    svg = line_chart([("b", 0.0, 1.0), ("a", 1.0, 2.0), ("b", 2.0, 3.0), ("c", 3.0, 0.0)], **CHART)
    assert legend(svg) == ["b", "a", "c"]
    polylines = re.findall(r'points="([^"]*)"', svg)
    assert [len(p.split()) for p in polylines] == [2, 1, 1]


@pytest.mark.parametrize("values", [(0.25, 0.25), (1.0, 1.0000000000000004), (1e17,), (-1e17, -1e17)],
                         ids=["equal", "near-equal", "huge", "huge-negative"])
def test_degenerate_axes_end_with_few_ticks(values):
    svg = chart_in_child([(v, v) for v in values])
    x_ticks, y_ticks = len(X_TICK.findall(svg)), len(Y_TICK.findall(svg))
    assert 1 <= x_ticks <= 12 and 1 <= y_ticks <= 12
    assert all(map(math.isfinite, coordinates(svg)))


def test_equal_values_keep_a_unit_axis():
    svg = line_chart([("s", 2.0, 1.0), ("s", 2.0, 1.0)], **CHART)
    # x spans [2, 3]; y spans [1, 2], padded by 0.05 each side.
    assert re.findall(r'y1="432" x2="[^"]*" y2="437" stroke="#333"/>\n<text [^>]*>([^<]*)<', svg) == [
        "2", "2.2", "2.4", "2.6", "2.8", "3"]
    assert re.findall(r'points="([^"]*)"', svg) == ["64.00,414.18 64.00,414.18"]


def test_tiny_axis_gets_distinct_ticks_inside_the_plot():
    # A 4e-13-wide sigma axis: ticks 0, 1e-13, ..., 4e-13, none snapped to 0.
    ticks = X_TICK_LABEL.findall(line_chart([("s", 0.0, 1.0), ("s", 4e-13, 0.5)], **CHART))
    assert [label for _, label in ticks] == ["0", "1e-13", "2e-13", "3e-13", "4e-13"]
    positions = [float(x) for x, _ in ticks]
    assert positions == sorted(set(positions)) and 64.0 <= positions[0] and positions[-1] <= 560.0


def test_axis_up_to_the_largest_double_ends():
    # A tick after the last finite one is inf, and inf <= hi + 1e-9 step once that sum overflows.
    svg = chart_in_child([(0.0, 0.0), (sys.float_info.max, 1.0)])
    ticks = X_TICK_LABEL.findall(svg)
    assert [label for _, label in ticks] == ["0", "5e+307", "1e+308", "1.5e+308"]
    assert all(64.0 <= float(x) <= 560.0 for x, _ in ticks)


def test_subnormal_span_charts():
    # A fifth of 3e-323 has no tick step: the axis widens to [0, 1].
    ticks = X_TICK_LABEL.findall(line_chart([("s", 0.0, 1.0), ("s", 3e-323, 2.0)], **CHART))
    assert [label for _, label in ticks] == ["0", "0.2", "0.4", "0.6", "0.8", "1"]


def test_overflowing_axis_names_its_bounds():
    v = sys.float_info.max
    with pytest.raises(DomainError) as info:
        line_chart([("s", v, v)], **CHART)
    assert f"x in [{v}, inf], y in [-inf, inf]" in str(info.value) and "nan" not in str(info.value)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False),
       st.sampled_from([0.0, 0.05]))
def test_ticks_are_few_increasing_and_inside_the_axis(a, b, pad):
    # Through _axis, the span every chart's _ticks is given: at least 5 ulps and 5 normal doubles.
    lo, hi = _axis([a, b], pad)
    assume(all(map(math.isfinite, (lo, hi, hi - lo))))
    step = _nice_step(hi - lo)
    ticks = _ticks(lo, hi)
    assert 1 <= len(ticks) <= 12
    assert all(t < u for t, u in zip(ticks, ticks[1:]))
    assert all(map(math.isfinite, ticks)) and lo <= ticks[0] and ticks[-1] - hi <= step * 1e-9


def test_no_points_is_a_value_error():
    with pytest.raises(ValueError):
        line_chart([], **CHART)


def test_non_finite_padded_bound_is_a_domain_error():
    # Both values are finite, but 5 % padding takes the y axis past the largest double.
    with pytest.raises(DomainError, match="cannot chart"):
        line_chart([("s", 0.0, 0.0), ("s", 1.0, 1.75e308)], **CHART)


def test_committed_paper_scale_chart_is_reproduced():
    experiment = _EXPERIMENTS["fidelity-phase"]
    lines = (ROOT / "results/paper-scale/fidelity-phase-xbar.csv").read_text().splitlines()
    assert lines[0] == ",".join(experiment.header)
    svg = line_chart((experiment.point(line.split(",")) for line in lines[1:]), **experiment.chart)
    assert svg == (ROOT / "results/paper-scale/fidelity-phase-xbar.svg").read_text()
