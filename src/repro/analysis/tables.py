"""ASCII rendering of the paper's tables and figures.

The benchmark harness prints the same rows/series the paper reports; these
helpers format them.  Nothing here affects the numbers -- rendering only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from repro.analysis.evaluation import EvaluationResult


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """A simple fixed-width table."""
    cols = len(headers)
    for row in rows:
        if len(row) != cols:
            raise ValueError(f"row {row!r} has {len(row)} fields, expected {cols}")
    cells = [[str(h) for h in headers]] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(cols)]
    lines = []
    for r_idx, row in enumerate(cells):
        lines.append("  ".join(row[c].rjust(widths[c]) for c in range(cols)))
        if r_idx == 0:
            lines.append("  ".join("-" * widths[c] for c in range(cols)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def render_table4(result: EvaluationResult) -> str:
    """Table 4's two accuracy rows for every estimator.

    Degraded figures are never printed bare: ``*`` marks a fit that failed
    its convergence checks, ``~`` one produced by a fallback fitter
    (Laplace/AGHQ or fixed effects) rather than exact ML; skipped
    estimators are listed below the table.
    """
    names = list(result.mixed)

    def cell(acc) -> str:
        text = f"{acc.sigma_eps:.2f}"
        if acc.degraded:
            text += "~"
        if not acc.converged:
            text += "*"
        return text

    rows = [
        ["sigma_eps"] + [cell(result.mixed[n]) for n in names],
        ["sigma_eps (rho=1)"] + [cell(result.fixed[n]) for n in names],
    ]
    out = render_table(["", *names], rows)
    notes: list[str] = []
    if any(
        acc.degraded
        for table in (result.mixed, result.fixed)
        for acc in table.values()
    ):
        fallbacks = sorted(
            {
                f"{acc.name}: {acc.fitter}"
                for acc in result.mixed.values()
                if acc.degraded
            }
        )
        notes.append(
            "~ fallback fitter engaged (" + "; ".join(fallbacks) + ")"
        )
    if any(
        not acc.converged
        for table in (result.mixed, result.fixed)
        for acc in table.values()
    ):
        notes.append("* fit did not converge; value unreliable")
    if result.skipped:
        notes.append("skipped (fit failed): " + ", ".join(result.skipped))
    if notes:
        out += "\n" + "\n".join(notes)
    return out


def render_bar_chart(
    series: Mapping[str, Mapping[str, float]],
    width: int = 40,
    unit: str = "",
) -> str:
    """Grouped horizontal ASCII bars (used for Figure 6).

    ``series`` maps series name -> {category -> value}.  Categories are the
    union across series, in first-series order.
    """
    if not series:
        raise ValueError("no series to render")
    categories: list[str] = []
    for values in series.values():
        for cat in values:
            if cat not in categories:
                categories.append(cat)
    peak = max(
        (v for values in series.values() for v in values.values()), default=0.0
    )
    if peak <= 0:
        raise ValueError("bar chart needs at least one positive value")
    label_w = max(len(c) for c in categories) + 2
    marks = {name: mark for name, mark in zip(series, "#=+*")}
    lines = []
    for cat in categories:
        for name, values in series.items():
            if cat not in values:
                continue
            v = values[cat]
            bar = marks[name] * max(1, round(width * v / peak))
            lines.append(f"{cat:<{label_w}}{bar} {v:.2f}{unit} [{name}]")
        lines.append("")
    return "\n".join(lines).rstrip()


def render_scatter(
    points: Sequence[tuple[str, float, float]],
    width: int = 56,
    height: int = 20,
    x_label: str = "estimate",
    y_label: str = "reported",
) -> str:
    """ASCII scatter plot (Figure 5): x = estimate, y = reported effort."""
    if not points:
        raise ValueError("no points to plot")
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    x_max = max(xs) * 1.05
    y_max = max(ys) * 1.05
    grid = [[" "] * width for _ in range(height)]
    for _, x, y in points:
        col = min(width - 1, int(width * x / x_max))
        row = min(height - 1, int(height * y / y_max))
        grid[height - 1 - row][col] = "o"
    # Diagonal y = x reference.
    scale = min(x_max, y_max)
    for i in range(min(width, height) * 4):
        v = scale * i / (min(width, height) * 4)
        col = min(width - 1, int(width * v / x_max))
        row = min(height - 1, int(height * v / y_max))
        if grid[height - 1 - row][col] == " ":
            grid[height - 1 - row][col] = "."
    lines = [f"{y_label} (max {max(ys):.1f})"]
    lines += ["|" + "".join(r) for r in grid]
    lines.append("+" + "-" * width + f"> {x_label} (max {max(xs):.1f})")
    return "\n".join(lines)
