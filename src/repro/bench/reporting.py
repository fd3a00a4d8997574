"""Paper-style result rendering.

Each figure's bench prints rows in the shape the paper reports:
acceleration ratios over Tulkun (Fig. 11a/12a), percentage of incremental
verifications under 10 ms (Fig. 11b/12b), 80 % quantiles (Fig. 11c/12c),
and CDFs for the on-device microbenchmarks (Figs. 14/15).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.bench.runners import fraction_below, quantile


def format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


class Ratio(float):
    """A dimensionless ratio: a number, printed as ``0.69×``."""


def acceleration_row(
    dataset: str,
    tulkun_seconds: float,
    baseline_seconds: Mapping[str, float],
) -> Dict[str, object]:
    """One Fig. 11a-style row: Tulkun time + per-tool acceleration ratio."""
    row: Dict[str, object] = {
        "dataset": dataset,
        "tulkun": tulkun_seconds,
    }
    for name, seconds in baseline_seconds.items():
        row[f"{name}/Tulkun"] = Ratio(
            seconds / tulkun_seconds if tulkun_seconds > 0 else float("inf")
        )
    return row


def under_10ms_row(
    dataset: str,
    tulkun_times: Sequence[float],
    baseline_times: Mapping[str, Sequence[float]],
) -> Dict[str, object]:
    """One Fig. 11b-style row: % of incremental verifications < 10 ms."""
    row: Dict[str, object] = {
        "dataset": dataset,
        "Tulkun": 100.0 * fraction_below(tulkun_times, 10e-3),
    }
    for name, times in baseline_times.items():
        row[name] = 100.0 * fraction_below(times, 10e-3)
    return row


def quantile_row(
    dataset: str,
    tulkun_times: Sequence[float],
    baseline_times: Mapping[str, Sequence[float]],
    q: float = 0.8,
) -> Dict[str, object]:
    """One Fig. 11c-style row: the 80 % quantile per tool."""
    row: Dict[str, object] = {
        "dataset": dataset,
        "Tulkun": quantile(tulkun_times, q),
    }
    for name, times in baseline_times.items():
        row[name] = quantile(times, q)
    return row


def cdf_points(
    values: Sequence[float], points: int = 10
) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs for a CDF plot/table."""
    if not values:
        return []
    ordered = sorted(values)
    total = len(ordered)
    step = max(1, total // points)
    cdf = [
        (ordered[index], (index + 1) / total)
        for index in range(step - 1, total, step)
    ]
    if cdf[-1][1] < 1.0:
        cdf.append((ordered[-1], 1.0))
    return cdf


def print_table(
    title: str, rows: Sequence[Mapping[str, object]], out=None
) -> str:
    """Render rows as an aligned text table; returns (and prints) it."""
    if not rows:
        text = f"== {title} ==\n(no rows)\n"
        print(text)
        return text
    columns = list(rows[0].keys())
    rendered: List[List[str]] = [columns]
    for row in rows:
        rendered.append([_format_cell(row.get(column)) for column in columns])
    widths = [
        max(len(line[index]) for line in rendered)
        for index in range(len(columns))
    ]
    lines = [f"== {title} =="]
    for line_index, line in enumerate(rendered):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(line, widths))
        )
        if line_index == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    text = "\n".join(lines) + "\n"
    print(text)
    return text


def render_json(document: Mapping[str, object], path: Optional[str] = None) -> str:
    """Serialize a result document as pretty JSON; optionally write it.

    The machine-readable counterpart of :func:`print_table`: bench and
    CLI commands build a plain dict of their results and either print the
    returned text (``--json``) or persist it (``--out``).  Non-JSON
    values (dataclasses, Predicates, ...) fall back to ``str``.
    """
    text = json.dumps(document, indent=2, sort_keys=True, default=str) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _format_cell(value: object) -> str:
    if isinstance(value, Ratio):
        return f"{value:.2f}×"
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return format_seconds(value) if value > 0 else "0"
    return str(value)
