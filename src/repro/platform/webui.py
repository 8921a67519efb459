"""The Web UI, reproduced as a deterministic text/HTML renderer.

The browser front-end of the demo collects user input and displays results.
Its server-side counterpart here renders the same three views as strings:

* the **dataset picker** (one card per catalog dataset),
* the **task builder** view of Figure 2 (comparison id, one numbered row per
  query, the per-row remove marker and the clear-all marker),
* the **results view** (the top-k comparison table plus the execution log),
* the **job listing** (one row per known comparison with its lifecycle
  state) and the per-comparison **progress fragment** the browser polls or
  streams while a comparison runs,
* the **trace waterfall** (the span tree recorded for one comparison by
  :mod:`repro.platform.telemetry`, rendered as an indented timing
  waterfall — the view behind the CLI ``--trace`` flag),
* the **HTML index** served at ``/`` by the REST front-end.

Rendering to plain text keeps the platform fully testable offline while
exercising exactly the same data the web front-end would receive from the
API gateway; ``to_html`` variants are provided for embedding in notebooks or
static pages.
"""

from __future__ import annotations

import html
from typing import List, Optional

from ..exceptions import TaskNotFoundError
from ..ranking.comparison import ComparisonTable
from .gateway import ApiGateway
from .tasks import QuerySet

__all__ = ["WebUI"]


class WebUI:
    """Deterministic renderer of the demo's three main views."""

    def __init__(self, gateway: ApiGateway) -> None:
        self._gateway = gateway

    # ------------------------------------------------------------------ #
    # dataset picker
    # ------------------------------------------------------------------ #
    def render_dataset_picker(self, *, family: Optional[str] = None) -> str:
        """Return the dataset picker as plain text, one line per dataset."""
        lines = ["Available datasets", "=================="]
        for entry in self._gateway.list_datasets(family=family):
            lines.append(
                f"- {entry['dataset_id']:28s} [{entry['family']:9s}] {entry['description']}"
            )
        return "\n".join(lines)

    def render_algorithm_picker(self) -> str:
        """Return the algorithm picker as plain text, one block per algorithm."""
        lines = ["Available algorithms", "===================="]
        for entry in self._gateway.list_algorithms():
            personalized = "personalized" if entry["personalized"] else "global"
            lines.append(f"- {entry['display_name']} ({entry['name']}, {personalized})")
            lines.append(f"    {entry['description']}")
            for parameter in entry["parameters"]:
                lines.append(
                    f"    · {parameter['name']} ({parameter['kind']}, "
                    f"default {parameter['default']!r}): {parameter['description']}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # task builder (Figure 2)
    # ------------------------------------------------------------------ #
    def render_task_builder(self, query_set: QuerySet) -> str:
        """Render the task-builder view: comparison id and the query rows."""
        lines = [
            f"Comparison id: {query_set.comparison_id}",
            "Query Set                                                     [clear all 🗑]",
            f"{'Id':<4}{'Dataset':<22}{'Algorithm':<26}{'Source':<26}Parameters",
        ]
        for index, query in enumerate(query_set):
            parameters = ", ".join(
                f"{key}={value}" for key, value in sorted(query.parameters.items())
            )
            lines.append(
                f"{index:<4}{query.dataset_id:<22}{query.algorithm:<26}"
                f"{(query.source or '-'):<26}{parameters or 'defaults'}  [✕]"
            )
        if len(query_set) == 0:
            lines.append("(the query set is empty — add queries to build a comparison)")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # results view
    # ------------------------------------------------------------------ #
    def render_results(
        self,
        comparison_id: str,
        *,
        k: int = 5,
        show_scores: bool = False,
        include_logs: bool = False,
    ) -> str:
        """Render the results view of a finished comparison."""
        progress = self._gateway.get_status(comparison_id)
        lines: List[str] = [progress.describe()]
        if progress.state.is_terminal() and progress.error is None:
            table = self._gateway.get_comparison_table(comparison_id, k=k)
            lines.append("")
            lines.append(table.to_text(show_scores=show_scores))
        elif progress.error is not None:
            lines.append(f"error: {progress.error}")
        if include_logs:
            lines.append("")
            lines.append("Execution log")
            lines.append("-------------")
            try:
                lines.extend(self._gateway.get_logs(comparison_id))
            except TaskNotFoundError:
                # A permalink served from its result file outlives its record.
                lines.append("(expired with the comparison's job record)")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # job listing and progress (the "watch it run" half of the demo)
    # ------------------------------------------------------------------ #
    def render_job_list(self) -> str:
        """Render the job listing: one line per known comparison, oldest first.

        Storage maintenance jobs (replication repair, spill, rebalance) share
        the registry with comparisons; their ``description`` distinguishes
        them in the ``Kind`` column (comparisons render as ``comparison``).
        """
        lines = [
            "Comparisons",
            "===========",
            f"{'Comparison id':<38}{'State':<12}{'Progress':<10}{'Kind':<22}Error",
        ]
        jobs = self._gateway.list_comparisons()
        for job in jobs:
            progress = f"{job['completed_queries']}/{job['total_queries']}"
            kind = job.get("description") or "comparison"
            lines.append(
                f"{job['comparison_id']:<38}{job['state']:<12}{progress:<10}"
                f"{kind:<22}{job['error'] or '-'}"
            )
        if not jobs:
            lines.append("(no comparisons submitted yet)")
        return "\n".join(lines)

    def render_job_list_html(self) -> str:
        """Render the job listing as an HTML fragment (one table row per job)."""
        parts = [
            "<table class='jobs'>",
            "<tr><th>Comparison</th><th>State</th><th>Progress</th><th>Kind</th></tr>",
        ]
        for job in self._gateway.list_comparisons():
            kind = job.get("description") or "comparison"
            parts.append(
                f"<tr data-state='{html.escape(job['state'])}'>"
                f"<td><code>{html.escape(job['comparison_id'])}</code></td>"
                f"<td>{html.escape(job['state'])}</td>"
                f"<td>{job['completed_queries']}/{job['total_queries']}</td>"
                f"<td>{html.escape(kind)}</td></tr>"
            )
        parts.append("</table>")
        return "".join(parts)

    def render_progress_html(self, comparison_id: str) -> str:
        """Render one comparison's live-progress fragment.

        The fragment carries the state as a data attribute and a native
        ``<progress>`` element, so a browser long-polling the events
        endpoint can swap it in place on every update.
        """
        progress = self._gateway.get_status(comparison_id)
        percent = int(progress.fraction_done * 100)
        parts = [
            f"<div class='job-progress' data-comparison='{html.escape(comparison_id)}' "
            f"data-state='{html.escape(progress.state.value)}'>",
            f"<progress max='{progress.total_queries}' "
            f"value='{progress.completed_queries}'></progress> ",
            f"<span>{progress.completed_queries}/{progress.total_queries} "
            f"queries ({percent}%) — {html.escape(progress.state.value)}</span>",
        ]
        if progress.error:
            parts.append(f"<span class='error'>{html.escape(progress.error)}</span>")
        parts.append("</div>")
        return "".join(parts)

    # ------------------------------------------------------------------ #
    # trace waterfall (the observability view behind the CLI --trace flag)
    # ------------------------------------------------------------------ #
    def render_trace_waterfall(self, comparison_id: str) -> str:
        """Render one comparison's recorded span tree as a text waterfall.

        Each line shows a span's start offset relative to the root span,
        its duration, its name and its annotations; children are indented
        under their parent, and span events (retries, single-flight joins,
        withheld stale copies) render as ``·`` bullet lines.  Returns a short
        placeholder when the trace has been evicted or tracing is disabled.
        """
        envelope = self._gateway.get_trace(comparison_id)
        lines = [
            f"Trace for comparison {comparison_id}",
            f"state: {envelope['state']}  trace_id: {envelope['trace_id'] or '-'}",
        ]
        tree = envelope.get("trace")
        if not tree or not tree.get("roots"):
            lines.append("(no spans recorded — tracing disabled or trace evicted)")
            return "\n".join(lines)
        lines.append(f"spans: {tree['span_count']}")
        origin = min(root["started_at"] for root in tree["roots"])

        def _walk(node: dict, depth: int) -> None:
            offset_ms = max(0.0, (node["started_at"] - origin) * 1000.0)
            duration = node.get("duration_ms")
            duration_text = f"{duration:8.2f}ms" if duration is not None else "   (open)"
            annotations = ", ".join(
                f"{key}={value}" for key, value in sorted(node.get("annotations", {}).items())
            )
            indent = "  " * depth
            lines.append(
                f"{offset_ms:9.2f}ms {duration_text}  {indent}{node['name']}"
                + (f"  [{annotations}]" if annotations else "")
            )
            for event in node.get("events", ()):
                fields = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(event.items())
                    if key not in ("name", "offset_ms")
                )
                lines.append(
                    f"{'':21s}  {indent}  · {event['name']} @ {event['offset_ms']:.2f}ms"
                    + (f" ({fields})" if fields else "")
                )
            for child in node.get("children", ()):
                _walk(child, depth + 1)

        for root in tree["roots"]:
            _walk(root, 0)
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # HTML index (served at / by the REST front-end)
    # ------------------------------------------------------------------ #
    def render_index(self) -> str:
        """Render the minimal HTML landing page (dataset and algorithm pickers)."""
        dataset_items = "".join(
            f"<li><code>{html.escape(entry['dataset_id'])}</code> — "
            f"{html.escape(entry['description'])}</li>"
            for entry in self._gateway.list_datasets()
        )
        algorithm_items = "".join(
            f"<li><code>{html.escape(entry['name'])}</code> — "
            f"{html.escape(entry['display_name'])}"
            f" ({'personalized' if entry['personalized'] else 'global'})</li>"
            for entry in self._gateway.list_algorithms()
        )
        return (
            "<!DOCTYPE html><html><head><meta charset='utf-8'>"
            "<title>Personalized relevance algorithms</title></head><body>"
            "<h1>Comparing Personalized Relevance Algorithms for Directed Graphs</h1>"
            "<p>POST a JSON body {\"queries\": [...]} to <code>/api/comparisons</code> "
            "to run a comparison (<code>\"synchronous\": false</code> returns the "
            "permalink immediately); follow progress via "
            "<code>/api/comparisons/&lt;id&gt;/events</code>, inspect a "
            "comparison's span tree at "
            "<code>/api/comparisons/&lt;id&gt;/trace</code> and scrape "
            "Prometheus metrics from <code>/metrics</code>.</p>"
            f"<h2>Datasets</h2><ul>{dataset_items}</ul>"
            f"<h2>Algorithms</h2><ul>{algorithm_items}</ul>"
            f"<h2>Comparisons</h2>{self.render_job_list_html()}"
            "</body></html>"
        )

    # ------------------------------------------------------------------ #
    # HTML variants
    # ------------------------------------------------------------------ #
    def render_table_html(self, table: ComparisonTable) -> str:
        """Render a comparison table as a minimal HTML fragment."""
        parts = []
        if table.title:
            parts.append(f"<h3>{html.escape(table.title)}</h3>")
        parts.append("<table>")
        parts.append(
            "<tr><th>#</th>"
            + "".join(f"<th>{html.escape(column)}</th>" for column in table.columns)
            + "</tr>"
        )
        for position, row in enumerate(table.rows, start=1):
            parts.append(
                f"<tr><td>{position}</td>"
                + "".join(f"<td>{html.escape(cell)}</td>" for cell in row)
                + "</tr>"
            )
        parts.append("</table>")
        return "".join(parts)

    def render_results_html(self, comparison_id: str, *, k: int = 5) -> str:
        """Render the results view as an HTML fragment."""
        progress = self._gateway.get_status(comparison_id)
        parts = [f"<p>{html.escape(progress.describe())}</p>"]
        if progress.state.is_terminal() and progress.error is None:
            table = self._gateway.get_comparison_table(comparison_id, k=k)
            parts.append(self.render_table_html(table))
        return "".join(parts)
