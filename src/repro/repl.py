"""``python -m repro.repl`` — the interactive SQL shell.

A psql-flavoured front end over the one statement pipeline
(:class:`repro.db.sql.Session`): multi-line statements accumulate until
a terminating ``;``, results print as aligned tables, ``EXPLAIN`` shows
the optimizer's plan, and ``EXPLAIN ANALYZE`` renders the span tree of
the actual run — the same tracer output every other layer uses.

Backslash commands (``\\help`` lists them) handle the shell-side verbs:
``\\dt`` lists tables, ``\\d t`` describes one, ``\\timing`` toggles
per-statement simulated-cycle reporting, ``\\q`` quits.

The same machinery is scriptable — ``--file script.sql`` or stdin runs a
script and exits — and :func:`run_script` returns the session transcript
as a string, which is what the golden-file tests snapshot.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from repro.db.sql.pipeline import (
    Session,
    StatementResult,
    scan_statements,
    split_statements,
)
from repro.errors import ReproError
from repro.obs import MetricsRegistry, Tracer

PROMPT = "repro=> "
CONTINUE = "repro-> "


# ----------------------------------------------------------------------
# Result rendering.
# ----------------------------------------------------------------------
def _fmt_cell(value) -> str:
    if isinstance(value, float):
        # Trim float noise but keep .0 so numeric columns read as numeric.
        text = f"{value:.6f}".rstrip("0")
        return text + "0" if text.endswith(".") else text
    return str(value)


def render_table(names, rows) -> str:
    """Aligned psql-style table with a ``(N rows)`` footer."""
    cells = [[_fmt_cell(v) for v in row] for row in rows]
    widths = [
        max(len(str(name)), *(len(r[i]) for r in cells)) if cells else len(str(name))
        for i, name in enumerate(names)
    ]
    header = " | ".join(str(n).ljust(w) for n, w in zip(names, widths))
    rule = "-+-".join("-" * w for w in widths)
    lines = [f" {header}".rstrip(), f"-{rule}-"]
    for row in cells:
        lines.append(
            (" " + " | ".join(c.ljust(w) for c, w in zip(row, widths))).rstrip()
        )
    n = len(rows)
    lines.append(f"({n} row{'' if n == 1 else 's'})")
    return "\n".join(lines)


_DML_TAGS = {"insert": "INSERT", "update": "UPDATE", "delete": "DELETE"}


def format_result(result: StatementResult, timing: bool = False) -> str:
    """One statement's terminal output (sans trailing newline)."""
    if result.kind == "select":
        out = render_table(result.names, result.rows)
    elif result.kind in _DML_TAGS:
        out = f"{_DML_TAGS[result.kind]} {result.rows_affected}"
    elif result.kind == "explain":
        out = result.plan or ""
    else:
        out = result.kind.upper().replace("CREATE", "CREATE TABLE").replace(
            "DROP", "DROP TABLE"
        )
    if timing:
        out += f"\nTime: {result.cycles:.0f} simulated cycles"
    return out


# ----------------------------------------------------------------------
# The shell.
# ----------------------------------------------------------------------
class Repl:
    """Line-at-a-time shell state: statement buffering + meta commands."""

    def __init__(
        self,
        session: Optional[Session] = None,
        write: Optional[Callable[[str], None]] = None,
    ):
        self.session = session if session is not None else Session(tracer=Tracer())
        self.write = write if write is not None else _stdout_write
        self.timing = False
        self.done = False
        self._buffer: List[str] = []

    @property
    def prompt(self) -> str:
        return CONTINUE if self._buffer else PROMPT

    def feed(self, line: str) -> None:
        """Consume one input line: buffer, execute, or run a meta command."""
        stripped = line.strip()
        if stripped.startswith("\\"):
            # Meta commands run immediately, even mid-statement (psql-like);
            # the statement buffer is left intact.
            self._meta(stripped)
            return
        if not self._buffer and not stripped:
            return
        self._buffer.append(line)
        statements, rest = scan_statements("\n".join(self._buffer))
        if not statements:
            # Still mid-statement; input that is only comments is dropped.
            self._buffer = self._buffer if rest else []
            return
        self._buffer = []
        for sql in statements:
            self._run(sql)
        if rest:  # same-line trailing input ("SELECT 1; \q")
            self.feed(rest)

    def _run(self, sql: str) -> None:
        try:
            result = self.session.execute(sql)
        except ReproError as exc:
            self.write(f"ERROR: {exc}")
            return
        self.write(format_result(result, self.timing))

    # ------------------------------------------------------------------
    # Backslash commands.
    # ------------------------------------------------------------------
    def _meta(self, command: str) -> None:
        parts = command.split()
        name, args = parts[0], parts[1:]
        if name in ("\\q", "\\quit"):
            self.done = True
        elif name == "\\timing":
            self.timing = not self.timing
            self.write(f"Timing is {'on' if self.timing else 'off'}.")
        elif name == "\\dt":
            tables = sorted(
                self.session.catalog.tables(), key=lambda t: t.schema.name
            )
            if not tables:
                self.write("No tables.")
                return
            rows = [(t.schema.name, t.nrows) for t in tables]
            self.write(render_table(("table", "rows"), rows))
        elif name == "\\d":
            if not args:
                self.write("\\d needs a table name")
                return
            try:
                table = self.session.catalog.table(args[0])
            except ReproError as exc:
                self.write(f"ERROR: {exc}")
                return
            rows = [
                (c.name, c.dtype.name, c.dtype.width)
                for c in table.schema.columns
            ]
            self.write(render_table(("column", "type", "bytes"), rows))
            if table.schema.mvcc:
                self.write("MVCC: versioned rows (begin_ts/end_ts stamps)")
        elif name == "\\trace":
            trace = self.session.last_trace
            if trace is None:
                self.write("No trace recorded.")
            else:
                self.write(trace.render())
        elif name in ("\\help", "\\?"):
            self.write(
                "\\q           quit\n"
                "\\dt          list tables\n"
                "\\d TABLE     describe a table\n"
                "\\timing      toggle simulated-cycle timing\n"
                "\\trace       span tree of the last statement\n"
                "\\help        this help\n"
                "Statements end with ';'. EXPLAIN / EXPLAIN ANALYZE work."
            )
        else:
            self.write(f"unknown command {name!r} — try \\help")


def _stdout_write(text: str) -> None:
    print(text)


# ----------------------------------------------------------------------
# Script mode (the golden tests drive this).
# ----------------------------------------------------------------------
def run_script(
    text: str,
    session: Optional[Session] = None,
    echo: bool = True,
) -> str:
    """Run ``text`` as shell input, returning the transcript.

    With ``echo`` each input line appears prefixed by the prompt it
    would have shown interactively, so the transcript reads like a
    recorded session — the format the golden files under
    ``tests/golden/sql/`` store.
    """
    chunks: List[str] = []
    repl = Repl(session=session, write=lambda s: chunks.append(s))
    for line in text.splitlines():
        if echo:
            chunks.append(repl.prompt + line)
        repl.feed(line)
        if repl.done:
            break
    return "\n".join(chunks) + "\n"


# ----------------------------------------------------------------------
# Bootstrap datasets.
# ----------------------------------------------------------------------
_DEMO_SCRIPT = """
CREATE TABLE pets (id INT32, species CHAR(8), grams INT32);
INSERT INTO pets (id, species, grams) VALUES
  (1, 'cat', 4200), (2, 'dog', 9100), (3, 'cat', 3800),
  (4, 'gecko', 55), (5, 'dog', 30100), (6, 'cat', 5100);
"""


def _load_demo(session: Session) -> None:
    for sql in split_statements(_DEMO_SCRIPT):
        session.execute(sql)


def _load_tpch(session: Session, scale_rows: int) -> None:
    from repro.workloads.tpch import generate_orders, generate_lineitem

    _, lineitem = generate_lineitem(scale_rows, catalog=session.catalog)
    generate_orders(lineitem, catalog=session.catalog)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.repl",
        description="Interactive SQL shell over the repro statement pipeline.",
    )
    parser.add_argument(
        "--demo", action="store_true", help="preload a small demo table"
    )
    parser.add_argument(
        "--tpch",
        action="store_true",
        help="preload generated TPC-H lineitem + orders",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=10_000,
        help="lineitem rows for --tpch (default 10000)",
    )
    parser.add_argument(
        "--file", help="run this SQL script instead of reading stdin"
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the Prometheus exposition on exit",
    )
    args = parser.parse_args(argv)

    metrics = MetricsRegistry() if args.metrics else None
    session = Session(tracer=Tracer(), metrics=metrics)
    if args.demo:
        _load_demo(session)
    if args.tpch:
        _load_tpch(session, args.rows)

    if args.file:
        with open(args.file) as f:
            sys.stdout.write(run_script(f.read(), session=session, echo=False))
    elif not sys.stdin.isatty():
        sys.stdout.write(run_script(sys.stdin.read(), session=session))
    else:
        repl = Repl(session=session)
        print("repro SQL shell — \\help for help, \\q to quit.")
        while not repl.done:
            try:
                line = input(repl.prompt)
            except EOFError:
                print()
                break
            except KeyboardInterrupt:
                print()
                continue
            repl.feed(line)
    session.close()
    if metrics is not None:
        sys.stdout.write(metrics.to_prometheus())
    return 0


if __name__ == "__main__":
    sys.exit(main())
