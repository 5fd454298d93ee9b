"""Golden-transcript tests for the SQL REPL.

Each script under ``SCRIPTS`` is fed to :func:`repro.repl.run_script`
and the full transcript — prompts, tables, errors, plans — must match
the checked-in file in ``tests/golden/sql/``. The simulation is
deterministic, so even EXPLAIN ANALYZE cycle counts are stable; after
an intentional output change, regenerate with::

    pytest tests/test_repl_golden.py --update-golden
"""

from pathlib import Path

import pytest

from repro.repl import PROMPT, Repl, run_script

GOLDEN_DIR = Path(__file__).parent / "golden" / "sql"

SCRIPTS = {
    "basic": """\
CREATE TABLE pets (id INT32, species CHAR(8), grams INT32);
INSERT INTO pets (id, species, grams) VALUES
  (1, 'cat', 4200), (2, 'dog', 9100), (3, 'cat', 3800),
  (4, 'gecko', 55), (5, 'dog', 30100), (6, 'cat', 5100);
\\dt
\\d pets
SELECT species AS species, count(*) AS n, avg(grams) AS avg_grams
  FROM pets GROUP BY species ORDER BY n DESC;
UPDATE pets SET grams = grams + 100 WHERE species = 'cat';
DELETE FROM pets WHERE grams < 100;
SELECT id AS id, grams AS grams FROM pets ORDER BY grams DESC LIMIT 3;
SELECT missing FROM pets;
\\q
""",
    "transactions": """\
CREATE TABLE acct (id INT32, bal INT32);
INSERT INTO acct (id, bal) VALUES (1, 100), (2, 50);
BEGIN;
UPDATE acct SET bal = bal - 30 WHERE id = 1;
ROLLBACK;
SELECT id AS id, bal AS bal FROM acct ORDER BY id;
BEGIN;
UPDATE acct SET bal = bal - 30 WHERE id = 1;
COMMIT;
SELECT id AS id, bal AS bal FROM acct ORDER BY id;
COMMIT;
""",
    "trace": """\
\\trace
CREATE TABLE t (id INT32, v INT32);
INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30);
SELECT sum(v) AS total FROM t;
\\trace
\\q
""",
    "explain": """\
CREATE TABLE t (id INT32, v INT32, tag CHAR(4));
INSERT INTO t (id, v, tag) VALUES (1, 10, 'oak'), (2, 20, 'elm'), (3, 30, 'oak');
EXPLAIN SELECT tag AS t0, sum(v) AS total FROM t GROUP BY tag HAVING total > 15;
EXPLAIN UPDATE t SET v = 0 WHERE id = 2;
\\timing
SELECT count(*) AS n FROM t;
\\q
""",
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_repl_transcript_matches_golden(name, request):
    transcript = run_script(SCRIPTS[name])
    path = GOLDEN_DIR / f"{name}.txt"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(transcript)
    assert path.exists(), (
        f"golden file {path} missing — generate with --update-golden"
    )
    assert transcript == path.read_text()


def test_explain_analyze_transcript_has_span_tree():
    """EXPLAIN ANALYZE in the shell renders the recorded span tree.

    Cycle numbers are deterministic but cost-model-sensitive, so this
    checks structure rather than snapshotting the full text."""
    transcript = run_script(
        "CREATE TABLE t (id INT32, v INT32);\n"
        "INSERT INTO t (id, v) VALUES (1, 10), (2, 20);\n"
        "EXPLAIN ANALYZE SELECT sum(v) AS s FROM t;\n"
    )
    for marker in ("sql.analyze", "sql.bind", "sql.exec"):
        assert marker in transcript
    assert "sql.plan" not in transcript  # only EXPLAIN SELECT plans


def test_run_script_without_echo_drops_prompts():
    out = run_script(
        "CREATE TABLE t (id INT32);\n"
        "INSERT INTO t (id) VALUES (1);\n"
        "SELECT id AS one FROM t;\n",
        echo=False,
    )
    assert "repro=>" not in out
    assert "(1 row)" in out


def test_a_comment_line_is_not_a_pending_statement():
    # The apostrophe in the comment opens no string literal.
    repl = Repl(write=lambda s: None)
    repl.feed("-- don't forget")
    assert repl.prompt == PROMPT
    out = run_script("-- don't forget\nCREATE TABLE t (k INT64);\n\\dt\n")
    assert "repro=> CREATE TABLE t (k INT64);\nCREATE TABLE\n" in out
    assert " t     | 0" in out


def test_a_semicolon_inside_a_trailing_comment_ends_nothing():
    out = run_script("CREATE TABLE t (k INT64); -- done; really\n\\dt\n")
    assert "ERROR" not in out
    assert "repro=> \\dt\n" in out  # nothing left buffered
    assert " t     | 0" in out
