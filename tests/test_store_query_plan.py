"""Every index the store declares is read by a query the program runs.

The SQL passed to :meth:`RunStore._execute` over a two-epoch store run,
``repro store verify`` and ``repro obs runs/top/diff`` is recorded, and
SQLite plans each ``SELECT``.  A bare ``COUNT(*)`` does not count: it
walks whichever index is smallest, and the table serves as well.
"""

import re
import sqlite3

import pytest

from repro.cli import main
from repro.store import RunStore, run_incremental, verify_store
from repro.store.sqlite import _SCHEMA


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    """``{sql: query plan}`` of every SELECT the store ran."""
    path = tmp_path_factory.mktemp("plans") / "plans.sqlite"
    recorded = {}
    execute = RunStore._execute

    def recording(self, sql, params=()):
        recorded.setdefault(sql, params)
        return execute(self, sql, params)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunStore, "_execute", recording)
        for epoch in (1, 2):
            run_incremental(path, epoch=epoch, seed=3, scale=0.006, epoch_total=2)
        verify_store(path)
        for command in (["runs"], ["top"], ["diff", "1", "2"]):
            assert main(["obs", *command, "--store", str(path)]) == 0
    conn = sqlite3.connect(path)
    plans = {
        sql: " | ".join(row[-1] for row in conn.execute(f"EXPLAIN QUERY PLAN {sql}", params))
        for sql, params in recorded.items()
        if sql.startswith("SELECT")
    }
    conn.close()
    return plans


def test_every_declared_index_serves_a_query(plans):
    read = " | ".join(
        plan for sql, plan in plans.items()
        if not re.fullmatch(r"SELECT COUNT\(\*\) FROM \w+", sql)
    )
    unused = [
        name for name in re.findall(r"CREATE INDEX IF NOT EXISTS (\w+)", _SCHEMA)
        if not re.search(rf"\bINDEX {name}\b", read)
    ]
    assert not unused, f"indices no recorded query reads: {unused}"


def test_posts_read_walks_idx_posts_thread(plans):
    (plan,) = [
        plan for sql, plan in plans.items()
        if sql.endswith("FROM posts ORDER BY thread_id, position")
    ]
    assert "idx_posts_thread" in plan and "TEMP B-TREE" not in plan
