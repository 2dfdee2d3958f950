"""Table III: basic statistics of the two datasets.

At reproduction scale the absolute counts are orders of magnitude smaller than
the paper's (2.4B samples / 81M users); the bench checks the *relationships*
Table III exhibits: the Ele.me dataset is larger, has far more features, and
both datasets have long behaviour sequences.
"""

from __future__ import annotations

from .conftest import format_rows, save_result


def _build_rows(eleme, public):
    return [eleme.statistics().as_row(), public.statistics().as_row()]


def test_table3_dataset_statistics(eleme_bench, public_bench):
    rows = _build_rows(eleme_bench, public_bench)
    save_result("table3_dataset_stats", format_rows(rows, "Table III — dataset statistics"))
    eleme_row, public_row = rows
    assert eleme_row["#Feature"] > public_row["#Feature"]
    assert eleme_row["Total Size"] > public_row["Total Size"]
    assert eleme_row["ML of User Behaviors"] > 5
    assert public_row["ML of User Behaviors"] > 5
    # Ele.me's click rate is higher than the public data's (Table III / IV contrast).
    eleme_ctr = eleme_row["#Clicks"] / eleme_row["Total Size"]
    public_ctr = public_row["#Clicks"] / public_row["Total Size"]
    assert eleme_ctr > public_ctr
