"""Sweeps reproduce the stored identity corpus row for row."""

import pytest

from identity_corpus import CONFIGS, DATA, FLOAT_COLUMNS, REL_TOL, fresh_text, rows, stored_text

from tdsofdm import CSV_HEADER


def test_every_stored_file_has_its_configuration():
    # the sweep test walks CONFIGS, so it would never read an orphaned file
    assert {path.stem for path in DATA.glob("*.csv")} == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sweep_matches_the_stored_corpus(name):
    want = stored_text(name)
    got = fresh_text(name)
    assert got.splitlines()[0] == want.splitlines()[0] == CSV_HEADER
    got_rows, want_rows = rows(got), rows(want)
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows, want_rows):
        for key in w:
            if key in FLOAT_COLUMNS:
                assert float(g[key]) == pytest.approx(float(w[key]), rel=REL_TOL, abs=0.0), (key, g, w)
            else:
                assert g[key] == w[key], (key, g, w)
