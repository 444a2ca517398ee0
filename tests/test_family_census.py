"""Per-family census: the rows each encoder records for each row family
equal that family's closed form, so that a census mismatch names its
family. The closed forms are written out here by hand, from the model
definitions, and never read off an encoder. Criterion 3 checks them on
every grid point it encodes; the tests here cover the census sweep's
report and small models."""

import importlib.util
from itertools import accumulate
from pathlib import Path

import pytest

from ppdsp import enc_location
from ppdsp.enc_location import encode_location
from ppdsp.enc_request import encode_request
from ppdsp.instgen import grid_instance

# rows per family for |V| = nv locations, n requests and m trucks
LOCATION_ROWS = {
    "c3": lambda nv, n, m: n,
    "c4": lambda nv, n, m: m * n,
    "c5": lambda nv, n, m: m * n,
    "c6": lambda nv, n, m: m * nv,
    "c7": lambda nv, n, m: m * nv,
    "c8": lambda nv, n, m: m * (nv - 1) * (nv - 2),
    "c9": lambda nv, n, m: m * n,
    "c10": lambda nv, n, m: 2 * m * (nv - 1) * (nv - 2),  # c10a and c10b
}
# rows per family for n requests and m trucks, over N = 2n + 2 nodes
REQUEST_ROWS = {
    "ca3": lambda N, n, m: 2 * m,
    "ca4": lambda N, n, m: n,
    "ca5": lambda N, n, m: m * n,
    "ca6": lambda N, n, m: 2 * m * n,
    "ca7": lambda N, n, m: m * N * (N - 1),
    "ca8": lambda N, n, m: m * n,
    "ca9": lambda N, n, m: m * N * (N - 1),
}


def check_families(model, expected: dict[str, int], unchecked: str, label=()) -> None:
    """The recorded families are those of expected, in its order, each with
    expected[name] rows, and cover the model's rows in turn; only
    `unchecked`, from plain add_rows, is left to build()'s row checks. A
    mismatch names its families and label."""
    counted = {name: len(rows) for name, rows, _ in model.row_families}
    assert list(counted.items()) == list(expected.items()), (*label, {
        name: (counted.get(name), expected.get(name)) for name in {*counted, *expected}
        if counted.get(name) != expected.get(name)})
    starts = [rows.start for _, rows, _ in model.row_families]
    assert starts == list(accumulate(counted.values(), initial=0))[:-1]
    assert sum(counted.values()) == len(model.row_names)
    assert [name for name, _, checked in model.row_families if not checked] == [unchecked]


def location_rows(nv: int, n: int, m: int) -> dict[str, int]:
    return {name: rows(nv, n, m) for name, rows in LOCATION_ROWS.items()}


def request_rows(n: int, m: int) -> dict[str, int]:
    return {name: rows(2 * n + 2, n, m) for name, rows in REQUEST_ROWS.items()}


def test_census_sweep_names_each_family_of_the_first_mismatch(monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "census_sweep.py"
    spec = importlib.util.spec_from_file_location("census_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    # one row too many predicted for the location model, at every triple
    predicted = enc_location.predicted_counts_location
    monkeypatch.setattr(enc_location, "predicted_counts_location",
                        lambda nv, n, m: (predicted(nv, n, m)[0], predicted(nv, n, m)[1] + 1))
    assert sweep.main(["--nv", "5:5", "--n", "2:3", "--m", "1:1"]) == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH") == 2
    expected = [f"  {name}: {rows} rows" for name, rows in location_rows(5, 2, 1).items()]
    assert [line for line in out.splitlines() if line.startswith("  ")] == expected


def test_small_models():
    inst = grid_instance(6, 3, 2)
    check_families(encode_location(inst).model, location_rows(6, 3, 2), "c3")
    check_families(encode_request(inst).model, request_rows(3, 2), "ca4")


@pytest.mark.parametrize("encode", [encode_location, encode_request])
def test_each_row_name_starts_with_its_family(encode):
    model = encode(grid_instance(6, 3, 2)).model
    for name, rows, _ in model.row_families:
        assert all(row.startswith(name) for row in model.row_names[rows.start:rows.stop])


def test_a_miscounted_family_is_named():
    expected = dict(location_rows(6, 3, 2), c8=0)
    with pytest.raises(AssertionError, match=r"\(6, 3, 2, \{'c8': \(40, 0\)\}\)"):
        check_families(encode_location(grid_instance(6, 3, 2)).model, expected, "c3",
                       (6, 3, 2))
