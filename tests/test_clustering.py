"""First-match zero-distance clustering and cluster table I/O."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import run_length_collapse, save_cluster_table_json, scan_clusters

from hmmaccel import (
    ClusterTable,
    build_clusters,
    filter_low_weight,
    load_cluster_table,
    save_cluster_table,
)
from hmmaccel import clustering
from hmmaccel.inference import BLOCK_BYTES
from hmmaccel.model import Dataset

FOUR = [
    [1, 2, 3, 4, 5, 6, 7],
    [1, 2, 2, 2, 2, 3, 4],
    [1, 1, 2, 3, 3, 3, 4],
    [1, 2, 2, 2, 3, 4, 4],
]


def dataset(rows):
    return Dataset([np.array(r, dtype=np.int64) for r in rows])


def random_dataset(rng, count, lo=1, hi=8):
    return dataset(
        [rng.integers(0, 4, size=int(rng.integers(lo, hi))).tolist() for _ in range(count)]
    )


def warp_redundant_dataset(rng, count, one_length=False):
    # each sequence stretches one of a few 3-symbol patterns by repeating
    # its symbols, so many distinct sequences share a collapsed form; with
    # one_length the stretch factors are a permutation of 1, 2, 3
    patterns = [rng.integers(0, 3, size=3) for _ in range(6)]
    rows = []
    for i in range(count):
        reps = rng.permutation([1, 2, 3]) if one_length else rng.integers(1, 4, size=3)
        rows.append(np.repeat(patterns[i % 6], reps).tolist())
    return dataset(rows)


def test_four_sequences_dtw():
    table = build_clusters(dataset(FOUR), distance="dtw")
    assert len(table) == 2
    assert table.reps.sequences[0].tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert table.weights[0] == 1
    assert table.reps.sequences[1].tolist() == [1, 2, 2, 2, 2, 3, 4]
    assert table.weights[1] == 3
    assert table.total_weight == 4


def test_four_sequences_euclidean():
    table = build_clusters(dataset(FOUR), distance="euclidean")
    assert len(table) == 4
    assert table.weights.tolist() == [1, 1, 1, 1]
    for rep, row in zip(table.reps.sequences, FOUR):
        assert rep.tolist() == row


def test_copies_collapse_to_one_cluster():
    rows = [[3, 1, 4, 1, 5]] * 9
    for distance in ("dtw", "euclidean"):
        table = build_clusters(dataset(rows), distance=distance)
        assert len(table) == 1
        assert table.weights[0] == 9


def test_weight_conservation():
    rng = np.random.default_rng(21)
    for _ in range(10):
        data = random_dataset(rng, 60)
        assert build_clusters(data, distance="dtw").total_weight == 60
    uniform = dataset(rng.integers(0, 3, size=(40, 5)).tolist())
    assert build_clusters(uniform, distance="euclidean").total_weight == 40


def test_idempotent_on_representatives():
    rng = np.random.default_rng(22)
    data = random_dataset(rng, 80)
    table = build_clusters(data, distance="dtw")
    again = build_clusters(table.reps, distance="dtw")
    assert len(again) == len(table)
    assert all(w == 1 for w in again.weights)
    for r1, r2 in zip(table.reps.sequences, again.reps.sequences):
        assert np.array_equal(r1, r2)


def test_euclidean_groups_identical_sequences():
    rng = np.random.default_rng(23)
    rows = rng.integers(0, 2, size=(100, 4)).tolist()
    table = build_clusters(dataset(rows), distance="euclidean")
    assert len(table) == len({tuple(r) for r in rows})


def test_dtw_groups_by_collapsed_form():
    rng = np.random.default_rng(24)
    data = random_dataset(rng, 120)
    table = build_clusters(data, distance="dtw")
    collapsed = {run_length_collapse(s) for s in data.sequences}
    assert len(table) == len(collapsed)
    reps = {run_length_collapse(r) for r in table.reps.sequences}
    assert reps == collapsed


def test_count_and_weight_multiset_permutation_invariant():
    rng = np.random.default_rng(25)
    data = random_dataset(rng, 50)
    table = build_clusters(data, distance="dtw")
    perm = rng.permutation(50)
    shuffled = Dataset([data.sequences[i] for i in perm])
    table2 = build_clusters(shuffled, distance="dtw")
    assert len(table2) == len(table)
    assert sorted(table2.weights.tolist()) == sorted(table.weights.tolist())


def test_keyed_clustering_matches_scan():
    rng = np.random.default_rng(26)
    corpora = {
        "dtw": [
            random_dataset(rng, 70, lo=2, hi=5),
            random_dataset(rng, 120, lo=1, hi=9),
            warp_redundant_dataset(rng, 150),
        ],
        "euclidean": [
            dataset(rng.integers(0, 3, size=(90, 3)).tolist()),
            warp_redundant_dataset(rng, 150, one_length=True),
        ],
    }
    for distance, datasets in corpora.items():
        for data in datasets:
            table = build_clusters(data, distance=distance)
            reps, weights = scan_clusters(data, distance)
            assert table.weights.tolist() == weights
            assert len(table) < len(data.sequences)
            for got, rep in zip(table.reps.sequences, reps):
                assert np.array_equal(got, rep)


@st.composite
def clustering_corpora(draw):
    """A distance and a corpus over few symbols, so that repeats and warped
    copies are common: rows of one length (required for euclidean), or
    ragged rows for dtw, some of them built by stretching a few patterns."""
    distance = draw(st.sampled_from(["dtw", "euclidean"]))
    symbols = st.integers(0, draw(st.integers(0, 3)))
    if distance == "euclidean" or draw(st.booleans()):
        t_len = draw(st.integers(1, 6))
        row = st.lists(symbols, min_size=t_len, max_size=t_len)
    else:
        row = st.lists(symbols, min_size=1, max_size=7)
    if distance == "dtw" and draw(st.booleans()):
        patterns = draw(st.lists(st.lists(symbols, min_size=1, max_size=3), min_size=1,
                                 max_size=4))
        stretch = st.tuples(st.sampled_from(patterns), st.lists(st.integers(1, 3), min_size=3,
                                                                max_size=3))
        row = st.one_of(row, stretch.map(lambda pr: np.repeat(pr[0], pr[1][: len(pr[0])])))
    rows = draw(st.lists(row, min_size=1, max_size=30))
    return distance, dataset([list(map(int, r)) for r in rows])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(clustering_corpora())
def test_keyed_clustering_matches_scan_property(case):
    distance, data = case
    table = build_clusters(data, distance=distance)
    reps, weights = scan_clusters(data, distance)
    assert table.weights.tolist() == weights
    assert [r.tolist() for r in table.reps.sequences] == [r.tolist() for r in reps]


# (lowest symbol, highest symbol, longest row one key holds): a corpus that
# spans [lo, hi] keys rows in base hi - lo + 2, and a row one symbol longer
# than the last figure needs a second round of keys. None: the symbols span
# too much for two digits per key, so they are ranked first.
KEY_EDGES = [
    (0, 9, 18),  # 11**18 < 2**63 < 11**19
    (0, 39, 11),  # 41**11 < 2**63 < 41**12
    (0, 1, 39),  # 3**39 < 2**63 < 3**40
    (4, 13, 18),
    (2**62, 2**62 + 9, 18),
    (3, 3, 62),  # base 2
    (2**62 - 2, 2**63 - 1, None),
    (0, 2**63 - 1, None),
]


def no_repeats(row, lo, hi):
    """The row with each symbol that equals the one before it changed, so
    that dtw's collapse keeps the row's length (unless lo == hi)."""
    out = row[:1]
    for s in row[1:]:
        out.append(s if s != out[-1] else lo if out[-1] != lo else hi)
    return out


@st.composite
def key_edge_corpora(draw):
    """A distance and a corpus at the edges of the exact row key: rows of
    one symbol, rows at the one-key limit and one past it, and long rows,
    over symbols near 0, near 2**62, at 0 or at 2**63 - 1. Rows are a
    few patterns with one symbol changed; for dtw they may also lose their
    head or their tail, so that rows share leading or trailing chunks, and
    have one symbol repeated."""
    distance = draw(st.sampled_from(["dtw", "euclidean"]))
    lo, hi, fit = draw(st.sampled_from(KEY_EDGES))
    t_len = draw(st.sampled_from([1, 150] + ([fit, fit + 1] if fit else [40])))
    symbol = st.integers(lo, hi)
    patterns = draw(st.lists(st.lists(symbol, min_size=t_len, max_size=t_len), min_size=1,
                             max_size=3))
    patterns[0][:2] = [lo, hi][:t_len]  # the corpus spans [lo, hi], which sets the key's base
    patterns = [no_repeats(p, lo, hi) for p in patterns]
    rows = [patterns[0]]
    edits = st.tuples(st.integers(0, len(patterns) - 1), st.integers(0, t_len - 1),
                      st.one_of(st.none(), symbol), st.integers(1, t_len), st.booleans())
    for index, where, new, keep, tail in draw(st.lists(edits, max_size=12)):
        row = list(patterns[index])
        if new is not None:
            row[where] = new
        if distance == "dtw":
            row = row[-keep:] if tail else row[:keep]
            row.insert(where % keep, row[where % keep])
        rows.append(row)
    return distance, Dataset([np.array(r, dtype=np.int64) for r in rows])


# Two rows one symbol past the one-key limit, in base 11 and in base 41, whose
# digits read as one number differ by exactly 2**64: int64 keys of whole rows
# would wrap to the same value.
WRAP_11 = [[3, 6, 9, 5, 3, 4, 9, 6, 0, 2, 1, 9, 7, 6, 4, 2, 9, 4, 7],
           [9, 8, 6, 4, 7, 3, 0, 4, 7, 2, 5, 7, 2, 6, 4, 8, 3, 1, 4]]
WRAP_41 = [[35, 31, 39, 22, 24, 7, 0, 27, 22, 12, 7, 34],
           [19, 12, 35, 23, 19, 39, 0, 18, 12, 0, 27, 0]]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(key_edge_corpora())
@example(("euclidean", dataset(WRAP_11 + WRAP_11[:1])))
@example(("dtw", dataset(WRAP_41 + [WRAP_41[1][:5]])))
# a row and its first chunk: equal but for the row's last symbol, whose chunk
# key is the smallest
@example(("dtw", dataset(WRAP_11 + [WRAP_11[1][:18]])))
# a row and the row with its symbols 18 places apart swapped: the same digits
# at the same places within their chunks
@example(("euclidean", dataset([WRAP_11[0], [7] + WRAP_11[0][1:18] + [3]])))
def test_keyed_clustering_exact_at_key_edges(case):
    distance, data = case
    table = build_clusters(data, distance=distance)
    reps, weights = scan_clusters(data, distance)
    assert table.weights.tolist() == weights
    assert [r.tolist() for r in table.reps.sequences] == [r.tolist() for r in reps]


def dense_and_sorted(data, distance):
    """build_clusters' table of `data`, whether it went through the dense
    table, and the table of the sort alone."""
    with mock.patch.object(clustering, "_dense_groups", wraps=clustering._dense_groups) as dense:
        table = build_clusters(data, distance)
    with mock.patch.object(clustering, "_DENSE_KEYS", 0):  # no range fits: always the sort
        expected = build_clusters(data, distance)
    return table, dense.called, expected


def assert_same_table(table, expected):
    assert table.weights.tolist() == expected.weights.tolist()
    assert table.reps.values.tobytes() == expected.reps.values.tobytes()
    assert table.reps.offsets.tolist() == expected.reps.offsets.tolist()


@st.composite
def dense_floor_corpora(draw):
    """A distance and a corpus of up to 20 rows: rows of one length, or
    ragged rows with repeats for dtw, over up to 10 symbols from 0, 3 or
    2**40."""
    distance = draw(st.sampled_from(["dtw", "euclidean"]))
    lo = draw(st.sampled_from([0, 3, 2**40]))
    symbol = st.integers(lo, lo + draw(st.integers(0, 9)))
    if distance == "euclidean" or draw(st.booleans()):
        t_len = draw(st.integers(1, 5))
        row = st.lists(symbol, min_size=t_len, max_size=t_len)
    else:
        row = st.lists(st.tuples(symbol, st.integers(1, 3)), min_size=1, max_size=4).map(
            lambda runs: [s for s, reps in runs for _ in range(reps)])
    return distance, dataset(draw(st.lists(row, min_size=1, max_size=20)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(dense_floor_corpora())
def test_dense_table_matches_the_sort_at_its_row_floor(case):
    # the rows repeated up to the dense table's floor, a key range of
    # _KEYS_PER_ROW keys per row, and up to one row below it
    distance, rows = case
    keys = clustering._row_keys(clustering._collapse(rows) if distance == "dtw" else rows)
    floor = -(-(int(keys.max()) - int(keys.min()) + 1) // clustering._KEYS_PER_ROW)
    for count in sorted({max(len(rows), floor - 1), max(len(rows), floor)}):
        data = rows.take(np.arange(count) % len(rows))
        table, dense, expected = dense_and_sorted(data, distance)
        assert dense == (count >= floor)
        assert_same_table(table, expected)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.sampled_from([0, 7, 2**62]), st.sampled_from([0, 1]), st.sampled_from(["dtw", "euclidean"]),
       st.integers(0, 2**32 - 1))
def test_dense_table_matches_the_sort_at_its_budget(lo, past, distance, seed):
    # rows of one symbol each are keyed by their symbols: a range of
    # _DENSE_KEYS symbols fills the table's byte budget, one more takes the sort
    size = clustering._DENSE_KEYS + past
    count = -(-size // clustering._KEYS_PER_ROW)
    symbols = np.random.default_rng(seed).integers(0, size, count)
    symbols[[0, -1]] = size - 1, 0
    data = Dataset.from_flat(symbols + lo, np.arange(count + 1))
    table, dense, expected = dense_and_sorted(data, distance)
    assert dense == (not past)
    assert_same_table(table, expected)
    assert clustering._DENSE_KEYS * 5 <= BLOCK_BYTES


def test_empty_sequence_rejected():
    # refused where the Dataset is built, so no distance meets it
    with pytest.raises(ValueError, match="^sequence 2 is empty$"):
        Dataset([np.array([1, 2]), np.array([], dtype=np.int64), np.array([3])])


def test_negative_symbol_rejected():
    # euclidean clustering once grouped such a Dataset into a table that
    # save_cluster_table wrote and load_cluster_table refused
    for distance in ("dtw", "euclidean"):
        with pytest.raises(ValueError, match="^sequence 2 has a negative symbol$"):
            build_clusters(Dataset([[1, 2], [3, -1], [1, 2]]), distance)


def test_euclidean_mixed_lengths_rejected():
    data = dataset([[1, 2, 3], [1, 2, 3], [1, 2], [4, 5, 6]])
    with pytest.raises(ValueError, match="sequence 3 has length 2"):
        build_clusters(data, distance="euclidean")


def test_fractional_symbols_not_merged():
    # 1.2 and 1.9 would both truncate to 1, and then collapse like [1, 1]
    with pytest.raises(ValueError, match="sequence 1 must hold integers below 2"):
        build_clusters(Dataset([[1.2, 1.9], [1.0, 1.0]]), "dtw")


def test_empty_and_unknown_distance():
    with pytest.raises(ValueError, match="^sequence 1 is missing$"):
        build_clusters(Dataset([]), distance="dtw")
    with pytest.raises(ValueError, match="unknown distance"):
        build_clusters(dataset([[1]]), distance="cosine")


def test_filter_low_weight():
    s1, s2 = np.array([1, 2]), np.array([3, 4])
    table = ClusterTable(Dataset([s1, s2]), [5, 1])
    assert filter_low_weight(table, 1) is not table
    assert len(filter_low_weight(table, 1)) == 2
    kept = filter_low_weight(table, 2)
    assert len(kept) == 1
    assert kept.weights[0] == 5
    assert kept.total_weight == 5
    with pytest.raises(ValueError, match="all clusters filtered"):
        filter_low_weight(ClusterTable(Dataset([s1]), [1]), 2)
    with pytest.raises(ValueError, match="min_weight"):
        filter_low_weight(table, 0)


def test_cluster_table_weights_one_per_representative():
    reps = Dataset([np.array([1, 2]), np.array([3])])
    table = ClusterTable(reps, [4, 1])
    assert len(table) == 2 and table.total_weight == 5
    assert table.weights.dtype == np.int64 and not table.weights.flags.writeable
    wrapping = np.array([4, 2**63], dtype=np.uint64)
    for weights in ([4], [4, 1, 1], [[4, 1]], 4, [4, 0], [4, 1.5], wrapping, [4, 2**63]):
        with pytest.raises(ValueError, match="weights must hold 2 integers >= 1"):
            ClusterTable(reps, weights)


def test_cluster_table_round_trip(tmp_path):
    table = build_clusters(dataset(FOUR), distance="dtw")
    path = tmp_path / "clusters.json"
    save_cluster_table(table, path)
    loaded = load_cluster_table(path)
    assert loaded.total_weight == table.total_weight
    assert len(loaded) == 2
    for r1, r2 in zip(loaded.reps.sequences, table.reps.sequences):
        assert np.array_equal(r1, r2)
    assert loaded.weights.tolist() == table.weights.tolist()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=7),
                  st.integers(1, 2**62)),
        min_size=1,
        max_size=10,
    ),
)
@example([([1], 2**62), ([2, 3], 2**62), ([4], 2**62)])  # a total of 3 * 2**62 > 2**63
def test_cluster_table_round_trip_property(tmp_path_factory, clusters):
    path = tmp_path_factory.mktemp("table") / "clusters.json"
    table = ClusterTable(Dataset([r for r, _ in clusters]), [w for _, w in clusters])
    save_cluster_table(table, path)
    assert json.loads(path.read_text()) == {
        "total_weight": sum(w for _, w in clusters),
        "clusters": [{"representative": r, "weight": w} for r, w in clusters],
    }
    assert len(path.read_text().splitlines()) == len(clusters) + 5  # one cluster per line
    loaded = load_cluster_table(path)
    assert [(r.tolist(), w) for r, w in zip(loaded.reps.sequences, loaded.weights.tolist())] == (
        clusters
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.integers(0, 2**62), min_size=1, max_size=6),
                  st.integers(1, 2**62)),
        min_size=1,
        max_size=8,
    ),
)
@example([([0], 1)])
@example([([2**62], 2**62), ([7], 1)])
def test_cluster_table_writer_matches_json_writer(tmp_path_factory, clusters):
    folder = tmp_path_factory.mktemp("table")
    table = ClusterTable(Dataset([r for r, _ in clusters]),
                         np.array([w for _, w in clusters], dtype=np.int64))
    save_cluster_table(table, folder / "fast.json")
    save_cluster_table_json(table, folder / "json.json")
    assert (folder / "fast.json").read_bytes() == (folder / "json.json").read_bytes()


def test_cluster_file_validation(tmp_path):
    path = tmp_path / "clusters.json"
    path.write_text('{"total_weight": 1}')
    with pytest.raises(ValueError, match="missing key"):
        load_cluster_table(path)
    path.write_text('{"total_weight": 0, "clusters": []}')
    with pytest.raises(ValueError, match="no clusters"):
        load_cluster_table(path)
    path.write_text(
        '{"total_weight": 1,'
        ' "clusters": [{"representative": [1, 2], "weight": 0}]}'
    )
    with pytest.raises(ValueError, match="weight"):
        load_cluster_table(path)
    path.write_text(
        '{"total_weight": 3,'
        ' "clusters": [{"representative": [1, 2], "weight": 2}]}'
    )
    with pytest.raises(ValueError, match="total_weight"):
        load_cluster_table(path)


def write_table(path, clusters, total_weight):
    doc = {"total_weight": total_weight, "clusters": clusters}
    path.write_text(json.dumps(doc))


GOOD = {"representative": [1, 2], "weight": 2}


@pytest.mark.parametrize(
    "cluster, message",
    [
        ({"representative": [1, 2], "weight": 2.5}, "cluster 1 weight must be an integer, got 2.5"),
        ({"representative": [1, 2], "weight": 2.0}, "cluster 1 weight must be an integer, got 2.0"),
        ({"representative": [1, 2], "weight": True}, "cluster 1 weight must be an integer, got true"),
        ({"representative": [1, 1.5], "weight": 1}, "cluster 1 symbol 1 must be an integer, got 1.5"),
        ({"representative": [True, 2], "weight": 1}, "cluster 1 symbol 0 must be an integer, got true"),
        ({"representative": [1, -2], "weight": 1}, "cluster 1 symbol 1 is negative"),
        ({"representative": [[1, 2], [3, 4]], "weight": 1}, "cluster 1 symbol 0 must be an integer"),
        ({"representative": 3, "weight": 1}, "cluster 1 representative must be a list"),
        ({"representative": [], "weight": 1}, "cluster 1 is empty"),
        ({"representative": [2**64], "weight": 1}, "cluster 1 has a symbol too large"),
        ({"representative": [1, 2], "weight": 2**63}, "cluster 1 has a weight too large for int64"),
        ({"weight": 1}, "cluster 1 is missing key 'representative'"),
    ],
    ids=[
        "fractional-weight",
        "float-weight",
        "bool-weight",
        "fractional-symbol",
        "bool-symbol",
        "negative-symbol",
        "nested-representative",
        "scalar-representative",
        "empty-representative",
        "huge-symbol",
        "huge-weight",
        "missing-representative",
    ],
)
def test_cluster_file_rejects_bad_cluster(tmp_path, cluster, message):
    path = tmp_path / "clusters.json"
    weight = cluster.get("weight")
    total = 2 + (weight if type(weight) is int else 0)
    write_table(path, [GOOD, cluster], total_weight=total)
    with pytest.raises(ValueError) as info:
        load_cluster_table(path)
    assert str(info.value).startswith(f"cluster file {path}: ")
    assert message in str(info.value)


def test_cluster_file_symbols_checked_against_the_model(tmp_path):
    path = tmp_path / "clusters.json"
    # well formed but for a symbol out of range, the table passes the bulk
    # path's whole-table tests, and only its symbol test refuses it
    write_table(path, [GOOD, {"representative": [0, 3, 4, 5], "weight": 1}], total_weight=3)
    loaded = load_cluster_table(path, n_symbols=6)
    assert loaded.reps.values.tolist() == [1, 2, 0, 3, 4, 5] and loaded.weights.tolist() == [2, 1]
    with pytest.raises(ValueError) as info:
        load_cluster_table(path, n_symbols=4)
    assert str(info.value) == (
        f"cluster file {path}: cluster 1 uses symbol 4, out of range for a model with 4 symbols"
    )
    # the first faulty cluster is named, whatever the fault of a later one
    bad_symbol = {"representative": [1, 9], "weight": 1}
    bad_weight = {"representative": [1], "weight": 1.5}
    write_table(path, [GOOD, bad_symbol, bad_weight], total_weight=3)
    with pytest.raises(ValueError, match=r"cluster 1 uses symbol 9, out of range .* 5 symbols$"):
        load_cluster_table(path, n_symbols=5)
    with pytest.raises(ValueError, match="cluster 2 weight must be an integer, got 1.5$"):
        load_cluster_table(path)


def test_cluster_file_with_a_category_id_line_still_loads(tmp_path):
    # tables once carried an integer "category_id" before total_weight;
    # like any other key but total_weight and clusters, it is ignored
    old = tmp_path / "old.json"
    old.write_text(
        '{\n  "category_id": 3,\n  "total_weight": 4,\n  "clusters": [\n'
        '    {"representative": [1, 2, 3], "weight": 3},\n'
        '    {"representative": [4], "weight": 1}\n  ]\n}\n'
    )
    table = load_cluster_table(old, n_symbols=5)
    save_cluster_table(table, tmp_path / "new.json")
    lines = old.read_text().splitlines(keepends=True)
    assert (tmp_path / "new.json").read_text() == "".join(lines[:1] + lines[2:])
    new = load_cluster_table(tmp_path / "new.json")
    for got, expected in ((new.reps.values, table.reps.values),
                          (new.reps.offsets, table.reps.offsets), (new.weights, table.weights)):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("field, value", [("total_weight", 2.0), ("total_weight", "2")])
def test_cluster_file_rejects_non_integer_header(tmp_path, field, value):
    path = tmp_path / "clusters.json"
    doc = {"total_weight": 2, "clusters": [GOOD]}
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"cluster file .*: {field} must be an integer"):
        load_cluster_table(path)


def test_cluster_file_total_weight_not_truncated(tmp_path):
    # 2.5 + 0.5 would truncate to 2 + 0 and then pass a declared total of 2
    path = tmp_path / "clusters.json"
    write_table(
        path,
        [{"representative": [1], "weight": 2.5}, {"representative": [2], "weight": 0.5}],
        total_weight=2,
    )
    with pytest.raises(ValueError, match="cluster 0 weight must be an integer"):
        load_cluster_table(path)


def test_cluster_file_not_json_or_not_object(tmp_path):
    path = tmp_path / "clusters.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match=f"cluster file {path} is not valid JSON"):
        load_cluster_table(path)
    path.write_bytes(b'\xff\xfe{"total_weight": 1}')
    with pytest.raises(ValueError, match=f"cluster file {path} is not valid JSON"):
        load_cluster_table(path)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="must hold a JSON object"):
        load_cluster_table(path)
    path.write_text('{"total_weight": 1, "clusters": {"a": 1}}')
    with pytest.raises(ValueError, match="clusters must be a list"):
        load_cluster_table(path)
    path.write_text('{"total_weight": 1, "clusters": [7]}')
    with pytest.raises(ValueError, match="cluster 0 must be a JSON object"):
        load_cluster_table(path)
