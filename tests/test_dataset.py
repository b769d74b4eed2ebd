"""Dataset pipeline: parsing, fixpoint filtering, split, negative sampling,
and the synthetic generator's bytes."""

import hashlib

import numpy as np
import pytest

from decrecsim.cli import load_dataset
from decrecsim.config import ExperimentConfig
from decrecsim.dataset import (
    FORMATS,
    RawInteractions,
    load_interactions,
    preprocess,
    split_and_sample,
)
from decrecsim.errors import ContractError, EmptyDatasetError, ParseError
from decrecsim.synthetic import generate_interactions, main, write_movielens_dat


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def raw_from_pairs(pairs):
    """RawInteractions of (user, item) records, each id coded by its first
    appearance, as load_interactions codes a file's."""
    users, items = {}, {}
    return RawInteractions(
        np.array([users.setdefault(u, len(users)) for u, _ in pairs], dtype=np.int64),
        np.array([items.setdefault(i, len(items)) for _, i in pairs], dtype=np.int64),
    )


def interaction_count(pre):
    return sum(len(items) for items in pre.user_items)


def write_records(tmp_path, name, fmt, records, header="user,item,rating,timestamp"):
    """A file of records, each a list of field texts, in format fmt; a csv
    file starts with header."""
    sep = "::" if fmt == "movielens_dat" else ","
    lines = [sep.join(fields) for fields in records]
    if fmt == "csv":
        lines.insert(0, header)
    path = tmp_path / name
    path.write_bytes("".join(line + "\n" for line in lines).encode())
    return str(path)


def assert_columns(raw, users, items):
    assert raw.users.dtype == raw.items.dtype == np.int64
    assert raw.users.tolist() == users
    assert raw.items.tolist() == items


class TestLoad:
    def test_three_dat_lines(self, tmp_path):
        path = write(tmp_path, "a.dat", "1::10::5::100\n2::11::3::200\n1::12::4::300\n")
        raw = load_interactions(path, "movielens_dat")
        assert len(raw) == 3
        assert_columns(raw, [0, 1, 0], [0, 1, 2])

    def test_ids_coded_by_first_appearance(self, tmp_path):
        # neither numeric nor string order: "9" before "10", "b" before "a"
        text = "9::b::1::1\n10::a::1::2\n9::a::1::3\n2::c::1::4\n10::b::1::5\n"
        raw = load_interactions(write(tmp_path, "a.dat", text), "movielens_dat")
        assert_columns(raw, [0, 1, 0, 2, 1], [0, 1, 1, 2, 0])

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "a.dat", "")
        assert len(load_interactions(path, "movielens_dat")) == 0

    def test_csv_bad_rating_names_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "user,item,rating\n1,10,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(path, "csv")

    def test_dat_malformed_line_number(self, tmp_path):
        path = write(tmp_path, "a.dat", "1::10::5::100\n1::10::5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(path, "movielens_dat")

    @pytest.mark.parametrize(
        "name, fmt, text",
        [
            ("a.dat", "movielens_dat", "1::10::5::100\n1::11::nan::200\n"),
            ("a.csv", "csv", "user,item,rating\n1,11,inf\n1,10,5\n"),
            ("a.dat", "movielens_dat", "1::10::5::100\n1::11::5::2.5\n"),
            ("a.csv", "csv", "user,item,rating,timestamp\n1,11,5,x\n1,10,5,1\n"),
            ("a.dat", "movielens_dat", "1::10::5::100\n1::::5::200\n"),
            ("a.dat", "movielens_dat", "1::10::5::100\r\n1::11::nan::200\r\n"),
            ("a.csv", "csv", "user,item,rating\n1,10\n1,11,5\n"),
        ],
        ids=["dat-nan-rating", "csv-inf-rating", "dat-float-timestamp", "csv-bad-timestamp",
             "dat-empty-item", "dat-crlf-nan-rating", "csv-two-fields"],
    )
    def test_bad_record_names_line(self, tmp_path, name, fmt, text):
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(write(tmp_path, name, text), fmt)

    def test_csv_optional_timestamp(self, tmp_path):
        path = write(tmp_path, "a.csv", "user,item,rating,timestamp\n1,10,5,99\n2,11,4,\n")
        raw = load_interactions(path, "csv")
        assert_columns(raw, [0, 1], [0, 1])

    def test_dat_and_csv_of_one_file_load_alike(self, tmp_path):
        dat = tmp_path / "r.dat"
        write_movielens_dat(str(dat), generate_interactions(40, 60, 3))
        body = dat.read_text().replace("::", ",")
        csv = write(tmp_path, "r.csv", "user,item,rating,timestamp\n" + body)
        a, b = load_interactions(str(dat), "movielens_dat"), load_interactions(csv, "csv")
        assert a.users.tobytes() == b.users.tobytes() and a.items.tobytes() == b.items.tobytes()
        da = load_dataset(ExperimentConfig(dataset_path=str(dat), min_count=2, seed=3))
        db = load_dataset(
            ExperimentConfig(dataset_path=csv, dataset_format="csv", min_count=2, seed=3)
        )
        assert (da.num_users, da.num_items) == (db.num_users, db.num_items)
        for field in ("train", "test", "pairs"):
            for x, y in zip(getattr(da, field), getattr(db, field), strict=True):
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize(
        "name, fmt, text",
        [
            ("a.dat", "movielens_dat", "1::2\x0c3::5::0\n"),
            ("a.csv", "csv", "user,item,rating,timestamp\n1,2\x0c3,5,0\n"),
        ],
        ids=["dat", "csv"],
    )
    def test_form_feed_inside_an_id_is_one_record(self, tmp_path, name, fmt, text):
        raw = load_interactions(write(tmp_path, name, text), fmt)
        assert_columns(raw, [0], [0])

    def test_form_feed_does_not_split_a_line(self, tmp_path):
        # one line holding two records: seven "::"-separated fields
        path = write(tmp_path, "a.dat", "1::2::5::0\x0c3::4::5::0\n")
        with pytest.raises(ParseError, match="line 1:"):
            load_interactions(path, "movielens_dat")

    @pytest.mark.parametrize("fmt", ["movielens_dat", "csv"])
    def test_crlf_file_loads_like_its_lf_copy(self, tmp_path, fmt):
        body = "9::b::1::1\n10::a::1::2\n\n9::a::1::3\n2::c::1::4\n"
        if fmt == "csv":
            body = "user,item,rating,timestamp\n" + body.replace("::", ",")
        lf = tmp_path / "lf"
        crlf = tmp_path / "crlf"
        lf.write_bytes(body.encode())
        crlf.write_bytes(body.replace("\n", "\r\n").encode())
        a, b = load_interactions(str(lf), fmt), load_interactions(str(crlf), fmt)
        assert a.users.tobytes() == b.users.tobytes() and a.items.tobytes() == b.items.tobytes()
        assert_columns(a, [0, 1, 0, 2], [0, 1, 1, 2])

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_only_spaces_and_tabs_pad_a_field(self, tmp_path, fmt):
        # str.strip() would take "\x85" as padding and merge the two items
        path = write_records(tmp_path, "a", fmt, [["1", "a\x85", "5", ""], ["1", " a", "4", ""]])
        assert_columns(load_interactions(path, fmt), [0, 0], [0, 1])

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_padded_record_loads_like_its_unpadded_twin(self, tmp_path, fmt):
        plain = [["9", "b", "1", "1"], ["10", "a", "1", ""]]
        padded = [[f" \t{f}  " for f in fields] for fields in plain]
        path = write_records(
            tmp_path, "a", fmt, plain + padded, header=" user\t, item ,rating,timestamp "
        )
        assert_columns(load_interactions(path, fmt), [0, 1, 0, 1], [0, 1, 0, 1])

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, newline):
        path = tmp_path / "a.csv"
        lines = [b"user,item,rating", b"1,10,5", b"1,1\x851,5", b"2,10,5"]
        path.write_bytes(b"".join(line + newline.encode() for line in lines))
        with pytest.raises(ParseError, match=r"a\.csv: line 3: byte 0x85 is not UTF-8 text$"):
            load_interactions(str(path), "csv")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_byte_order_mark_file_loads_like_its_copy_without_one(self, tmp_path, fmt):
        # user 1 comes back on line 3, so a mark kept in the first id would
        # code it as a new user
        records = [["1", "10", "5", ""], ["2", "10", "4", "7"], ["1", "11", "3", ""]]
        plain = write_records(tmp_path, "plain", fmt, records)
        marked = tmp_path / "marked"
        marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain").read_bytes())
        a, b = load_interactions(plain, fmt), load_interactions(str(marked), fmt)
        assert a.users.tobytes() == b.users.tobytes() and a.items.tobytes() == b.items.tobytes()
        assert_columns(b, [0, 1, 0], [0, 0, 1])

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_byte_order_mark_file_bad_byte_names_its_line(self, tmp_path, fmt):
        path = write_records(tmp_path, "a", fmt, [["1", "10", "5", ""], ["1", "1\x851", "5", ""]])
        data = (tmp_path / "a").read_bytes().replace("\x85".encode(), b"\x85")
        (tmp_path / "a").write_bytes(b"\xef\xbb\xbf" + data)
        line = 3 if fmt == "csv" else 2
        with pytest.raises(ParseError, match=rf"a: line {line}: byte 0x85 is not UTF-8 text$"):
            load_interactions(path, fmt)

    @pytest.mark.parametrize("head", [b"\xef", b"\xef\xbb"])
    def test_part_of_a_byte_order_mark_is_not_utf8(self, tmp_path, head):
        path = tmp_path / "a.csv"
        path.write_bytes(head)
        with pytest.raises(ParseError, match=r"a\.csv: line 1: byte 0xef is not UTF-8 text$"):
            load_interactions(str(path), "csv")

    def test_empty_csv_file(self, tmp_path):
        assert len(load_interactions(write(tmp_path, "a.csv", ""), "csv")) == 0

    def test_csv_bad_header(self, tmp_path):
        path = write(tmp_path, "a.csv", "user,item\n1,10\n")
        with pytest.raises(ParseError, match="line 1: expected header"):
            load_interactions(path, "csv")

    def test_file_of_blank_lines_has_no_records(self, tmp_path):
        path = write(tmp_path, "a.dat", "\n \n\t\n\n")
        with pytest.raises(EmptyDatasetError, match="no interaction records"):
            load_dataset(ExperimentConfig(dataset_path=path))

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_interactions("/nonexistent/file.dat", "movielens_dat")


class TestPreprocess:
    def test_min_count_one_keeps_everything(self):
        raw = raw_from_pairs([(1, 1), (1, 2), (2, 1), (3, 3)])
        pre = preprocess(raw, min_count=1)
        assert pre.num_users == 3
        assert pre.num_items == 3
        assert interaction_count(pre) == 4

    def test_fixpoint_toy_instance(self):
        # five core users share items 0-4; user A holds items 0-3 plus a
        # singleton item, so dropping the singleton drops A, which in turn
        # lowers items 0-3 -- a genuine multi-step fixpoint.
        pairs = []
        for u in ("B1", "B2", "B3", "B4", "B5"):
            for i in range(5):
                pairs.append((u, i))
        pairs += [("A", 0), ("A", 1), ("A", 2), ("A", 3), ("A", 5)]
        pre = preprocess(raw_from_pairs(pairs), min_count=5)

        # independent brute-force fixpoint on the toy instance
        keep = set(range(len(pairs)))
        while True:
            ucnt, icnt = {}, {}
            for k in keep:
                u, i = pairs[k]
                ucnt[u] = ucnt.get(u, 0) + 1
                icnt[i] = icnt.get(i, 0) + 1
            drop = {k for k in keep if ucnt[pairs[k][0]] < 5 or icnt[pairs[k][1]] < 5}
            if not drop:
                break
            keep -= drop
        assert interaction_count(pre) == len(keep)
        assert pre.num_users == 5
        assert pre.num_items == 5

    def test_first_appearance_indexing(self):
        raw = raw_from_pairs([(9, 7), (9, 3), (2, 7), (2, 3), (5, 7)])
        pre = preprocess(raw, min_count=1)
        # user 9 appears first -> index 0; item 7 first -> index 0
        assert list(pre.user_items[0]) == [0, 1]
        assert list(pre.user_items[1]) == [0, 1]
        assert list(pre.user_items[2]) == [0]

    def test_all_filtered_is_error(self):
        raw = raw_from_pairs([(1, 1), (2, 2)])
        with pytest.raises(EmptyDatasetError):
            preprocess(raw, min_count=3)

    def test_duplicates_collapse(self):
        raw = raw_from_pairs([(1, 1), (1, 1), (1, 2), (2, 1), (2, 2)])
        pre = preprocess(raw, min_count=1)
        assert interaction_count(pre) == 4

    def test_fixpoint_invariant_random(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(30, 80))
            pairs = {(int(rng.integers(0, 10)), int(rng.integers(0, 12))) for _ in range(n)}
            raw = raw_from_pairs(sorted(pairs))
            try:
                pre = preprocess(raw, min_count=3)
            except EmptyDatasetError:
                continue
            ucnt = np.array([len(v) for v in pre.user_items])
            icnt = np.zeros(pre.num_items, dtype=int)
            for v in pre.user_items:
                icnt[v] += 1
            assert ucnt.min() >= 3
            assert icnt.min() >= 3


class TestSplit:
    def make_pre(self, n_users=5, n_items=30, per_user=10):
        pairs = [(u, (u * 3 + j) % n_items) for u in range(n_users) for j in range(per_user)]
        raw = raw_from_pairs(pairs)
        return preprocess(raw, min_count=1)

    def test_eighty_twenty(self):
        pre = self.make_pre()
        ds = split_and_sample(pre, 0.8, 4, seed=1)
        for u in range(ds.num_users):
            assert len(ds.train[u]) == 8
            assert len(ds.test[u]) == 2

    def test_exact_negative_count(self):
        pre = self.make_pre()
        # (neg_ratio, negatives per positive): each user's 12-item pool caps the draw
        for neg_ratio, per_positive in ((4, 4), (0, 0), (25, 12)):
            ds = split_and_sample(pre, 0.8, neg_ratio, seed=1)
            for u in range(ds.num_users):
                assert ds.pairs[u].shape == (per_positive * len(ds.train[u]), 2)
                assert ds.pairs[u].dtype == np.int64

    def test_partition_and_disjointness(self):
        pre = self.make_pre()
        ds = split_and_sample(pre, 0.8, 4, seed=3)
        for u in range(ds.num_users):
            tr, te = set(ds.train[u]), set(ds.test[u])
            assert not tr & te
            assert len(tr) + len(te) == len(pre.user_items[u])
            positives = tr | te
            assert not positives & set(ds.pairs[u][:, 1].tolist())
            # per-positive draws have no duplicates
            for p in ds.train[u]:
                negs = ds.pairs[u][ds.pairs[u][:, 0] == p][:, 1]
                assert len(negs) == len(set(negs.tolist()))

    def test_single_positive_user_keeps_train(self):
        raw = raw_from_pairs([(0, 0), (1, 0), (1, 1), (0, 1), (2, 2), (2, 0)])
        pre = preprocess(raw, min_count=1)
        ds = split_and_sample(pre, 0.5, 1, seed=0)
        for u in range(ds.num_users):
            assert len(ds.train[u]) >= 1

    def test_scarce_negative_pool(self):
        # 3 users x 3 items, user sees 2 items -> only 1 possible negative
        raw = raw_from_pairs([(u, i) for u in range(3) for i in (u % 3, (u + 1) % 3)])
        pre = preprocess(raw, min_count=1)
        ds = split_and_sample(pre, 0.9, 4, seed=2)
        for u in range(ds.num_users):
            assert set(ds.pairs[u][:, 1].tolist()).isdisjoint(
                set(ds.train[u]) | set(ds.test[u])
            )
            assert len(set(ds.pairs[u][:, 1].tolist())) <= 1

    def test_determinism(self):
        pre = self.make_pre()
        a = split_and_sample(pre, 0.8, 4, seed=9)
        b = split_and_sample(pre, 0.8, 4, seed=9)
        for u in range(a.num_users):
            assert np.array_equal(a.train[u], b.train[u])
            assert np.array_equal(a.test[u], b.test[u])
            assert np.array_equal(a.pairs[u], b.pairs[u])

    def test_bad_args(self):
        pre = self.make_pre()
        with pytest.raises(ContractError):
            split_and_sample(pre, 1.0, 4, seed=0)
        with pytest.raises(ContractError):
            split_and_sample(pre, 0.8, -1, seed=0)


class TestCountOracle:
    def test_fixture_count_matches_independent_filter(self, tmp_path):
        inter = generate_interactions(120, 150, seed=11)
        path = tmp_path / "syn.dat"
        write_movielens_dat(str(path), inter)
        raw = load_interactions(str(path), "movielens_dat")
        pre = preprocess(raw, min_count=5)

        # independent single-pass-per-iteration counting script, over the
        # file's own id strings
        records = [tuple(line.split("::")[:2]) for line in path.read_text().splitlines()]
        alive = list(dict.fromkeys(records))  # dedupe, keep order
        while True:
            ucnt, icnt = {}, {}
            for u, i in alive:
                ucnt[u] = ucnt.get(u, 0) + 1
                icnt[i] = icnt.get(i, 0) + 1
            nxt = [(u, i) for u, i in alive if ucnt[u] >= 5 and icnt[i] >= 5]
            if len(nxt) == len(alive):
                break
            alive = nxt
        assert interaction_count(pre) == len(alive)


class TestSynthetic:
    # sha256 of the written file; a change to the generator's draws or to
    # its shape constants moves every fixture, golden CSV and benchmark world
    @pytest.mark.parametrize(
        "users, items, seed, digest",
        [
            (40, 60, 3, "cef4a5d47c0028c512c682906d2519bcc262d91f899627154020530c3e8c8b8c"),
            (200, 400, 3, "4349c89050f7b676db6e2828f94ad60b858c790b2b0d4e6add72117f9c3b9042"),
        ],
    )
    def test_written_bytes_are_pinned(self, tmp_path, users, items, seed, digest):
        path = tmp_path / "r.dat"
        write_movielens_dat(str(path), generate_interactions(users, items, seed))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_module_cli_writes_the_same_bytes(self, tmp_path, capsys):
        out = tmp_path / "cli.dat"
        assert main(["--users", "40", "--items", "60", "--seed", "3", "--out", str(out)]) == 0
        ref = tmp_path / "ref.dat"
        write_movielens_dat(str(ref), generate_interactions(40, 60, 3))
        assert out.read_bytes() == ref.read_bytes()

    def test_module_cli_has_no_shape_flags(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--users", "4", "--items", "6", "--clusters", "2", "--out", str(tmp_path / "x")])
