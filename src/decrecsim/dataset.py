"""Interaction loading, filtering, binarization, split, and negative sampling.

The pipeline is: load_interactions -> preprocess -> split_and_sample.  The
setting is implicit feedback, so every loaded record is one positive: the
loader checks each rating and timestamp and keeps only the two id columns,
each id coded once, by its first appearance in the file.  The randomized
steps draw from rng.stream keyed by their seed; sample_pairs, the negative
sampler, also builds the adversaries' pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from decrecsim.errors import ContractError, EmptyDatasetError, ParseError
from decrecsim.rng import stream

FORMATS = ("movielens_dat", "csv")
# Padding in every text input (ratings fields and lines, config and flag
# keys and values) is ASCII spaces and tabs only; str.strip() would also
# drop "\x85", "\x0c" and other separators.
PAD = " \t"


@dataclass
class RawInteractions:
    """Parsed interactions in file order: record k is (users[k], items[k]).

    Each column is int64, and codes its ids 0, 1, ... in the order they
    first appear in the file.
    """

    users: np.ndarray  # (n,) int64
    items: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.users)


@dataclass
class Precursor:
    """Filtered, binarized, densely re-indexed interactions (pre-split).

    ``user_items[u]`` holds user u's distinct positive items in first
    interaction order.  Indices are dense, assigned by first appearance in
    the surviving records.
    """

    num_users: int
    num_items: int
    user_items: list[np.ndarray]


@dataclass
class Dataset:
    """Per-user local datasets after split and negative sampling.

    ``pairs[u]`` is an (n, 2) int array of (train positive, sampled negative)
    rows.  Train/test are sorted index arrays.
    """

    num_users: int
    num_items: int
    train: list[np.ndarray]
    test: list[np.ndarray]
    pairs: list[np.ndarray]


def read_text(path: str) -> str:
    """A UTF-8 file's text, with universal newlines and no byte-order mark;
    errors name the path, and a byte that is not UTF-8 its 1-based line."""
    try:
        # "utf-8-sig" would read a file holding part of a mark as empty text
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.object is all of it
        head = exc.object[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = head.count(b"\n") + 1
        bad = exc.object[exc.start]
        raise ParseError(f"{path}: line {lineno}: byte 0x{bad:02x} is not UTF-8 text") from None


def load_interactions(path: str, fmt: str) -> RawInteractions:
    """Parse a ratings file into RawInteractions.

    movielens_dat lines are ``user::item::rating::timestamp``; csv files have
    a ``user,item,rating[,timestamp]`` header; spaces and tabs around a
    field are padding.  Every record needs nonempty ids, a finite numeric
    rating and an integer or empty timestamp; a malformed line, or a byte
    that is not UTF-8, raises ParseError naming its 1-based line number.
    """
    text = read_text(path)
    # Lines end at "\n" alone, which read_text also makes of "\r\n" and
    # "\r"; str.splitlines would break at "\f", "\x1c" and others.
    lines = text.split("\n") if text else []

    records = _dat_fields(path, lines) if fmt == "movielens_dat" else _csv_fields(path, lines)
    user_codes: dict[str, int] = {}
    item_codes: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    for lineno, (user, item, rating, timestamp) in records:
        user, item = user.strip(PAD), item.strip(PAD)
        rating, timestamp = rating.strip(PAD), timestamp.strip(PAD)
        _check_record(path, lineno, user, item, rating, timestamp)
        users.append(user_codes.setdefault(user, len(user_codes)))
        items.append(item_codes.setdefault(item, len(item_codes)))
    return RawInteractions(np.array(users, dtype=np.int64), np.array(items, dtype=np.int64))


def _dat_fields(path: str, lines: list[str]):
    """(line number, its four fields) per nonempty movielens_dat line."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip(PAD):
            continue
        parts = line.split("::")
        if len(parts) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 '::'-separated fields")
        yield lineno, parts


def _csv_fields(path: str, lines: list[str]):
    """(line number, its four fields, an absent timestamp as "") per
    nonempty csv record line, after checking the header."""
    if not lines:
        return
    header = [h.strip(PAD).lower() for h in lines[0].split(",")]
    if header not in (["user", "item", "rating"], ["user", "item", "rating", "timestamp"]):
        raise ParseError(f"{path}: line 1: expected header 'user,item,rating[,timestamp]'")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip(PAD):
            continue
        parts = line.split(",")
        if len(parts) not in (3, 4):
            raise ParseError(f"{path}: line {lineno}: expected 3 or 4 comma-separated fields")
        yield lineno, parts if len(parts) == 4 else parts + [""]


def _check_record(
    path: str, lineno: int, user: str, item: str, rating: str, timestamp: str
) -> None:
    if not user or not item:
        raise ParseError(f"{path}: line {lineno}: empty user or item id")
    try:
        r = float(rating)
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: non-numeric rating {rating!r}") from None
    if not math.isfinite(r):
        raise ParseError(f"{path}: line {lineno}: non-finite rating {rating!r}")
    if timestamp != "":
        try:
            int(timestamp)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-integer timestamp {timestamp!r}") from None


def preprocess(raw: RawInteractions, min_count: int) -> Precursor:
    """Filter sparse users/items to a fixpoint, binarize, and re-index densely.

    Exact duplicate (user, item) records are collapsed to their first
    occurrence before counting.  Filtering removes users and items with fewer
    than min_count interactions and iterates until none remain, since
    removing a user can drop an item below the threshold and vice versa.
    Dense indices follow first appearance order in the surviving records.
    """
    if not len(raw):
        raise EmptyDatasetError("no interaction records to preprocess")

    # Drop duplicate (user, item) pairs, keeping the first occurrence.
    num_users, num_items = raw.users.max() + 1, raw.items.max() + 1
    pair_key = raw.users * num_items + raw.items
    _, first_pos = np.unique(pair_key, return_index=True)
    keep = np.zeros(len(raw), dtype=bool)
    keep[first_pos] = True

    # Drop sparse users and items until none are left.
    u = raw.users[keep]
    i = raw.items[keep]
    alive = np.ones(len(u), dtype=bool)
    while True:
        u_counts = np.bincount(u[alive], minlength=num_users)
        i_counts = np.bincount(i[alive], minlength=num_items)
        bad = alive & ((u_counts[u] < min_count) | (i_counts[i] < min_count))
        if not bad.any():
            break
        alive &= ~bad
        if not alive.any():
            raise EmptyDatasetError(f"min_count={min_count} filtered out every interaction")
    return _reindex(u[alive], i[alive])


def _reindex(u: np.ndarray, i: np.ndarray) -> Precursor:
    """Densely re-index surviving (user, item) code pairs by first appearance."""
    dense = []
    for codes in (u, i):
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        dense.append(rank[inverse.ravel()])
    u_new, i_new = dense
    num_users, num_items = int(u_new.max()) + 1, int(i_new.max()) + 1
    # A stable sort by user keeps each user's items in record order.
    by_user = i_new[np.argsort(u_new, kind="stable")]
    bounds = np.cumsum(np.bincount(u_new, minlength=num_users))[:-1]
    return Precursor(
        num_users=num_users, num_items=num_items, user_items=np.split(by_user, bounds)
    )


def split_and_sample(
    pre: Precursor, train_ratio: float, neg_ratio: int, seed: int
) -> Dataset:
    """Split positives into train/test and sample negatives per train positive.

    Per user u, stream(seed, u) draws a uniform-random train_ratio fraction
    of positives (rounded down, minimum 1) as train, the rest being test;
    sample_pairs then draws each train positive's negatives from the user's
    never-interacted items with the same generator.
    """
    if not (0.0 < train_ratio < 1.0):
        raise ContractError("train_ratio must be in (0, 1)")

    train: list[np.ndarray] = []
    test: list[np.ndarray] = []
    pairs: list[np.ndarray] = []
    for u in range(pre.num_users):
        positives = pre.user_items[u]
        rng = stream(seed, u)
        perm = rng.permutation(len(positives))
        n_train = max(1, int(len(positives) * train_ratio))
        tr = np.sort(positives[perm[:n_train]])
        te = np.sort(positives[perm[n_train:]])
        pool = np.flatnonzero(np.bincount(positives, minlength=pre.num_items) == 0)
        train.append(tr)
        test.append(te)
        pairs.append(sample_pairs(tr, pool, neg_ratio, rng))
    return Dataset(
        num_users=pre.num_users,
        num_items=pre.num_items,
        train=train,
        test=test,
        pairs=pairs,
    )


def sample_pairs(
    positives: np.ndarray, pool: np.ndarray, neg_ratio: int, rng: np.random.Generator
) -> np.ndarray:
    """(positive, negative) rows: each positive in turn draws
    min(neg_ratio, len(pool)) negatives from pool without replacement, so
    the negatives form a multiset.  Nothing to draw gives an empty (0, 2)
    int64 array and leaves rng untouched."""
    if neg_ratio < 0:
        raise ContractError("neg_ratio must be >= 0")
    k = min(neg_ratio, len(pool))
    if k == 0 or len(positives) == 0:
        return np.empty((0, 2), dtype=np.int64)
    draws = [rng.choice(len(pool), size=k, replace=False) for _ in range(len(positives))]
    return np.column_stack([np.repeat(positives, k), pool[np.concatenate(draws)]])
