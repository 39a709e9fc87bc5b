"""Implicit-feedback interaction data: loading, sparse indices, and splits.

An InteractionSet stores a deduplicated set of positive (user, item) pairs
together with both adjacency directions: the sorted item list per user and
the sorted user list per item.  Split generation is seeded and fully
deterministic; split directories can also be loaded verbatim so published
benchmark splits are consumed bit-exactly.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import os
import sys
import warnings
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InputError

log = logging.getLogger(__name__)


class ParseError(InputError):
    """A malformed row in an input file; message carries the line number."""


class EmptyDataset(InputError):
    """No interaction survived loading/filtering."""


class InsufficientUsers(InputError):
    """Not enough eligible users to build the requested split."""


class UserTooSparse(InputError):
    """Users with too few interactions for leave-one-out; lists offenders."""

    def __init__(self, users):
        self.users = list(users)
        shown = ", ".join(str(u) for u in self.users[:20])
        more = "" if len(self.users) <= 20 else f" (+{len(self.users) - 20} more)"
        super().__init__(
            f"{len(self.users)} users have fewer than 2 interactions: {shown}{more}"
        )


@dataclass(frozen=True)
class InteractionSet:
    """Sparse binary user-item interactions with both adjacency directions.

    user_ptr/user_items form a CSR-style index over users (items sorted
    ascending within each user); item_ptr/item_users are the exact
    transpose.  timestamps, when present, align with user_items.
    """

    num_users: int
    num_items: int
    user_ptr: np.ndarray
    user_items: np.ndarray
    item_ptr: np.ndarray
    item_users: np.ndarray
    timestamps: np.ndarray | None = None
    user_ids: np.ndarray | None = field(default=None, compare=False)
    item_ids: np.ndarray | None = field(default=None, compare=False)

    @classmethod
    def from_pairs(cls, users, items, num_users=None, num_items=None,
                   timestamps=None, user_ids=None, item_ids=None) -> "InteractionSet":
        """Build an InteractionSet from parallel index arrays.

        Duplicate pairs are collapsed (keeping the latest timestamp).
        Indices must be non-negative and, when num_users/num_items are
        given, strictly below them.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape or users.ndim != 1:
            raise InputError("users and items must be 1-d arrays of equal length")
        if timestamps is not None:
            timestamps = np.asarray(timestamps, dtype=np.float64)
            if timestamps.shape != users.shape:
                raise InputError("timestamps must align with the pair arrays")
        if users.size and (users.min() < 0 or items.min() < 0):
            raise InputError("negative user or item index")

        max_u = int(users.max()) + 1 if users.size else 0
        max_i = int(items.max()) + 1 if items.size else 0
        num_users = max_u if num_users is None else int(num_users)
        num_items = max_i if num_items is None else int(num_items)
        if max_u > num_users or max_i > num_items:
            raise InputError(
                f"index out of range: max user {max_u - 1} / max item {max_i - 1} "
                f"for shape {num_users}x{num_items}"
            )

        # Equal keys are equal pairs, so only timestamps make the order
        # within a run of one key matter: then sort them last within each
        # run, so that dedup keeps the latest.
        key = users * num_items + items
        order = np.argsort(key)
        key = key[order]
        last = np.ones(key.size, dtype=bool)  # the last of each run of one key
        last[:-1] = key[1:] != key[:-1]
        del key
        if timestamps is not None and not last.all():
            order = np.lexsort((timestamps, users * num_items + items))
        kept = order[last]
        users, items = users[kept], items[kept]
        if timestamps is not None:
            timestamps = timestamps[kept]

        user_ptr = np.zeros(num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=num_users), out=user_ptr[1:])

        # pairs are unique now, so sorting (item, user) keys needs no stable sort
        item_users = users[np.argsort(items * num_users + users)]
        item_ptr = np.zeros(num_items + 1, dtype=np.int64)
        np.cumsum(np.bincount(items, minlength=num_items), out=item_ptr[1:])

        return cls(
            num_users=num_users,
            num_items=num_items,
            user_ptr=user_ptr,
            user_items=items,
            item_ptr=item_ptr,
            item_users=item_users,
            timestamps=timestamps,
            user_ids=None if user_ids is None else np.asarray(user_ids, dtype=object),
            item_ids=None if item_ids is None else np.asarray(item_ids, dtype=object),
        )

    @property
    def num_pairs(self) -> int:
        return int(self.user_items.size)

    @property
    def user_counts(self) -> np.ndarray:
        """|I(u)| for every user."""
        return np.diff(self.user_ptr)

    @property
    def item_counts(self) -> np.ndarray:
        """|U(i)| for every item."""
        return np.diff(self.item_ptr)

    def items_of(self, u: int) -> np.ndarray:
        """Sorted item indices I(u)."""
        return self.user_items[self.user_ptr[u]:self.user_ptr[u + 1]]

    def rows(self, users) -> tuple[np.ndarray, np.ndarray]:
        """(ptr, items): the CSR of items_of(u) for each u of users, in order."""
        users = np.asarray(users, dtype=np.int64)
        starts, counts = self.user_ptr[users], self.user_counts[users]
        ptr = np.concatenate(([0], np.cumsum(counts)))
        return ptr, self.user_items[np.arange(ptr[-1]) + np.repeat(starts - ptr[:-1], counts)]

    def timestamps_of(self, u: int) -> np.ndarray | None:
        if self.timestamps is None:
            return None
        return self.timestamps[self.user_ptr[u]:self.user_ptr[u + 1]]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All pairs as parallel (users, items) arrays, grouped by user."""
        users = np.repeat(np.arange(self.num_users, dtype=np.int64), self.user_counts)
        return users, self.user_items.copy()


@dataclass(frozen=True)
class StrongGeneralizationSplit:
    """Evaluation users are absent from train; part of their history is revealed.

    fold_in holds the evaluation users' revealed (user, item) pairs and
    target their hidden ones, both over train's users and items.
    """

    train: InteractionSet
    fold_in: InteractionSet
    target: InteractionSet

    @property
    def users(self) -> np.ndarray:
        """The evaluation users, ascending: those with fold-in and target items."""
        return np.flatnonzero((self.fold_in.user_counts > 0) & (self.target.user_counts > 0))


@dataclass(frozen=True)
class LeaveOneOutSplit:
    """One held-out item per user, ranked against sampled negative items."""

    train: InteractionSet
    users: np.ndarray
    holdout: np.ndarray
    negatives: np.ndarray  # (len(users), n_negatives)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

_COLUMN_NAMES = {"user", "item", "rating", "time", "skip"}

# Characters of text handed to numpy's reader at once, and fields formatted
# per call when writing: large files are streamed in pieces of this size
# instead of being held as Python objects all at once.
_BLOCK_CHARS = 1 << 18
_BLOCK_FIELDS = 1 << 17


def _parse_columns(columns: str) -> dict[str, int]:
    names = [c.strip() for c in columns.split(",")]
    bad = [c for c in names if c not in _COLUMN_NAMES]
    if bad:
        raise InputError(f"unknown column names {bad}; valid: {sorted(_COLUMN_NAMES)}")
    pos = {name: idx for idx, name in enumerate(names) if name != "skip"}
    repeated = sorted(name for name in pos if names.count(name) > 1)
    if repeated:
        raise InputError(f"column names given more than once: {repeated}")
    if "user" not in pos or "item" not in pos:
        raise InputError("column list must include 'user' and 'item'")
    return pos


def _blocks(path):
    """(first line number, text) of a text file, plain or .gz: line 1, then
    pieces of about _BLOCK_CHARS characters of whole lines.

    Raises InputError when the file cannot be opened or read, or is not
    UTF-8.
    """
    try:
        with (gzip.open(path, "rt", encoding="utf-8") if str(path).endswith(".gz")
              else open(path, encoding="utf-8")) as fh:
            lineno, block = 1, fh.readline()
            while block:
                yield lineno, block
                lineno += block.count("\n")
                if block := fh.read(_BLOCK_CHARS):
                    block += fh.readline()
    except (OSError, EOFError) as exc:  # EOFError: a truncated .gz
        raise InputError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _int_block(block: str, seps: str, canonical=()) -> np.ndarray:
    """A block of lines that is a clean integer table, as an (n, width) int64 array.

    Clean, as one byte scan finds: nothing but ASCII digits, the
    one-character separators in seps and "\n"; every line as wide as the
    first; fields of 1 to 18 digits (np.fromstring silently reads a longer
    one that overflows as 2**63 - 1); and in the `canonical` columns no
    leading zero but in "0", so that str() of each value there is its
    text.  One np.fromstring call then parses the block.  Raises
    ValueError for any other block.
    """
    table = bytearray(b"!" * 256)  # "!": not a byte of a clean block
    table[ord("0"):ord("9") + 1] = b"0123456789"
    table[ord("\n")] = ord("\n")
    for sep in seps:
        if not sep.isascii() or sep in "0123456789\n":
            raise ValueError(f"separator {sep!r} cannot be scanned")
        table[ord(sep)] = ord(" ")
    text = block.encode().translate(table)  # UTF-8: other characters become "!"
    if not text.endswith(b"\n"):
        text += b"\n"
    codes = np.frombuffer(text, dtype=np.uint8)
    if codes.size >= 2 ** 31:   # field bounds are int32 below
        raise ValueError("block too long to scan")
    stops = np.flatnonzero(codes < ord("0")).astype(np.int32)  # the byte after each field
    lengths = np.diff(stops, prepend=np.int32(-1)) - 1
    ends = codes[stops]
    newline = ends == ord("\n")
    width = int(np.argmax(newline)) + 1
    if ((ends == ord("!")).any() or lengths.min() < 1 or lengths.max() > 18
            or stops.size != width * np.count_nonzero(newline)
            or not newline[width - 1::width].all()):
        raise ValueError("not a clean integer table")
    if canonical:
        padded = ((codes[stops - lengths] == ord("0")) & (lengths > 1)).reshape(-1, width)
        if padded[:, [j for j in canonical if j < width]].any():
            raise ValueError("an id with a leading zero")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.fromstring(text, dtype=np.int64, sep=" ")
        except Warning as exc:  # a numpy that warns here: fall back rather than misread
            raise ValueError(f"np.fromstring warned: {exc}") from exc
    if values.size != stops.size:
        raise ValueError("np.fromstring read another number of values")
    return values.reshape(-1, width)


def _table_rows(columns: list[np.ndarray], pos: dict[str, int], min_rating: float | None,
                timed: bool):
    """Kept rows of a table given as its columns.

    Returns what _interaction_lines returns for the same rows, with keys
    as arrays that do not keep the table alive.  Raises ValueError when
    the rows are too short for the columns, or min_rating is set and they
    have no rating field: rows that _interaction_lines rejects with their
    line number.
    """
    width, rpos = len(columns), pos.get("rating")
    if (width <= max(pos["user"], pos["item"])
            or min_rating is not None and rpos >= width):
        raise ValueError("short rows")
    users = columns[pos["user"]]
    keep = np.ones(users.size, dtype=bool) if min_rating is None else ~(columns[rpos] < min_rating)
    users, items = users[keep], columns[pos["item"]][keep]
    times = np.empty(0)
    if timed and pos["time"] < width:
        times = columns[pos["time"]][keep].astype(np.float64)
    elif timed and users.size:
        timed = False
    return users, items, times, timed


def _interaction_table(block: str, pos: dict[str, int], delimiter: str,
                       min_rating: float | None, timed: bool):
    """Kept rows of a block of raw lines that all have the same number of fields.

    Returns what _interaction_lines returns for the block, keys as object
    arrays.  Raises ValueError for any other block: ragged rows or a row
    that _interaction_lines would reject.  numpy's float parser is
    stricter than float(), so a number it rejects only sends the block
    down the line-by-line path.
    """
    width = block.lstrip("\n").partition("\n")[0].count(delimiter) + 1
    numeric = {pos.get("rating"), pos["time"] if timed else None}
    with warnings.catch_warnings():
        # it warns when the text holds only empty lines
        warnings.simplefilter("ignore", UserWarning)
        table = np.loadtxt(io.StringIO(block), delimiter=delimiter, comments=None,
                           quotechar=None, ndmin=1,
                           dtype=[(f"f{j}", np.float64 if j in numeric else object)
                                  for j in range(width)])
    return _table_rows([table[name] for name in table.dtype.names], pos, min_rating, timed)


def _interaction_lines(block: str, lineno: int, path, pos: dict[str, int],
                       delimiter: str, min_rating: float | None, timed: bool):
    """Parse a block of raw lines one at a time; it starts at file line `lineno`.

    Returns (user keys, item keys, times, timed) of the kept rows, in
    file order; blank lines and rows under min_rating are not kept.
    timed says whether every kept row so far has had a time field; times
    are read, and checked, only up to the first kept row without one.

    Raises ParseError naming the first bad line.
    """
    need = max(pos["user"], pos["item"]) + 1
    rpos = pos.get("rating")
    users, items, times = [], [], []
    for lineno, line in enumerate(block.split("\n"), start=lineno):
        if not line:
            continue
        fields = line.split(delimiter)
        try:
            if len(fields) < need:
                raise ValueError(f"expected at least {need} fields, got {len(fields)}")
            if min_rating is not None:
                if rpos >= len(fields):
                    raise ValueError("rating threshold set but no rating field")
                if float(fields[rpos]) < min_rating:
                    continue
            elif rpos is not None and rpos < len(fields):
                float(fields[rpos])  # validate when present
            if timed and pos["time"] < len(fields):
                times.append(float(fields[pos["time"]]))
            else:
                timed = False
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: {exc}") from exc
        users.append(fields[pos["user"]])
        items.append(fields[pos["item"]])
    return users, items, np.array(times, dtype=np.float64), timed


def _one_char(block: str, delimiter: str) -> tuple[str, str]:
    """block and delimiter, with a multi-character delimiter replaced by the
    first character that is not in the block, whitespace or a digit.

    str.replace and str.split both cut left to right without overlap, so
    every line splits into the same fields as with the delimiter.
    """
    if len(delimiter) == 1:
        return block, delimiter
    sep = next(c for c in map(chr, range(1, sys.maxunicode + 1))
               if not (c.isspace() or c.isdigit()) and c not in block)
    return block.replace(delimiter, sep), sep


def _codes(index: dict[str, int], keys: list[str]) -> np.ndarray:
    """Contiguous indices of keys; unseen keys are numbered in order of appearance."""
    for key in dict.fromkeys(keys):
        index.setdefault(key, len(index))
    return np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))


class _IdCodes:
    """Contiguous indices of one side's external ids, read a block at a time.

    Ids are numbered in order of first appearance and keyed by their text;
    an int64 id by str(id), which is its text in the file.  Blocks of
    int64 ids wait and are coded together by one np.unique, so that each
    distinct id becomes text once, not once in every block it occurs in.
    """

    def __init__(self):
        self.index: dict[str, int] = {}
        self._coded: list[np.ndarray] = []
        self._waiting: list[np.ndarray] = []

    def add(self, keys) -> None:
        """Take the next block's keys: str (a list or an object array) or int64 ids."""
        if isinstance(keys, np.ndarray):
            if keys.dtype == np.int64:
                self._waiting.append(keys)
                return
            keys = keys.tolist()
        self._code_waiting()
        self._coded.append(_codes(self.index, keys))

    def codes(self) -> np.ndarray:
        """Indices of every key taken so far, in order; takes them out."""
        self._code_waiting()
        coded, self._coded = self._coded, []
        return np.concatenate([np.empty(0, dtype=np.int64), *coded])

    def _code_waiting(self) -> None:
        if not self._waiting:
            return
        keys = np.concatenate(self._waiting)
        self._waiting = []
        ids, inverse = np.unique(keys, return_inverse=True)
        first = np.full(ids.size, keys.size)
        np.minimum.at(first, inverse, np.arange(keys.size))  # twice as fast as return_index
        order = np.argsort(first)
        codes = np.empty(ids.size, dtype=np.int64)
        codes[order] = _codes(self.index, list(map(str, ids[order].tolist())))
        self._coded.append(codes[inverse])


def load_interactions(path, *, delimiter: str | None = None,
                      columns: str = "user,item,rating,time",
                      min_rating: float | None = None) -> InteractionSet:
    """Load an interaction file into an InteractionSet.

    The file holds one interaction per row with at least (user, item)
    fields; rating and timestamp fields are used when present in the
    column list and the row.  A first line that does not parse is a
    header.  External ids are mapped to contiguous 0-based indices in
    first-appearance order and kept on the result (user_ids/item_ids).
    Duplicate pairs are collapsed.  Timestamps are kept only when every
    kept row has one.

    Args:
        path: csv/tsv file, optionally gzip-compressed.
        delimiter: field separator; default is tab for .tsv files and
            comma otherwise.  Multi-character separators (e.g. "::") work.
            Ids are compared as text: "007" and "7" are two ids.
        columns: comma-separated positional names out of
            user,item,rating,time,skip; only skip may repeat.
        min_rating: when set (not NaN), rows with rating < min_rating are
            dropped (binarization threshold); default keeps every row.

    Raises:
        InputError: bad delimiter, column list or min_rating (NaN, or set
            without a rating column).
        ParseError: malformed row (with its line number).
        EmptyDataset: nothing survived filtering.
    """
    if delimiter is None:
        base = str(path)[:-3] if str(path).endswith(".gz") else str(path)
        delimiter = "\t" if base.endswith(".tsv") else ","
    if not delimiter or "\n" in delimiter or "\r" in delimiter:
        raise InputError(f"delimiter must be non-empty and on one line, got {delimiter!r}")
    if min_rating is not None and np.isnan(min_rating):
        raise InputError("min_rating must not be NaN")
    pos = _parse_columns(columns)
    if min_rating is not None and "rating" not in pos:
        raise InputError(f"min_rating needs a rating column, got columns {columns!r}")

    users, items, times = _IdCodes(), _IdCodes(), []
    timed = "time" in pos
    head = None   # line 1 while it is the only row that is not clean integers

    for start, text in _blocks(path):
        block, sep = _one_char(text, delimiter)
        scanned = False
        try:
            try:
                # int64 keys, canonical ids ("007" is not "7"); no name holds the table
                rows = _table_rows(list(_int_block(block, sep, (pos["user"], pos["item"])).T),
                                   pos, min_rating, timed)
                scanned = True
            except ValueError:
                try:
                    rows = _interaction_table(block, pos, sep, min_rating, timed)
                except ValueError:
                    rows = _interaction_lines(block, start, path, pos, sep, min_rating, timed)
        except ParseError:
            if start > 1:
                raise
            log.debug("treating first line of %s as a header", path)
            continue
        u_keys, i_keys, block_times, timed = rows
        if not scanned and start == 1 and len(u_keys):
            head = text.rstrip("\n")
        elif not scanned:
            head = None
        users.add(u_keys)
        items.add(i_keys)
        times.append(block_times)

    user_codes = users.codes()
    if not user_codes.size:
        raise EmptyDataset(f"no interactions loaded from {path}")
    if head is not None and start > 1:
        log.warning("%s: line 1 %r is read as a row, though every later line is "
                    "integers; is it a header?", path, head)
    times = np.concatenate(times) if timed else None

    return InteractionSet.from_pairs(
        user_codes,
        items.codes(),
        num_users=len(users.index),
        num_items=len(items.index),
        timestamps=times,
        user_ids=list(users.index),
        item_ids=list(items.index),
    )


# ---------------------------------------------------------------------------
# split generation
# ---------------------------------------------------------------------------

def strong_generalization_split(data: InteractionSet, n_holdout_users: int,
                                n_validation_users: int, fold_in_fraction: float = 0.8,
                                min_user_interactions: int = 0, seed: int = 0,
                                ) -> tuple[StrongGeneralizationSplit, StrongGeneralizationSplit]:
    """Split off validation and test users whose interactions leave the train set.

    Evaluation users are sampled uniformly without replacement among users
    with enough interactions.  Per user, ceil(fold_in_fraction * |I(u)|)
    interactions are revealed at evaluation time (fold-in) and the rest are
    ranking targets; the within-user partition is a seeded uniform shuffle.
    Items that never occur in the remaining train set are dropped from the
    evaluation users' lists afterwards.

    Returns (validation split, test split); both share one train set of pairs only.

    Raises:
        InsufficientUsers: fewer eligible users than requested.
    """
    if not 0.0 < fold_in_fraction < 1.0:
        raise InputError("fold_in_fraction must be in (0, 1)")
    n_holdout_users = int(n_holdout_users)
    n_validation_users = int(n_validation_users)
    if n_holdout_users < 1:
        raise InputError("n_holdout_users must be >= 1")
    if n_validation_users < 0:
        raise InputError("n_validation_users must be >= 0")

    counts = data.user_counts
    # A user is only usable if ceil(f*n) < n, i.e. at least one interaction
    # is left over as a ranking target.  Evaluate the ceil directly (same
    # float expression as the partition below) rather than a closed form.
    has_target = np.ceil(fold_in_fraction * counts) < counts
    eligible = np.flatnonzero(has_target & (counts >= int(min_user_interactions)))
    n_eval = n_holdout_users + n_validation_users
    if eligible.size < n_eval or n_eval >= data.num_users:
        raise InsufficientUsers(
            f"need {n_eval} evaluation users with >= {min_user_interactions} "
            f"interactions and a non-empty target at fold-in fraction "
            f"{fold_in_fraction}, found {eligible.size} of {data.num_users}"
        )

    rng = np.random.default_rng(seed)
    chosen = rng.choice(eligible, size=n_eval, replace=False)
    val_users = np.sort(chosen[:n_validation_users])
    test_users = np.sort(chosen[n_validation_users:])

    is_eval = np.zeros(data.num_users, dtype=bool)
    is_eval[chosen] = True
    all_u, all_i = data.pairs()
    keep = ~is_eval[all_u]
    train = InteractionSet.from_pairs(all_u[keep], all_i[keep],
                                      num_users=data.num_users, num_items=data.num_items)
    in_train_vocab = train.item_counts > 0

    def build(users: np.ndarray) -> StrongGeneralizationSplit:
        # a seeded shuffle of each user's items; the first ceil(f * n) are revealed
        shuffled = [np.empty(0, dtype=np.int64)]
        for u in users:
            row = data.items_of(u)
            shuffled.append(row[rng.permutation(row.size)])
        n = counts[users]
        pair_users, items = np.repeat(users, n), np.concatenate(shuffled)
        revealed = (np.arange(items.size) - np.repeat(np.cumsum(n) - n, n)
                    < np.repeat(np.ceil(fold_in_fraction * n), n))
        # keep the items train knows, and the users left with both sides
        known = in_train_vocab[items]
        usable = np.ones(data.num_users, dtype=bool)
        for side in (revealed, ~revealed):
            usable &= np.bincount(pair_users[known & side], minlength=data.num_users) > 0
        if dropped := users.size - int(usable.sum()):
            log.warning(
                "dropped %d evaluation users whose fold-in or target emptied "
                "after restricting to the train item vocabulary", dropped)
        keep = known & usable[pair_users]
        fold_in, target = (InteractionSet.from_pairs(
            pair_users[keep & side], items[keep & side],
            num_users=data.num_users, num_items=data.num_items) for side in (revealed, ~revealed))
        return StrongGeneralizationSplit(train=train, fold_in=fold_in, target=target)

    return build(val_users), build(test_users)


def leave_one_out_split(data: InteractionSet, n_negatives: int = 100, seed: int = 0,
                        allow_seen_negatives: bool = False,
                        skip_sparse_users: bool = False) -> LeaveOneOutSplit:
    """Hold out one item per user and sample negative candidates.

    The held-out item is the user's latest by timestamp when timestamps
    exist (first-occurring maximum on ties), otherwise a seeded uniform
    draw.  Negatives are sampled uniformly without replacement from items
    that are not the holdout and, unless allow_seen_negatives, not among
    the user's interactions.  With skip_sparse_users, a user with fewer
    than 2 interactions gets no holdout and keeps them in train, which
    holds pairs only, as a reloaded one does: no timestamps or ids.

    Raises:
        UserTooSparse: some user has fewer than 2 interactions and
            skip_sparse_users is off.
        InputError: n_negatives < 1, or not enough candidate items to
            sample negatives from.
    """
    if n_negatives < 1:
        raise InputError("n_negatives must be >= 1")
    sparse = data.user_counts < 2
    if sparse.any() and not skip_sparse_users:
        raise UserTooSparse(np.flatnonzero(sparse).tolist())

    rng = np.random.default_rng(seed)
    num_items = data.num_items
    users = np.flatnonzero(~sparse).astype(np.int64)
    # candidate items per user: all but the user's own, or all but the holdout
    pool = num_items - np.where(allow_seen_negatives, 1, data.user_counts[users])
    short = np.flatnonzero(pool < n_negatives)
    if short.size:
        raise InputError(f"user {users[short[0]]}: only {pool[short[0]]} candidate "
                         f"items for {n_negatives} negatives")
    holdout = np.empty(users.size, dtype=np.int64)
    negatives = np.empty((users.size, n_negatives), dtype=np.int64)
    item_pool = np.arange(num_items, dtype=np.int64)

    for idx, u in enumerate(users):
        row = data.items_of(u)
        ts = data.timestamps_of(u)
        held = row[int(np.argmax(ts)) if ts is not None else int(rng.integers(row.size))]
        holdout[idx] = held

        blocked = held if allow_seen_negatives else row   # row includes the holdout
        negatives[idx] = rng.choice(np.delete(item_pool, blocked), size=n_negatives,
                                    replace=False)

    all_u, all_i = data.pairs()
    held_of = np.full(data.num_users, -1, dtype=np.int64)
    held_of[users] = holdout
    keep = all_i != held_of[all_u]
    train = InteractionSet.from_pairs(all_u[keep], all_i[keep],
                                      num_users=data.num_users, num_items=data.num_items)
    return LeaveOneOutSplit(train=train, users=users, holdout=holdout, negatives=negatives)


# ---------------------------------------------------------------------------
# split directory I/O
# ---------------------------------------------------------------------------

STRONG_GEN_FILES = ("train.csv", "validation_fold_in.csv", "validation_target.csv",
                    "test_fold_in.csv", "test_target.csv")
LOO_FILES = ("train.csv", "test_holdout.csv", "test_negatives.csv")


def _write_table(path, table: np.ndarray) -> None:
    """Write the rows of a 2-d table as comma-separated lines."""
    rows = max(1, _BLOCK_FIELDS // table.shape[1])
    line = ",".join(["{}"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(table), rows):
            block = table[start:start + rows]
            fh.write((line * len(block)).format(*block.ravel().tolist()))


def _int_lines(block: str, lineno: int, path, width: int | None) -> np.ndarray:
    """Rows of a block of split-file lines read one at a time with int();
    the block starts at file line `lineno`.

    Lines blank after strip() are skipped, so whitespace-only lines and
    number forms numpy lacks (such as "1_000") stay legal.  A line 1 that
    is not integers is a header.  Raises ParseError naming the first line
    that is not a row of `width` non-negative int64 integers (width None: as
    many as the first row, at least 2).
    """
    rows = []
    for lineno, line in enumerate(block.split("\n"), start=lineno):
        if not line.strip():
            continue
        try:
            row = [int(f) for f in line.replace("\t", ",").split(",")]
        except ValueError:
            if lineno == 1:
                continue  # header
            reason = f"expected integers separated by commas or tabs, got {line!r}"
        else:
            if width is None and len(row) < 2:
                reason = f"expected at least 2 fields, got {len(row)}"
            elif len(row) != (width := width or len(row)):
                reason = f"expected {width} fields, got {len(row)}"
            elif min(row) < 0:
                reason = "negative id"
            elif max(row) > np.iinfo(np.int64).max:
                reason = "id too large"
            else:
                rows.append(row)
                continue
        raise ParseError(f"{path} line {lineno}: {reason}")
    return np.array(rows, dtype=np.int64)


def _read_int_table(path, width: int | None = None, may_be_empty: bool = False) -> np.ndarray:
    """Rows of a split file as an (n, width) int64 array.

    Fields are non-negative integers separated by commas or tabs; blank
    lines are skipped and a first line that does not parse is a header.
    Every row has `width` fields; width None takes the first row's, which
    must be at least 2.

    Raises:
        ParseError: a bad row, naming the file and its 1-based line.
        InputError: the file has no rows, unless may_be_empty.
    """
    parts = []
    for start, block in _blocks(path):
        try:
            rows = _int_block(block, ",\t")
            if rows.shape[1] != (width or max(rows.shape[1], 2)):
                raise ValueError("bad width")
        except ValueError:
            rows = _int_lines(block, start, path, width)
        if rows.size:
            parts.append(rows)
            width = rows.shape[1]
    if not parts:
        if may_be_empty:
            return np.empty((0, width or 2), dtype=np.int64)
        raise InputError(f"{path}: no rows")
    return np.concatenate(parts)


def write_id_maps(out_dir, data: InteractionSet) -> None:
    """Persist external-id maps as (external_id, internal_index) CSVs; an id
    holding a comma or a quote is quoted as csv.writer quotes it."""
    for name, ids in (("user_map.csv", data.user_ids), ("item_map.csv", data.item_ids)):
        if ids is None:
            continue
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(zip(ids, range(len(ids))))


def _save_tables(out_dir, names, parts) -> None:
    """Write parts[k] (an InteractionSet's pairs or a tuple of columns) to out_dir/names[k]."""
    os.makedirs(out_dir, exist_ok=True)
    for name, part in zip(names, parts, strict=True):
        columns = part.pairs() if isinstance(part, InteractionSet) else part
        _write_table(os.path.join(out_dir, name), np.column_stack(columns))


def save_strong_generalization(out_dir, validation: StrongGeneralizationSplit,
                               test: StrongGeneralizationSplit) -> None:
    _save_tables(out_dir, STRONG_GEN_FILES, (validation.train, validation.fold_in,
                                             validation.target, test.fold_in, test.target))


def save_leave_one_out(out_dir, split: LeaveOneOutSplit) -> None:
    _save_tables(out_dir, LOO_FILES, (split.train, (split.users, split.holdout),
                                      (split.users, split.negatives)))


def _split_train(train_rows: np.ndarray, *tables: np.ndarray) -> InteractionSet:
    """The pairs of train_rows over the vocabulary of a split dir: one more
    than the largest user id (column 0) and item id (the other columns) in
    train_rows and in the tables of the dir's other files, empty ones too."""
    tables = (train_rows, *tables)
    return InteractionSet.from_pairs(
        *train_rows.T, num_users=1 + max(int(t[:, 0].max(initial=-1)) for t in tables),
        num_items=1 + max(int(t[:, 1:].max(initial=-1)) for t in tables))


def load_strong_generalization(split_dir) -> tuple[StrongGeneralizationSplit | None,
                                                   StrongGeneralizationSplit]:
    """Load a strong-generalization split directory verbatim.

    Returns (validation, test); validation is None when both its files
    are absent.  The item vocabulary is the union over all files so
    published splits evaluate exactly as distributed.  A user with no
    target items, or no fold-in items to project from, is skipped with a
    warning.

    Raises:
        InputError: a test file is missing, or one validation file is
            present without the other, or a (user, item) pair occurs
            twice in a part's fold-in and target files together, or no
            test user has both fold-in and target items.
    """
    d = Path(split_dir)
    train_rows = _read_int_table(d / STRONG_GEN_FILES[0], 2)
    parts = {}
    for part, names in (("validation", STRONG_GEN_FILES[1:3]), ("test", STRONG_GEN_FILES[3:])):
        missing = [name for name in names if not (d / name).exists()]
        if not missing:
            # no validation users leave the validation files empty
            empty_ok = part == "validation"
            parts[part] = tuple(_read_int_table(d / name, 2, may_be_empty=empty_ok)
                                for name in names)
            # a repeated pair counts twice; a target also in fold-in is never ranked
            for where, rows in ((d / names[0], parts[part][0]), (d / names[1], parts[part][1]),
                                (f"{d}: {names[0]} and {names[1]}", np.vstack(parts[part]))):
                users, items = rows[np.lexsort((rows[:, 1], rows[:, 0]))].T
                twice = np.flatnonzero((users[1:] == users[:-1]) & (items[1:] == items[:-1]))
                if twice.size:
                    raise InputError(f"{where}: user {users[twice[0]]} lists item "
                                     f"{items[twice[0]]} twice")
        elif part == "test" or len(missing) == 1:
            raise InputError(f"{d}: missing {' and '.join(missing)}")

    train = _split_train(train_rows, *chain.from_iterable(parts.values()))

    def build(part) -> StrongGeneralizationSplit:
        fold_in, target = (InteractionSet.from_pairs(
            rows[:, 0], rows[:, 1], num_users=train.num_users, num_items=train.num_items)
            for rows in parts[part])
        has_fold_in, has_target = fold_in.user_counts > 0, target.user_counts > 0
        for side, lacking in (("target", has_fold_in & ~has_target),
                              ("fold-in", has_target & ~has_fold_in)):
            for u in np.flatnonzero(lacking):
                log.warning("%s: user %d has no %s items, skipping", split_dir, u, side)
        return StrongGeneralizationSplit(train=train, fold_in=fold_in, target=target)

    validation = build("validation") if "validation" in parts else None
    test = build("test")
    if not test.users.size:
        raise InputError(f"{d}: no test user has both fold-in and target items")
    return validation, test


def load_leave_one_out(split_dir) -> LeaveOneOutSplit:
    """Load a leave-one-out split directory verbatim."""
    d = Path(split_dir)
    train_rows, holdout_rows, neg_rows = (_read_int_table(d / name, width)
                                          for name, width in zip(LOO_FILES, (2, 2, None)))
    for name, rows in zip(LOO_FILES[1:], (holdout_rows, neg_rows)):
        users, counts = np.unique(rows[:, 0], return_counts=True)
        if (counts > 1).any():
            raise InputError(f"{d / name}: user {users[counts > 1][0]} has more than one row")
    by_user = np.argsort(holdout_rows[:, 0])
    users, holdout = holdout_rows[by_user, 0], holdout_rows[by_user, 1]
    by_user = np.argsort(neg_rows[:, 0])
    if not np.array_equal(users, neg_rows[by_user, 0]):
        raise InputError(f"{d}: holdout and negatives cover different users")
    negatives = neg_rows[by_user, 1:]

    train = _split_train(train_rows, holdout_rows, neg_rows)
    return LeaveOneOutSplit(train=train, users=users, holdout=holdout, negatives=negatives)
