"""The moves of a trace: which production can rewrite which position of a
step into which span of the next word, listed in one array pass.

One rewriting step x => y is a path problem (see the lattice module): the
positions of x move, one after another, through the columns 0 .. |y|, and
position i moves from column s to column e by the production x[i] -> y[s:e].
A lone position (|x| = 1) moves from 0 to |y|, the first of several from 0,
the last to |y|, and an interior one from any column to any column not
before it.  So a position's moves depend only on |y| and its class, and the
moves of every position of every step are gathers from a few per-class
arrays, made once per target length.

Every substring is named by an integer (Karp, Miller & Rosenberg 1972):
each word is encoded as a str of one character per symbol, in the symbols'
sorted order, so that str order is word order; every substring some
position can produce is sliced once, and its id is its rank among the
distinct ones.  A production is then an integer (predecessor code,
substring id) key, whose order is the productions' canonical order.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .model import Production, Sequence, Symbol, Word

#: as the lattice stores its index arrays; moves and edges stay under the
#: lattice's edge ceiling, so every index fits
_INDEX = np.int32


#: position classes: a step x => y with |x| = 1 has one lone position,
#: which produces all of y; with |x| >= 2 the first position produces a
#: prefix, the last a suffix and every other (interior) one any substring
_ONLY, _FIRST, _LAST, _INTERIOR = range(4)


def _layout(m: int, n: int, lengths: set[int] | None) -> tuple[list[slice], dict]:
    """The substrings y[s:e] that the positions of a step with |x| = m and
    |y| = n can produce, sorted by length, then start: their slices, and per
    position class its moves into them in the same order, as a (3, moves)
    array of (span index, s, e).  lengths, if given, are the successor
    lengths allowed.

    Only a step with interior positions lists every substring; a step of
    one or two positions lists y, or its prefixes and suffixes.
    """
    allowed = [k for k in range(n + 1) if lengths is None or k in lengths]
    if m == 1:
        if allowed[-1:] != [n]:
            return [], {_ONLY: np.zeros((3, 0), _INDEX)}
        return [slice(0, n)], {_ONLY: np.array([[0], [0], [n]], _INDEX)}
    count = len(allowed)
    if m == 2:
        first = [range(count), [0] * count, allowed]
        last = [range(count, 2 * count), [n - k for k in allowed], [n] * count]
        spans = [slice(0, k) for k in allowed] + [slice(n - k, n) for k in allowed]
        return spans, {_FIRST: np.array(first, _INDEX), _LAST: np.array(last, _INDEX)}
    allowed = np.array(allowed, np.int64)
    sizes = n + 1 - allowed
    firsts = np.cumsum(sizes) - sizes
    index = np.arange(sizes.sum())
    begin = index - np.repeat(firsts, sizes)
    end = begin + np.repeat(allowed, sizes)
    interior = np.array((index, begin, end), _INDEX)
    classes = {
        _FIRST: interior[:, firsts],
        _LAST: interior[:, firsts + sizes - 1],
        _INTERIOR: interior,
    }
    return list(map(slice, begin.tolist(), end.tolist())), classes


class Moves(NamedTuple):
    """Every move of every position of a trace, grouped.

    A group is the moves of one step that some positions share: those of
    the lone, first or last position, or those of every interior position
    with one predecessor.  Moves are stored group after group, each group
    sorted by (successor length, src column), and sizes holds each group's
    move count.  groups[r, j] is the group of row r of step j, or, for a
    step with no row r, len(sizes) + j: the group of its pass-through move.
    src and dst end with those pass-through moves, one per step, from its
    end column to itself.  A move's substring id is the rank of its
    substring among the sorted distinct substrings listed.
    """

    symbols: list[Symbol]
    codes: dict[Symbol, int]
    letters: dict[Symbol, str] | None
    substrings: list[str]
    rank: dict[str, int]
    starts: np.ndarray
    ends: np.ndarray
    sizes: np.ndarray
    groups: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    def keys(self, predecessors: list[Symbol], successors: list[Word]) -> np.ndarray:
        """Each production's (predecessor, substring) key, or -1 for one
        whose predecessor is no symbol or whose successor is no listed
        substring."""
        count = len(predecessors)
        codes = np.fromiter(map(self.codes.get, predecessors, repeat(-1)), np.int64, count)
        words = map(_encode, successors, repeat(self.letters))
        subs = np.fromiter(map(self.rank.get, words, repeat(-1)), np.int64, count)
        return np.where((codes < 0) | (subs < 0), -1, codes * len(self.substrings) + subs)

    def productions(self, keys: np.ndarray) -> tuple[Production, ...]:
        """The productions of (predecessor, substring) keys."""
        codes, subs = np.divmod(keys, len(self.substrings))
        words = map(self.substrings.__getitem__, subs.tolist())
        if self.letters is None:
            successors = map(tuple, words)
        else:
            successors = (tuple(self.symbols[ord(c)] for c in word) for word in words)
        return tuple(map(Production, map(self.symbols.__getitem__, codes.tolist()), successors))

    def edges(
        self, keep: np.ndarray | None, check: Callable[[int], None]
    ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
        """The edges of the moves where keep is set (all if None), sorted by
        (row, step) and then in move order: the row bounds, and per edge its
        src and dst columns and its index into the kept moves followed by
        the pass-through moves.  check gets the edge count before any
        per-edge array is allocated."""
        steps = len(self.starts)
        sizes, src, dst = self.sizes, self.src, self.dst
        if keep is not None:
            groups = np.repeat(np.arange(sizes.size), sizes)[keep]
            sizes = np.bincount(groups, minlength=sizes.size)
            keep = np.concatenate((keep, np.ones(steps, bool)))
            src, dst = src[keep], dst[keep]
        sizes = np.concatenate((sizes, np.ones(steps, sizes.dtype)))
        per_segment = sizes[self.groups]
        per_row = per_segment.sum(axis=1)
        check(int(per_row.sum()))
        edge = ranges((np.cumsum(sizes) - sizes)[self.groups].ravel(), per_segment.ravel())
        bounds = tuple(np.concatenate(([0], np.cumsum(per_row))).tolist())
        return bounds, src[edge], dst[edge], edge


def list_moves(theta: Sequence, lengths: set[int] | None) -> tuple[Moves, np.ndarray]:
    """Every move of every position of theta whose successor length is in
    lengths (any length if None), with each move's (predecessor, substring)
    key, code * len(substrings) + substring id.

    One pass slices every listed substring of every target and ranks the
    distinct ones; the groups then take their moves from their steps'
    (position count, target length) layouts, each made once, in one gather
    over all groups.
    """
    steps = list(theta.steps())
    symbols = sorted(theta.symbols())
    letters = None if all(len(a) == 1 for a in symbols) else {
        a: chr(i) for i, a in enumerate(symbols)
    }
    codes = {a: i for i, a in enumerate(symbols)}
    layouts: dict[tuple[int, int], tuple[list[slice], dict[int, tuple[int, int]]]] = {}
    pool: list[np.ndarray] = []  # per layout and class: (span index, s, e) rows
    pooled = 0
    listed: list[str] = []
    # per group: first pool column, moves, first listed substring, column, code
    info: list[tuple[int, int, int, int, int]] = []
    rows, row_steps, row_groups = [], [], []
    starts, column = [], 0
    for j, (x, y) in enumerate(steps):
        m, n = len(x), len(y)
        shape = (min(m, 3), n)
        if shape not in layouts:
            spans, classes = _layout(m, n, lengths) if m else ([], {})
            places = {}
            for position, table in classes.items():
                pool.append(table)
                places[position] = (pooled, table.shape[1])
                pooled += table.shape[1]
            layouts[shape] = spans, places
        spans, places = layouts[shape]

        def group(position: int, a: Symbol) -> int:
            info.append((*places[position], len(listed), column, codes[a]))
            return len(info) - 1

        if m == 1:
            row_groups.append(group(_ONLY, x[0]))
        elif m >= 2:
            row_groups.append(group(_FIRST, x[0]))
            inner = {a: group(_INTERIOR, a) for a in sorted(set(x[1:-1]))}
            row_groups.extend(map(inner.__getitem__, x[1:-1]))
            row_groups.append(group(_LAST, x[-1]))
        rows.extend(range(m))
        row_steps.extend([j] * m)
        if spans:
            word = _encode(y, letters)
            listed += map(word.__getitem__, spans)
        starts.append(column)
        column += n + 1
    substrings = sorted(set(listed))
    rank = {word: i for i, word in enumerate(substrings)}
    sub_of = np.fromiter(map(rank.__getitem__, listed), _INDEX, len(listed))
    span, begin, end = np.concatenate([np.zeros((3, 0), _INDEX)] + pool, axis=1)
    info = np.array(info, np.int64).reshape(-1, 5).T
    sizes = info[1]
    at = ranges(info[0], sizes)
    listing, column, code = np.repeat(info[[2, 3, 4]], sizes, axis=1)
    starts = np.array(starts, _INDEX)
    ends = np.array([start + len(y) for start, (_, y) in zip(starts.tolist(), steps)], _INDEX)
    groups = np.empty((max(len(x) for x, _ in steps), len(steps)), np.int64)
    groups[:] = np.arange(len(steps)) + len(sizes)
    groups[rows, row_steps] = row_groups
    moves = Moves(
        symbols=symbols,
        codes=codes,
        letters=letters,
        substrings=substrings,
        rank=rank,
        starts=starts,
        ends=ends,
        sizes=sizes,
        groups=groups,
        src=np.concatenate((begin[at] + column, ends)).astype(_INDEX),
        dst=np.concatenate((end[at] + column, ends)).astype(_INDEX),
    )
    code *= len(substrings)
    code += sub_of[span[at] + listing]
    return moves, code


def _encode(word: Word, letters: dict[Symbol, str] | None) -> str | None:
    """word as a str of one character per symbol, or None if some symbol
    has no character: without letters, a symbol that is not one character
    would pass for several."""
    if letters is None:
        text = "".join(word)
        return text if len(text) == len(word) else None
    try:
        return "".join(map(letters.__getitem__, word))
    except KeyError:
        return None


def ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenation of arange(start, start + size) for each start and
    its size, as int32: every caller indexes moves or edges, both under
    EDGE_CEILING."""
    ends = np.cumsum(sizes, dtype=np.int64)
    out = np.repeat((starts - ends + sizes).astype(_INDEX), sizes)
    out += np.arange(out.size, dtype=_INDEX)
    return out
