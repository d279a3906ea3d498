"""Stream generation and CSV serialization.

A stream is an ordered list of (t, user, value) events with t counting from
1, user ids counting from 1, and values in [0, 1].  Values are drawn i.i.d.
Bernoulli(mu); the user sequence comes from a pluggable ordering.  The file
format is a header-bearing CSV ``t,user,value`` with values written as
shortest round-trip decimals.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from contmean.noise import spawn_rng

__all__ = [
    "ORDERING_KINDS",
    "OrderingSpec",
    "StreamEvent",
    "StreamParseError",
    "generate",
    "read_stream",
    "write_stream",
]

ORDERING_KINDS = ("contiguous", "round_robin", "uniform_random", "single_user_prefix", "from_file")

_HEADER = ["t", "user", "value"]


def _is_int(value) -> bool:
    """Whether ``value`` is an integer: numpy integers are; bools (which
    would stand for 0 or 1) and integral floats are not.  A float count
    would pass every comparison and fail only mid-run, or calibrate the
    noise to a fractional n, m or T."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_int(field: str, value) -> None:
    if not _is_int(value):
        raise ValueError(f"{field}: {value!r} is not an integer")


class StreamParseError(ValueError):
    """Malformed stream file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class StreamEvent(NamedTuple):
    """One arrival: a 1-based time, a 1-based user id and a value."""

    t: int
    user: int
    value: float


@dataclass(frozen=True)
class OrderingSpec:
    """Which user contributes at each step.

    ``single_user_prefix`` has user 1 contribute ``prefix_len`` samples, a
    positive integer (default: its full cap), before anyone else;
    ``from_file`` replays the user column of an existing stream file.
    """

    kind: str
    prefix_len: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ORDERING_KINDS:
            raise ValueError(f"unknown ordering kind {self.kind!r}; pick from {ORDERING_KINDS}")
        if self.kind == "from_file" and not self.path:
            raise ValueError("from_file ordering needs a path")
        # 0 would stand for the full cap and -1 drop user 1; a float fails
        # only inside ``generate``
        p = self.prefix_len
        if p is not None and not (_is_int(p) and p >= 1):
            raise ValueError(f"prefix_len must be a positive integer, got {p!r}")


def _user_sequence(ordering: OrderingSpec, n: int, m: int, T: int, rng) -> list[int]:
    if ordering.kind == "contiguous":
        return [1 + i // m for i in range(T)]
    if ordering.kind == "round_robin":
        return [1 + i % n for i in range(T)]
    if ordering.kind == "uniform_random":
        # Users that can still contribute, ascending; a user is deleted in
        # place once it holds m samples.  While the most any open user holds
        # is ``top``, no user can fill within the next m - top draws, so the
        # list, and the bound each draw uses, stays fixed that long: those
        # draws come from one call, which consumes the generator exactly as
        # that many scalar draws do.  At most the block's last draw fills a
        # user.
        open_users = list(range(1, n + 1))
        counts = [0] * (n + 1)
        hist = [0] * (m + 1)  # open users per count; hist[m] marks a fill
        hist[0] = n
        top = 0
        seq: list[int] = []
        left = T
        while left:
            size = min(m - top, left)
            left -= size
            if size == 1:
                draws = (int(rng.integers(len(open_users))),)
            else:
                draws = rng.integers(len(open_users), size=size).tolist()
            for i in draws:
                u = open_users[i]
                c = counts[u]
                hist[c] -= 1
                c += 1
                counts[u] = c
                hist[c] += 1
                seq.append(u)
            top = min(top + size, m)
            if hist[m]:
                del open_users[draws[-1]]
                hist[m] = 0
            while top and not hist[top]:
                top -= 1
        return seq
    if ordering.kind == "single_user_prefix":
        prefix = min(m if ordering.prefix_len is None else ordering.prefix_len, m, T)
        rest = T - prefix
        if rest > (n - 1) * m:
            raise ValueError("single_user_prefix ordering cannot reach the requested length")
        # user 1's prefix, then users 2, 3, ... with m samples each
        return [1] * prefix + [2 + i // m for i in range(rest)]
    if ordering.kind == "from_file":
        # the one ordering not bounded by construction: check it against
        # n and m, naming the first user, in stream order, to break either
        events = read_stream(ordering.path)
        if len(events) < T:
            raise ValueError(f"{ordering.path} holds {len(events)} events, need {T}")
        users = [ev.user for ev in events[:T]]
        counts: dict[int, int] = {}
        for u in users:
            if u > n:
                raise ValueError(f"{ordering.path} names user {u} outside [1, {n}]")
            counts[u] = counts.get(u, 0) + 1
            if counts[u] > m:
                raise ValueError(f"ordering gives user {u} more than m={m} samples")
        return users
    raise AssertionError(ordering.kind)


def generate(
    mu: float, n: int, m: int, T: int, ordering: OrderingSpec, seed: int
) -> list[StreamEvent]:
    """Draw a Bernoulli(mu) stream of length T under the given ordering.

    Every user is in [1, n] and gets at most m samples; a ``from_file``
    ordering that breaks either raises ValueError.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if T > n * m:
        raise ValueError(f"infeasible ordering: T={T} exceeds n*m={n * m}")
    rng = spawn_rng(seed, 0)
    users = _user_sequence(ordering, n, m, T, rng)
    values = (rng.random(T) < mu).astype(float).tolist()
    # tuple.__new__ builds each event at C level, skipping the Python-level
    # StreamEvent.__new__ call: the same objects, about twice as fast
    return list(map(tuple.__new__, repeat(StreamEvent), zip(range(1, T + 1), users, values)))


def write_stream(events: list[StreamEvent], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for ev in events:
            writer.writerow([ev.t, ev.user, repr(float(ev.value))])


def read_stream(path) -> list[StreamEvent]:
    events: list[StreamEvent] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        return []
    if rows[0] != _HEADER:
        raise StreamParseError(1, f"expected header {','.join(_HEADER)!r}, got {rows[0]!r}")
    prev_t = 0
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise StreamParseError(line_no, f"expected 3 fields, got {len(row)}")
        try:
            t, user, value = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise StreamParseError(line_no, str(exc)) from exc
        if t <= prev_t:
            raise StreamParseError(line_no, f"t={t} does not increase past {prev_t}")
        if user < 1:
            raise StreamParseError(line_no, f"user ids are 1-based, got {user}")
        if not 0.0 <= value <= 1.0:
            raise StreamParseError(line_no, f"value {value} outside [0, 1]")
        events.append(StreamEvent(t=t, user=user, value=value))
        prev_t = t
    return events
