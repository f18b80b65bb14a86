"""Flight recorder: a bounded ring of recent telemetry, dumped post-mortem.

Full event logs for a long run are large; the part that explains a crash
is the last few hundred records.  The :class:`FlightRecorder` subscribes
to the :class:`~repro.telemetry.events.EventBus` and keeps the most
recent events and finished spans in a fixed-size ring.  When the run
dies — a fault-coordinator abort, a process crash, any uncaught
exception escaping the simulation loop — :meth:`dump` writes the ring
as JSONL so the tail of the run survives the process.

The dump filename is fixed (:data:`DUMP_FILE`): no wall clock, no
randomness (DET001 holds here too), so repeated crashes of the same run
overwrite rather than accumulate, and CI can upload the file by a known
path.
"""

from __future__ import annotations

import collections
import json
import pathlib
import typing

#: Deterministic post-mortem filename inside the dump directory.
DUMP_FILE = "postmortem.jsonl"

DUMP_VERSION = 1


def _json_default(value: typing.Any) -> typing.Any:
    if hasattr(value, "value") and value.__class__.__module__ != "builtins":
        return value.value  # enums (Paradigm, FaultKind, ...)
    return str(value)


class FlightRecorder:
    """Last-``capacity`` telemetry records, in arrival order."""

    __slots__ = ("capacity", "dropped", "dumped", "_ring")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Records that fell off the ring (total seen - retained).
        self.dropped = 0
        #: Paths written by :meth:`dump`, newest last.
        self.dumped: typing.List[pathlib.Path] = []
        #: Event/Span objects as delivered; serialized lazily (see
        #: :meth:`on_record`).
        self._ring: typing.Deque[typing.Any] = collections.deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._ring)

    def on_record(self, record: typing.Any) -> None:
        """Bus subscriber: receives events and finished spans.

        The record *object* goes into the ring as-is — serialization is
        deferred to :meth:`dump`, so the per-record cost on a healthy run
        is one deque append, no allocation.  (Spans may still be mutated
        by their owner after arrival; the dump then sees their final
        state, which is exactly what a post-mortem wants.)
        """
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)

    def records(self) -> typing.List[typing.Dict[str, typing.Any]]:
        return [record.to_dict() for record in self._ring]

    def dump(
        self,
        directory: typing.Union[str, pathlib.Path],
        reason: str,
        meta: typing.Optional[typing.Dict[str, typing.Any]] = None,
    ) -> pathlib.Path:
        """Write the ring to ``directory/postmortem.jsonl``; returns the path.

        The first line is a header record (``type: "flight"``) carrying
        the abort reason and ring statistics; the rest is the ring in
        arrival order.
        """
        out = pathlib.Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        path = out / DUMP_FILE
        header: typing.Dict[str, typing.Any] = {
            "type": "flight",
            "version": DUMP_VERSION,
            "reason": reason,
            "capacity": self.capacity,
            "retained": len(self._ring),
            "dropped": self.dropped,
        }
        if meta:
            header["meta"] = meta
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True, default=_json_default) + "\n")
            for record in self._ring:
                fh.write(
                    json.dumps(
                        record.to_dict(), sort_keys=True, default=_json_default
                    )
                    + "\n"
                )
        self.dumped.append(path)
        return path

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(capacity={self.capacity}, retained={len(self._ring)}, "
            f"dropped={self.dropped})"
        )


def load_dump(
    path: typing.Union[str, pathlib.Path],
) -> typing.Tuple[typing.Dict[str, typing.Any], typing.List[typing.Dict[str, typing.Any]]]:
    """Read a post-mortem file back: ``(header, records)``."""
    header: typing.Dict[str, typing.Any] = {}
    records: typing.List[typing.Dict[str, typing.Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "flight":
                header = record
            else:
                records.append(record)
    return header, records
