"""The transport-level message envelope.

Every protocol payload (digest broadcast, PoP request/reply, PBFT
phase messages, IOTA gossip) is wrapped in a :class:`Message` whose
``size_bits`` drives the byte accounting in Figs. 7-8.  The envelope
carries a ``kind`` tag so metrics can attribute traffic to protocol
phases (DAG construction vs consensus — Fig. 8(b) vs 8(c)).

A simulation builds one envelope per delivered message (about 142k per
160-node ``ingest`` run), so :class:`Message` is a tuple: construction
is one ``tuple.__new__`` call and field reads are C-level accessors,
while the envelope stays immutable.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Any, Optional

_MESSAGE_IDS = itertools.count(1)

_MessageFields = namedtuple(
    "_MessageFields",
    ("sender", "recipient", "kind", "payload", "size_bits", "msg_id", "in_reply_to"),
)

_tuple_new = tuple.__new__


class Message(_MessageFields):
    """An addressed, sized, immutable protocol message.

    Attributes
    ----------
    sender / recipient:
        Node ids; the transport routes between them.
    kind:
        Protocol message tag, e.g. ``"digest"``, ``"req_child"``,
        ``"rpy_child"``, ``"pbft.prepare"``, ``"iota.tx"``.
    payload:
        Arbitrary protocol object.
    size_bits:
        Wire size used for communication accounting.
    msg_id:
        Unique id, useful for request/reply matching and replay
        detection (the nonce of §IV-D-5).  Drawn from a process-wide
        counter, in construction order, when not given.
    in_reply_to:
        ``msg_id`` of the request this message answers, or ``None``.
    """

    __slots__ = ()

    def __new__(
        cls,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any,
        size_bits: int,
        msg_id: Optional[int] = None,
        in_reply_to: Any = None,
    ) -> "Message":
        if size_bits < 0:
            raise ValueError(f"message size must be non-negative, got {size_bits}")
        if msg_id is None:
            msg_id = next(_MESSAGE_IDS)
        return _tuple_new(
            cls, (sender, recipient, kind, payload, size_bits, msg_id, in_reply_to)
        )

    @property
    def size_bytes(self) -> float:
        """Size in bytes."""
        return self.size_bits / 8.0

    def reply(self, kind: str, payload: Any, size_bits: int) -> "Message":
        """Construct the reverse-direction message for request/reply flows."""
        return Message(
            self.recipient, self.sender, kind, payload, size_bits,
            in_reply_to=self.msg_id,
        )
