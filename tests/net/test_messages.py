"""Unit tests for the message envelope."""

import pytest

from repro.net.messages import Message


class TestMessage:
    def test_unique_ids(self):
        a = Message(0, 1, "k", None, 10)
        b = Message(0, 1, "k", None, 10)
        assert a.msg_id != b.msg_id

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 1, "k", None, -1)

    def test_size_bytes(self):
        assert Message(0, 1, "k", None, 80).size_bytes == 10.0

    def test_reply_swaps_endpoints(self):
        request = Message(3, 7, "ask", "q", 10)
        reply = request.reply("answer", "a", 20)
        assert reply.sender == 7
        assert reply.recipient == 3
        assert reply.in_reply_to == request.msg_id

    def test_fresh_message_has_no_reply_marker(self):
        assert Message(0, 1, "k", None, 10).in_reply_to is None


class TestImmutability:
    @pytest.mark.parametrize(
        "field",
        ["sender", "recipient", "kind", "payload", "size_bits", "msg_id", "in_reply_to"],
    )
    def test_assigning_a_field_raises(self, field):
        message = Message(0, 1, "k", None, 10)
        with pytest.raises(AttributeError):
            setattr(message, field, 5)
        assert getattr(message, field) != 5

    def test_new_attributes_rejected(self):
        with pytest.raises(AttributeError):
            Message(0, 1, "k", None, 10).extra = 1


class TestConstruction:
    def test_keywords_round_trip(self):
        message = Message(
            sender=2, recipient=5, kind="rpy", payload=("x",), size_bits=64,
            msg_id=4242, in_reply_to=17,
        )
        assert message.sender == 2
        assert message.recipient == 5
        assert message.kind == "rpy"
        assert message.payload == ("x",)
        assert message.size_bits == 64
        assert message.msg_id == 4242
        assert message.in_reply_to == 17

    def test_explicit_msg_id_draws_no_id(self):
        before = Message(0, 1, "k", None, 10).msg_id
        Message(0, 1, "k", None, 10, msg_id=-1)
        assert Message(0, 1, "k", None, 10).msg_id == before + 1

    def test_ids_rise_strictly_in_construction_order(self):
        ids = [Message(0, 1, "k", None, 10).msg_id for _ in range(50)]
        assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_reply_ids_follow_construction_order(self):
        request = Message(3, 7, "ask", "q", 10)
        reply = request.reply("answer", "a", 20)
        assert reply.msg_id > request.msg_id

    def test_reply_keeps_in_reply_to(self):
        request = Message(3, 7, "ask", "q", 10)
        reply = request.reply("answer", "a", 20)
        assert reply.in_reply_to == request.msg_id
        assert (reply.kind, reply.payload, reply.size_bits) == ("answer", "a", 20)

    def test_negative_size_rejected_before_an_id_is_drawn(self):
        before = Message(0, 1, "k", None, 10).msg_id
        with pytest.raises(ValueError, match="non-negative"):
            Message(0, 1, "k", None, -8)
        assert Message(0, 1, "k", None, 10).msg_id == before + 1

    def test_zero_size_allowed(self):
        assert Message(0, 1, "k", None, 0).size_bytes == 0.0
