"""Shared fixtures: a spy on everything the substrates put on the wire."""

from __future__ import annotations

import pytest

from repro.model.messages import MessageBuffer


@pytest.fixture
def wire(monkeypatch):
    """Every datagram any ``MessageBuffer`` is asked to carry, in order.

    Spies on ``send`` and ``broadcast`` (with an injector attached the
    latter goes through the former, so each logical send is listed once —
    duplicates and retransmissions a link fault adds are the link's, not
    the protocol's, and are not).
    """
    sent = []
    send, broadcast = MessageBuffer.send, MessageBuffer.broadcast

    def spy_send(self, *args, **kwargs):
        datagram = send(self, *args, **kwargs)
        sent.append(datagram)
        return datagram

    def spy_broadcast(self, *args, **kwargs):
        batch = broadcast(self, *args, **kwargs)
        if self._injector is None:
            sent.extend(batch)
        return batch

    monkeypatch.setattr(MessageBuffer, "send", spy_send)
    monkeypatch.setattr(MessageBuffer, "broadcast", spy_broadcast)
    return sent
