"""A fixed reference workload that gauges how fast the host runs Python now.

On a shared host the same cell runs 20-50% faster or slower from one
minute to the next (other guests, clock speed), and a whole 36 s run can
sit in a slow or a fast spell.  :func:`reference_s` times a small
discrete-event loop shaped like the simulator's hot path -- generator
processes resumed from a heap, SIP-like messages rendered and parsed,
a dict of live calls -- but independent of ``src/``, so no change to the
simulator changes it.  ``cell.py`` times it about once a second while
the simulation runs, and ``run.py`` rescales the cell's CPU time by it.

Usage::

    python3 perfbench/refkernel.py     # print five timings
"""

import gc
import heapq
import time

#: CPU seconds :func:`reference_s` takes at the host's median speed
#: (2-vCPU KVM guest on a Xeon Sapphire Rapids host, Python 3.11)
NOMINAL_S = 0.13


class _Msg:
    __slots__ = ("method", "call_id", "cseq", "via")

    def __init__(self, method, call_id, cseq, via):
        self.method = method
        self.call_id = call_id
        self.cseq = cseq
        self.via = via


def _render(msg: _Msg) -> str:
    return (f"{msg.method} sip:bob@example.com SIP/2.0\r\nVia: {msg.via}\r\n"
            f"Call-ID: {msg.call_id}\r\nCSeq: {msg.cseq} {msg.method}\r\n\r\n")


def _parse(text: str) -> _Msg:
    head = text.partition("\r\n\r\n")[0]
    lines = head.split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(": ")
        headers[name] = value
    return _Msg(lines[0].split(" ", 1)[0], headers["Call-ID"],
                int(headers["CSeq"].split(" ")[0]), headers["Via"])


def _phone(index: int, calls: dict):
    cseq = 0
    while True:
        cseq += 1
        msg = _parse(_render(_Msg(
            "INVITE", f"c{index}-{cseq}@h", cseq,
            f"SIP/2.0/UDP 10.0.0.{index & 255};branch=z9hG4bK{cseq}")))
        calls[msg.call_id] = msg
        yield (index * 37 + cseq * 11) % 97 + 1
        calls.pop(msg.call_id, None)
        yield 5


def reference_s(events: int = 40_000) -> float:
    """CPU seconds to fire ``events`` events of the reference loop, with
    the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        calls = {}
        heap = [(i, i, _phone(i, calls)) for i in range(200)]
        heapq.heapify(heap)
        seq = len(heap)
        for _ in range(events):
            now, _, proc = heapq.heappop(heap)
            seq += 1
            heapq.heappush(heap, (now + next(proc), seq, proc))
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    reference_s()
    print(" ".join(f"{reference_s():.4f}" for _ in range(5)))
