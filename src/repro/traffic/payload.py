"""Protocol-realistic payload builders.

The paper's first lesson learned (section 4): flooding an IDS with random
data is *not* a valid load test, because IDSs that inspect the data portion
of packets behave differently on realistic content.  These builders emit
plausible application-layer bytes -- HTTP, SMTP, telnet logins, and the
fixed-format binary messages of a distributed real-time cluster -- alongside
a :func:`random_payload` for the contrast experiment (bench E3).

Content is deterministic given the RNG stream, so traces are reproducible.
"""

from __future__ import annotations

import math
import struct
from typing import Optional

import numpy as np

__all__ = [
    "HTTP_PATHS",
    "HTTP_AGENTS",
    "format_http_request",
    "http_request",
    "http_response",
    "smtp_exchange",
    "telnet_login",
    "cluster_telemetry",
    "cluster_command",
    "random_payload",
    "shannon_entropy",
    "shannon_entropy_prefix",
]

#: the request paths and user agents :func:`http_request` draws from
HTTP_PATHS = (
    "/", "/index.html", "/images/logo.gif", "/cart", "/checkout",
    "/search", "/products/widget-17", "/api/status", "/login", "/css/site.css",
)
HTTP_AGENTS = (
    "Mozilla/4.0 (compatible; MSIE 5.5; Windows NT 5.0)",
    "Mozilla/4.76 [en] (X11; U; Linux 2.4.2 i686)",
    "Lynx/2.8.4rel.1 libwww-FM/2.14",
)
_WORDS = (
    "the order status page cart item widget total price ship confirm "
    "account user session token data value result list detail query"
).split()


def http_request(
    rng: np.random.Generator,
    host: str = "www.example.mil",
    path: Optional[str] = None,
    method: str = "GET",
    body: bytes = b"",
) -> bytes:
    """A plausible HTTP/1.0 request: a path (unless given) and a user
    agent drawn from :data:`HTTP_PATHS` and :data:`HTTP_AGENTS`, in that
    order."""
    if path is None:
        path = HTTP_PATHS[int(rng.integers(0, len(HTTP_PATHS)))]
    agent = HTTP_AGENTS[int(rng.integers(0, len(HTTP_AGENTS)))]
    return format_http_request(path, agent, host=host, method=method,
                               body=body)


def format_http_request(
    path: str,
    agent: str,
    host: str = "www.example.mil",
    method: str = "GET",
    body: bytes = b"",
) -> bytes:
    """The request :func:`http_request` emits for ``path`` and ``agent``;
    draws nothing."""
    head = (
        f"{method} {path} HTTP/1.0\r\n"
        f"Host: {host}\r\n"
        f"User-Agent: {agent}\r\n"
        f"Accept: */*\r\n"
    )
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode("ascii") + b"\r\n" + body


def http_response(
    rng: np.random.Generator,
    status: int = 200,
    body_size: Optional[int] = None,
) -> bytes:
    """A plausible HTTP/1.0 response with text-like body.

    Body sizes default to a heavy-tailed (lognormal) draw, matching web
    content size distributions.
    """
    if body_size is None:
        body_size = int(min(rng.lognormal(mean=6.5, sigma=1.2), 200_000))
    words = rng.choice(_WORDS, size=max(body_size // 6, 1))
    body = (" ".join(words).encode("ascii") + b" " * body_size)[:body_size]
    reason = {200: "OK", 404: "Not Found", 500: "Server Error"}.get(status, "OK")
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Server: Apache/1.3.19 (Unix)\r\n"
        f"Content-Type: text/html\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    return head.encode("ascii") + b"\r\n" + body


def smtp_exchange(rng: np.random.Generator, sender: str = "ops", size: int = 400) -> bytes:
    """A condensed SMTP conversation transcript (client side)."""
    words = rng.choice(_WORDS, size=max(size // 6, 1))
    body = " ".join(words)[:size]
    return (
        f"HELO relay.example.mil\r\n"
        f"MAIL FROM:<{sender}@example.mil>\r\n"
        f"RCPT TO:<watch@example.mil>\r\n"
        f"DATA\r\nSubject: status\r\n\r\n{body}\r\n.\r\n"
    ).encode("ascii")


def telnet_login(username: str, password: str, success: bool = True) -> bytes:
    """A telnet login exchange as seen on the wire (client keystrokes and
    server prompts interleaved); brute-force attacks replay this with many
    candidate passwords."""
    outcome = "Last login: today\r\n$ " if success else "Login incorrect\r\nlogin: "
    return (
        f"login: {username}\r\npassword: {password}\r\n{outcome}"
    ).encode("ascii")


_CLUSTER_MAGIC = 0x52_54_4D_53  # "RTMS": real-time messaging system


def cluster_telemetry(rng: np.random.Generator, node_id: int, n_samples: int = 16) -> bytes:
    """Fixed-format binary telemetry of the distributed real-time cluster.

    Header (magic, type=1, node, sequence) followed by float32 sensor
    samples.  Tightly structured, low-entropy headers + physical-looking
    values: the "distinctive traffic" of a tuned cluster (section 4).
    """
    header = struct.pack("<IHHI", _CLUSTER_MAGIC, 1, node_id & 0xFFFF,
                         int(rng.integers(0, 2**32)))
    base = rng.normal(100.0, 5.0)
    samples = (base + rng.normal(0, 0.5, size=n_samples)).astype("<f4")
    return header + samples.tobytes()


def cluster_command(node_id: int, command: str, arg: float = 0.0) -> bytes:
    """A cluster control command message (type=2)."""
    cmd = command.encode("ascii")[:16].ljust(16, b"\x00")
    return struct.pack("<IHHI", _CLUSTER_MAGIC, 2, node_id & 0xFFFF, 0) + cmd + struct.pack("<d", arg)


def random_payload(rng: np.random.Generator, size: int) -> bytes:
    """Uniform random bytes -- the *unrealistic* flood content of lesson 1."""
    if size <= 0:
        return b""
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def shannon_entropy(data: bytes) -> float:
    """Byte-level Shannon entropy in bits (0..8).

    Used by the anomaly engine: random/encrypted payloads approach 8 bits,
    ASCII protocol text sits near 4-5, cluster telemetry lower still.
    """
    if not data:
        return 0.0
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    probs = counts[counts > 0] / len(data)
    return float(-(probs * np.log2(probs)).sum())


def shannon_entropy_prefix(data: bytes, limit: int) -> float:
    """``shannon_entropy(data[:limit])`` without materializing the slice.

    Bit-identical to the sliced form: ``np.frombuffer(..., count=n)`` reads
    the same first ``n`` bytes the slice would copy, and every subsequent
    operation (bincount, division by ``n``, ``log2``, pairwise sum) is the
    same expression over the same values.  The anomaly fast path relies on
    this exactness to stay score-for-score identical to the baseline.
    """
    n = min(len(data), limit)
    if n == 0:
        return 0.0
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8, count=n),
                         minlength=256)
    probs = counts[counts > 0] / n
    return float(-(probs * np.log2(probs)).sum())
