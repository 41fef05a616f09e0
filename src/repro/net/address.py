"""IPv4 addresses and subnets.

A tiny, dependency-free address model: addresses are immutable wrappers
around a 32-bit integer; subnets are CIDR blocks that can parse, test
membership, and hand out host addresses sequentially (for topology
construction).
"""

from __future__ import annotations

from typing import Iterator

from ..errors import AddressError

__all__ = ["IPv4Address", "Subnet"]


class IPv4Address:
    """An immutable IPv4 address.

    Accepts either a dotted-quad string or a 32-bit integer.

    >>> IPv4Address("10.0.0.1").value == (10 << 24) + 1
    True
    >>> str(IPv4Address(0x0A000001))
    '10.0.0.1'
    """

    # ``value`` is a plain slot, not a property: address ints are read in
    # per-packet rule lambdas, where a property's python-level getter call
    # is measurable.  Immutability is by convention (nothing assigns to it
    # after construction).
    __slots__ = ("value",)

    def __init__(self, value: "int | str | IPv4Address") -> None:
        if isinstance(value, IPv4Address):
            self.value = value.value
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise AddressError(f"address integer out of range: {value!r}")
            self.value = value
        elif isinstance(value, str):
            self.value = self._parse(value)
        else:
            raise AddressError(f"cannot build address from {value!r}")

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError(f"malformed IPv4 address {text!r}")
            octet = int(part)
            if octet > 255:
                raise AddressError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return value

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self.value + int(offset))


class Subnet:
    """A CIDR block, e.g. ``Subnet("10.0.0.0/24")``.

    Supports membership tests and sequential host allocation.  The network
    and broadcast addresses are never allocated.
    """

    __slots__ = ("network", "prefix", "_next_host")

    def __init__(self, cidr: str) -> None:
        try:
            net_text, prefix_text = cidr.strip().split("/")
        except ValueError:
            raise AddressError(f"malformed CIDR {cidr!r}") from None
        self.prefix = int(prefix_text)
        if not 0 <= self.prefix <= 32:
            raise AddressError(f"prefix out of range in {cidr!r}")
        base = IPv4Address(net_text).value
        mask = self.mask_value
        if base & ~mask & 0xFFFFFFFF:
            raise AddressError(f"{cidr!r} has host bits set")
        self.network = IPv4Address(base)
        self._next_host = 1

    @property
    def mask_value(self) -> int:
        if self.prefix == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.prefix)) & 0xFFFFFFFF

    @property
    def num_hosts(self) -> int:
        """Usable host addresses (excludes network & broadcast for /0../30)."""
        size = 1 << (32 - self.prefix)
        return max(size - 2, 0) if self.prefix <= 30 else (size if self.prefix == 32 else 2)

    def __contains__(self, addr: "IPv4Address | str") -> bool:
        a = IPv4Address(addr)
        return (a.value & self.mask_value) == self.network.value

    def allocate(self) -> IPv4Address:
        """Hand out the next unused host address."""
        if self.prefix > 30:
            raise AddressError(f"cannot allocate hosts from /{self.prefix}")
        if self._next_host > self.num_hosts:
            raise AddressError(f"subnet {self} exhausted")
        addr = IPv4Address(self.network.value + self._next_host)
        self._next_host += 1
        return addr

    def hosts(self, count: int) -> Iterator[IPv4Address]:
        """Allocate ``count`` host addresses."""
        for _ in range(count):
            yield self.allocate()

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix}"

    def __repr__(self) -> str:
        return f"Subnet('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Subnet):
            return self.network == other.network and self.prefix == other.prefix
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.network, self.prefix))
