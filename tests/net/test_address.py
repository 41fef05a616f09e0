"""Tests for IPv4 addresses and subnets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.net.address import IPv4Address, Subnet


class TestIPv4Address:
    def test_parse_and_str_roundtrip(self):
        assert str(IPv4Address("192.168.1.200")) == "192.168.1.200"

    def test_int_and_str_agree(self):
        assert IPv4Address("10.0.0.1") == IPv4Address((10 << 24) + 1)

    def test_copy_constructor(self):
        a = IPv4Address("1.2.3.4")
        assert IPv4Address(a) == a

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", ""])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_int_out_of_range(self):
        with pytest.raises(AddressError):
            IPv4Address(-1)
        with pytest.raises(AddressError):
            IPv4Address(2**32)

    def test_wrong_type(self):
        with pytest.raises(AddressError):
            IPv4Address(1.5)  # type: ignore[arg-type]

    def test_ordering_and_hash(self):
        a, b = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        assert a < b
        assert len({a, IPv4Address("10.0.0.1")}) == 1

    def test_add_offset(self):
        assert IPv4Address("10.0.0.1") + 5 == IPv4Address("10.0.0.6")

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=200, deadline=None)
    def test_property_int_str_roundtrip(self, v):
        assert IPv4Address(str(IPv4Address(v))).value == v


class TestSubnet:
    def test_parse(self):
        s = Subnet("10.1.0.0/16")
        assert str(s) == "10.1.0.0/16"
        assert s.num_hosts == 65534

    def test_membership(self):
        s = Subnet("10.0.0.0/24")
        assert "10.0.0.42" in s
        assert IPv4Address("10.0.1.1") not in s

    def test_host_bits_set_rejected(self):
        with pytest.raises(AddressError):
            Subnet("10.0.0.1/24")

    @pytest.mark.parametrize("bad", ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "nope/8"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            Subnet(bad)

    def test_allocation_sequential_and_skips_network(self):
        s = Subnet("10.0.0.0/29")  # 6 usable hosts
        addrs = list(s.hosts(6))
        assert addrs[0] == IPv4Address("10.0.0.1")
        assert addrs[-1] == IPv4Address("10.0.0.6")
        with pytest.raises(AddressError):
            s.allocate()

    def test_allocated_addresses_in_subnet(self):
        s = Subnet("172.16.4.0/26")
        for a in s.hosts(10):
            assert a in s

    def test_cannot_allocate_from_host_prefix(self):
        with pytest.raises(AddressError):
            Subnet("10.0.0.0/31").allocate()

    def test_equality_and_hash(self):
        assert Subnet("10.0.0.0/24") == Subnet("10.0.0.0/24")
        assert len({Subnet("10.0.0.0/24"), Subnet("10.0.0.0/24")}) == 1
