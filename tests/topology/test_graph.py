"""Unit tests for the topology graph model."""

import pytest

from repro.topology.graph import FaultScene, Link, Topology


@pytest.fixture()
def square():
    """A 4-cycle with one diagonal: A-B-C-D-A plus A-C."""
    topology = Topology("square")
    for a, b in [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"), ("A", "C")]:
        topology.add_link(a, b, latency=1e-3)
    return topology


class TestLink:
    def test_normalized_endpoints(self):
        assert Link("B", "A").endpoints == ("A", "B")

    def test_other(self):
        link = Link("A", "B")
        assert link.other("A") == "B"
        assert link.other("B") == "A"
        with pytest.raises(ValueError):
            link.other("C")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link("A", "A")

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Link("A", "B", latency=-1)

    def test_equality_ignores_direction(self):
        assert Link("A", "B") == Link("B", "A")


class TestTopology:
    def test_counts(self, square):
        assert square.num_devices == 4
        assert square.num_links == 5

    def test_duplicate_link_rejected(self, square):
        with pytest.raises(ValueError):
            square.add_link("A", "B")
        with pytest.raises(ValueError):
            square.add_link("B", "A")

    def test_neighbors(self, square):
        assert set(square.neighbors("A")) == {"B", "C", "D"}

    def test_neighbors_unknown_device(self, square):
        with pytest.raises(KeyError):
            square.neighbors("Z")

    def test_neighbors_under_fault(self, square):
        scene = FaultScene([("A", "B"), ("C", "A")])
        assert set(square.neighbors("A", scene)) == {"D"}

    def test_has_link(self, square):
        assert square.has_link("C", "A")
        assert not square.has_link("B", "D")

    def test_prefix_attachment(self, square):
        square.attach_prefix("A", "10.0.0.0/24")
        square.attach_prefix("A", "10.0.1.0/24")
        assert square.external_prefixes("A") == ("10.0.0.0/24", "10.0.1.0/24")
        assert square.devices_with_prefixes() == ("A",)

    def test_attach_prefix_unknown_device(self, square):
        with pytest.raises(KeyError):
            square.attach_prefix("Z", "10.0.0.0/24")

    def test_copy_is_deep(self, square):
        square.attach_prefix("A", "10.0.0.0/24")
        clone = square.copy()
        clone.add_link("B", "D")
        assert not square.has_link("B", "D")
        assert clone.external_prefixes("A") == ("10.0.0.0/24",)


class TestPaths:
    def test_hop_distances(self, square):
        distances = square.hop_distances("A")
        assert distances == {"A": 0, "B": 1, "C": 1, "D": 1}

    def test_shortest_hop_count(self, square):
        assert square.hop_distances("B").get("D") == 2

    def test_shortest_hop_count_disconnected(self):
        topology = Topology()
        topology.add_device("X")
        topology.add_device("Y")
        assert topology.hop_distances("X").get("Y") is None

    def test_latency_distances(self, square):
        distances = square.latency_distances("A")
        assert distances["A"] == 0
        assert distances["B"] == pytest.approx(1e-3)
        assert distances["D"] == pytest.approx(1e-3)

    def test_connectivity(self, square):
        assert square.is_connected()
        cut = FaultScene([("A", "D"), ("C", "D")])
        assert not square.is_connected(cut)

    def test_diameter(self, square):
        assert square.diameter_hops() == 2


class TestFaultScene:
    def test_normalization(self):
        scene = FaultScene([("B", "A")])
        assert scene.is_failed("A", "B")
        assert scene.is_failed("B", "A")

    def test_subset(self):
        small = FaultScene([("A", "B")])
        large = FaultScene([("A", "B"), ("C", "D")])
        assert small.is_subset_of(large)
        assert not large.is_subset_of(small)

    def test_equality_and_hash(self):
        assert FaultScene([("A", "B")]) == FaultScene([("B", "A")])
        assert len({FaultScene([("A", "B")]), FaultScene([("B", "A")])}) == 1

    def test_iteration_sorted(self):
        scene = FaultScene([("Z", "Y"), ("A", "B")])
        assert list(scene) == [("A", "B"), ("Y", "Z")]


class TestRetainPrefixes:
    def test_prunes_to_the_named_owners(self, square):
        square.attach_prefix("A", "10.0.0.0/24")
        square.attach_prefix("B", "10.0.1.0/24")
        square.attach_prefix("C", "10.0.2.0/24")
        square.retain_prefixes(["A", "C"])
        assert square.devices_with_prefixes() == ("A", "C")
        assert square.external_prefixes("B") == ()
        assert square.external_prefixes("A") == ("10.0.0.0/24",)

    def test_graph_structure_is_untouched(self, square):
        square.attach_prefix("A", "10.0.0.0/24")
        devices, links = square.num_devices, square.num_links
        square.retain_prefixes([])
        assert square.devices_with_prefixes() == ()
        assert (square.num_devices, square.num_links) == (devices, links)

    def test_owner_without_prefixes_is_a_noop(self, square):
        square.attach_prefix("A", "10.0.0.0/24")
        square.retain_prefixes(["A", "D"])  # D owns nothing: allowed
        assert square.devices_with_prefixes() == ("A",)

    def test_unknown_owner_rejected(self, square):
        with pytest.raises(KeyError):
            square.retain_prefixes(["A", "nope"])
