"""Section II-E: why Osiris and Triad-NVM cannot recover an SIT.

A Bonsai Merkle tree is a pure function of its leaves, so those schemes
rebuild it bottom-up once the counters are recovered (argued in
DESIGN.md §7; no BMT is modelled here). An SIT node's MAC also needs its
*parent's* counter, so bottom-up reconstruction is ambiguous without
extra information, which is what STAR's LSBs provide.
"""

from repro.tree.sit import SITAuthenticator

KEY = b"bmt-test-key"


class TestSitCannotRebuildFromLeaves:
    def test_sit_macs_are_ambiguous_without_the_parent(self):
        auth = SITAuthenticator(KEY)
        counters = tuple(range(8))
        # the same node content yields *different* valid images under
        # different parent counters: leaves alone cannot decide
        image_a = auth.make_node_image((0, 0), counters, 5)
        image_b = auth.make_node_image((0, 0), counters, 6)
        assert image_a.mac != image_b.mac
        assert auth.verify_node_image((0, 0), image_a, 5)
        assert auth.verify_node_image((0, 0), image_b, 6)
        # and neither verifies under the other parent counter
        assert not auth.verify_node_image((0, 0), image_a, 6)
        assert not auth.verify_node_image((0, 0), image_b, 5)
