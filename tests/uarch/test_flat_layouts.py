"""Property tests: the flat cache and BTB layouts behave like per-set lists.

:class:`~repro.uarch.cache.Cache` and
:class:`~repro.uarch.branch.BranchTargetBuffer` keep their state in the
compiled kernel's flat layout (one typed array of ``num_sets ×
associativity`` slots in MRU order, plus one length per set).  The
reference models below are the list-of-lists implementations that layout
replaced; random address and PC streams over small geometries must give
the same hits, misses, predicted targets and live ways at every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.branch import BranchTargetBuffer
from repro.uarch.cache import Cache
from repro.uarch.config import CacheConfig


class ListCache:
    """Reference model: one MRU-ordered list of tags per set."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.block_shift = config.block_bytes.bit_length() - 1
        self._sets = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, address: int) -> bool:
        block = address >> self.block_shift
        ways = self._sets[block % self.num_sets]
        tag = block // self.num_sets
        if ways and ways[0] == tag:
            self.hits += 1
            return True
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self.config.associativity:
            ways.pop()
        return False


class ListBTB:
    """Reference model: one MRU-ordered list of (pc, target) per set."""

    def __init__(self, entries: int, associativity: int):
        self.num_sets = max(1, entries // associativity)
        self.associativity = associativity
        self._sets = [[] for _ in range(self.num_sets)]

    def _set_for(self, pc: int) -> list:
        return self._sets[(pc >> 2) % self.num_sets]

    def predict(self, pc: int):
        ways = self._set_for(pc)
        for tag, target in ways:
            if tag == pc:
                ways.remove((tag, target))
                ways.insert(0, (tag, target))
                return target
        return None

    def update(self, pc: int, target) -> None:
        ways = self._set_for(pc)
        for entry in ways:
            if entry[0] == pc:
                ways.remove(entry)
                break
        ways.insert(0, (pc, target))
        if len(ways) > self.associativity:
            ways.pop()


def live_cache_ways(cache: Cache) -> list[list[int]]:
    assoc = cache.associativity
    return [cache.tags[s * assoc:s * assoc + cache.lengths[s]].tolist()
            for s in range(cache.num_sets)]


def live_btb_ways(btb: BranchTargetBuffer) -> list[list[tuple]]:
    ways = []
    for s in range(btb.num_sets):
        base = s * btb.associativity
        ways.append([
            (btb.tags[j], btb.targets[j] if btb.target_has[j] else None)
            for j in range(base, base + btb.lengths[s])])
    return ways


@settings(max_examples=150, deadline=None)
@given(sets=st.sampled_from([1, 2, 4, 8]),
       assoc=st.sampled_from([1, 2, 3, 4]),
       block=st.sampled_from([4, 16]),
       addresses=st.lists(st.integers(0, 1 << 10), max_size=120))
def test_flat_cache_matches_list_of_sets(sets, assoc, block, addresses):
    config = CacheConfig(sets * assoc * block, assoc, block, 1)
    flat, reference = Cache(config), ListCache(config)
    for address in addresses:
        assert flat.lookup(address) == reference.lookup(address)
        assert (flat.hits, flat.misses) == (reference.hits, reference.misses)
        assert live_cache_ways(flat) == reference._sets
        assert flat.contains(address)


@settings(max_examples=150, deadline=None)
@given(entries=st.sampled_from([1, 4, 6, 8, 16]),
       assoc=st.sampled_from([1, 2, 4]),
       steps=st.lists(
           st.tuples(st.sampled_from(["predict", "update", "check"]),
                     st.integers(0, 40).map(lambda i: 4 * i),
                     st.one_of(st.none(), st.integers(0, 1 << 20))),
           max_size=120))
def test_flat_btb_matches_list_of_sets(entries, assoc, steps):
    flat, reference = (BranchTargetBuffer(entries, assoc),
                       ListBTB(entries, assoc))
    for action, pc, target in steps:
        if action in ("predict", "check"):
            assert flat.predict(pc) == reference.predict(pc)
        if action in ("update", "check"):
            flat.update(pc, target)
            reference.update(pc, target)
        assert live_btb_ways(flat) == reference._sets
