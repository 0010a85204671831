"""Unit and property tests for the sparse memory model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functional.memory import PAGE_SIZE, Memory
from repro.workloads.base import list_workloads


def test_untouched_memory_reads_zero():
    memory = Memory()
    assert memory.read(0x1234, 8) == 0
    assert memory.read_byte(0) == 0
    assert memory.touched_pages() == 0


def test_byte_write_read_round_trip():
    memory = Memory()
    memory.write_byte(10, 0xAB)
    assert memory.read_byte(10) == 0xAB
    assert memory.read_byte(11) == 0


def test_word_write_is_little_endian():
    memory = Memory()
    memory.write_word(0x100, 0x0102030405060708)
    assert memory.read_byte(0x100) == 0x08
    assert memory.read_byte(0x107) == 0x01
    assert memory.read_word(0x100) == 0x0102030405060708


def test_cross_page_access():
    memory = Memory()
    address = PAGE_SIZE - 4
    memory.write(address, 8, 0x1122334455667788)
    assert memory.read(address, 8) == 0x1122334455667788
    assert memory.touched_pages() == 2


def test_initial_contents_constructor():
    memory = Memory({0x10: 0xFF, 0x11: 0x01})
    assert memory.read(0x10, 2) == 0x01FF


def test_copy_is_independent():
    memory = Memory()
    memory.write_word(0, 42)
    clone = memory.copy()
    clone.write_word(0, 7)
    assert memory.read_word(0) == 42
    assert clone.read_word(0) == 7


def test_equality_ignores_untouched_zero_pages():
    a = Memory()
    b = Memory()
    b.write_word(0x5000, 0)  # touches a page but stays all-zero
    assert a == b
    b.write_word(0x5000, 1)
    assert a != b


@settings(max_examples=100)
@given(
    address=st.integers(min_value=0, max_value=1 << 32),
    value=st.integers(min_value=0, max_value=(1 << 64) - 1),
    size=st.sampled_from([1, 4, 8]),
)
def test_write_then_read_returns_truncated_value(address, value, size):
    memory = Memory()
    memory.write(address, size, value)
    assert memory.read(address, size) == value & ((1 << (8 * size)) - 1)


@settings(max_examples=100)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4096 * 3),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=30,
    )
)
def test_memory_matches_reference_dict(writes):
    memory = Memory()
    reference: dict[int, int] = {}
    for address, value in writes:
        memory.write_byte(address, value)
        reference[address] = value
    for address, value in reference.items():
        assert memory.read_byte(address) == value


def test_initial_image_matches_byte_writes_on_every_workload():
    """The constructor's one-pass page build gives exactly the pages (and
    page order) of one ``write`` per initial byte."""
    for workload in list_workloads():
        initial = workload.build().initial_memory
        reference = Memory()
        for address, value in initial.items():
            reference.write(address, 1, value)
        built = Memory(initial)
        assert list(built._pages.items()) == list(reference._pages.items()), \
            workload.name
