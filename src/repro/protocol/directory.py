"""Dynamic pointer allocation directory (Simoni's scheme, Section 3.3).

Each 128-byte line of a node's local memory has an 8-byte *directory header*
holding status bits and the head of a linked list of sharers.  The links live
in a per-node *link store* in main memory, managed with a free list.  The
protocol processor reaches both structures through the MAGIC data cache, so
every directory operation here reports the protocol-memory addresses it
touched; the MAGIC model replays those through the MDC to charge miss
penalties and memory bandwidth.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..common.errors import ConfigError, ProtocolError
from ..common.units import CACHE_LINE_BYTES, DIRECTORY_HEADER_BYTES

__all__ = ["DirectoryEntry", "Directory", "LinkStore"]

LINK_BYTES = 8


class LinkStore:
    """Pool of sharer-list links with a free list, as in dynamic pointer
    allocation.  Each link is (node, next_index).

    The pool is materialised on demand: ``_node``/``_next`` grow by one
    slot each time a never-used link is handed out, and ``_free`` holds
    only links that have been freed.  This hands out the same indices, in
    the same order, as a free list pre-filled with ``capacity - 1 .. 0``:
    fresh links come in ascending order, and freed links are reused LIFO
    first.  A default machine touches a handful of links per node out of
    64K, so nothing is paid for the unused ones.
    """

    def __init__(self, capacity: int, base_addr: int):
        if capacity < 1:
            raise ConfigError("link store needs at least one link")
        self.capacity = capacity
        self.base_addr = base_addr
        self._node: List[int] = []
        self._next: List[Optional[int]] = []
        self._free: List[int] = []
        self.peak_used = 0
        self.total_allocated = 0
        self.total_freed = 0

    @property
    def used(self) -> int:
        return len(self._node) - len(self._free)

    def addr_of(self, index: int) -> int:
        return self.base_addr + index * LINK_BYTES

    def allocate(self, node: int, next_index: Optional[int]) -> int:
        if self._free:
            index = self._free.pop()
            self._node[index] = node
            self._next[index] = next_index
        else:
            index = len(self._node)
            if index == self.capacity:
                raise ProtocolError("directory link store exhausted")
            self._node.append(node)
            self._next.append(next_index)
        self.total_allocated += 1
        self.peak_used = max(self.peak_used, self.used)
        return index

    def free(self, index: int) -> None:
        self._free.append(index)
        self.total_freed += 1

    def node_at(self, index: int) -> int:
        return self._node[index]

    def next_of(self, index: int) -> Optional[int]:
        return self._next[index]

    def set_next(self, index: int, next_index: Optional[int]) -> None:
        self._next[index] = next_index


class DirectoryEntry:
    """The in-memory directory header for one line."""

    __slots__ = ("dirty", "owner", "head", "pending", "deferred")

    def __init__(self) -> None:
        self.dirty = False
        self.owner: Optional[int] = None
        self.head: Optional[int] = None     # index into the link store
        self.pending = False                # three-hop transaction in flight
        # Messages replayed when the entry is stable; the deque is made by
        # the first defer, so None reads as empty.
        self.deferred: Optional[Deque] = None

    @property
    def is_uncached(self) -> bool:
        return not self.dirty and self.head is None

    def defer(self, msg) -> None:
        """Queue ``msg`` for replay once the entry is stable."""
        if self.deferred is None:
            self.deferred = deque()
        self.deferred.append(msg)


class Directory:
    """Directory state for all lines homed at one node."""

    def __init__(self, node_id: int, memory_bytes: int, n_links: int):
        self.node_id = node_id
        self.memory_bytes = memory_bytes
        self.n_lines = memory_bytes // CACHE_LINE_BYTES
        # Protocol data sits past the data region in the node's address map;
        # only the MDC cares about these addresses.
        self.header_base = memory_bytes
        link_base = self.header_base + self.n_lines * DIRECTORY_HEADER_BYTES
        self.links = LinkStore(n_links, link_base)
        self._entries: dict = {}
        # State-transition counters, harvested by the metrics registry.
        self.n_add_sharer = 0
        self.n_remove_sharer = 0
        self.n_clear_sharers = 0
        self.n_set_dirty = 0
        self.n_clear_dirty = 0

    # -- addressing -----------------------------------------------------------

    def local_line_index(self, line_addr: int) -> int:
        index = (line_addr - self.node_id * self.memory_bytes) // CACHE_LINE_BYTES
        if not 0 <= index < self.n_lines:
            raise ProtocolError(
                f"line {line_addr:#x} is not homed at node {self.node_id}"
            )
        return index

    def header_addr(self, line_addr: int) -> int:
        """Protocol-memory address of the line's directory header."""
        return self.header_base + self.local_line_index(line_addr) * DIRECTORY_HEADER_BYTES

    # -- entry access -----------------------------------------------------------

    def entry(self, line_addr: int) -> DirectoryEntry:
        self.local_line_index(line_addr)  # validates homing
        entry = self._entries.get(line_addr)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[line_addr] = entry
        return entry

    def sharers(self, line_addr: int) -> List[int]:
        """Sharer list in link order (head first)."""
        entry = self.entry(line_addr)
        result: List[int] = []
        index = entry.head
        while index is not None:
            result.append(self.links.node_at(index))
            index = self.links.next_of(index)
        return result

    # -- mutating operations ------------------------------------------------------
    # Each returns (result, touched_addrs): the protocol-memory addresses the
    # PP read or wrote, in access order, for MDC simulation.

    def add_sharer(self, line_addr: int, node: int) -> Tuple[bool, List[int]]:
        """Prepend ``node`` to the sharer list; returns (added, addrs)."""
        self.n_add_sharer += 1
        entry = self.entry(line_addr)
        touched = [self.header_addr(line_addr)]
        # The handler scans for duplicates only when the protocol can re-add
        # (e.g. a re-read after a hint raced); scanning touches links.
        index = entry.head
        while index is not None:
            touched.append(self.links.addr_of(index))
            if self.links.node_at(index) == node:
                return False, touched
            index = self.links.next_of(index)
        new_index = self.links.allocate(node, entry.head)
        entry.head = new_index
        touched.append(self.links.addr_of(new_index))
        return True, touched

    def remove_sharer(self, line_addr: int, node: int) -> Tuple[Optional[int], List[int]]:
        """Unlink ``node``; returns (1-based position or None, addrs)."""
        self.n_remove_sharer += 1
        entry = self.entry(line_addr)
        touched = [self.header_addr(line_addr)]
        prev: Optional[int] = None
        index = entry.head
        position = 0
        while index is not None:
            position += 1
            touched.append(self.links.addr_of(index))
            if self.links.node_at(index) == node:
                nxt = self.links.next_of(index)
                if prev is None:
                    entry.head = nxt
                else:
                    self.links.set_next(prev, nxt)
                self.links.free(index)
                return position, touched
            prev = index
            index = self.links.next_of(index)
        return None, touched

    def clear_sharers(self, line_addr: int) -> Tuple[List[int], List[int]]:
        """Drop the whole list (invalidation); returns (nodes, addrs)."""
        self.n_clear_sharers += 1
        entry = self.entry(line_addr)
        touched = [self.header_addr(line_addr)]
        nodes: List[int] = []
        index = entry.head
        while index is not None:
            touched.append(self.links.addr_of(index))
            nodes.append(self.links.node_at(index))
            nxt = self.links.next_of(index)
            self.links.free(index)
            index = nxt
        entry.head = None
        return nodes, touched

    def set_dirty(self, line_addr: int, owner: int) -> List[int]:
        self.n_set_dirty += 1
        entry = self.entry(line_addr)
        if entry.head is not None:
            raise ProtocolError(
                f"line {line_addr:#x} set dirty with live sharer list"
            )
        entry.dirty = True
        entry.owner = owner
        return [self.header_addr(line_addr)]

    def clear_dirty(self, line_addr: int) -> List[int]:
        self.n_clear_dirty += 1
        entry = self.entry(line_addr)
        entry.dirty = False
        entry.owner = None
        return [self.header_addr(line_addr)]

    # -- integrity ------------------------------------------------------------

    def check_invariants(self, line_addr: int) -> None:
        """Raise ProtocolError if the entry violates directory invariants."""
        entry = self.entry(line_addr)
        if entry.dirty:
            if entry.owner is None:
                raise ProtocolError(f"dirty line {line_addr:#x} without owner")
            if entry.head is not None:
                raise ProtocolError(f"dirty line {line_addr:#x} with sharers")
        else:
            if entry.owner is not None:
                raise ProtocolError(f"clean line {line_addr:#x} with owner set")
        seen = set()
        for node in self.sharers(line_addr):
            if node in seen:
                raise ProtocolError(
                    f"node {node} appears twice on sharer list of {line_addr:#x}"
                )
            seen.add(node)
