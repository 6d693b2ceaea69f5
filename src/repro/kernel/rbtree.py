"""A red-black tree, as used by CFS for its runnable-task timeline.

The Linux CFS class keeps runnable entities in a red-black tree ordered
by virtual runtime; the "leftmost" entity is the next to run (paper
§III).  This is a from-scratch CLRS-style implementation with insert,
delete, minimum and ordered iteration (forward and reverse),
parameterized by an explicit sort key so it is reusable (and
property-testable) outside the scheduler.

Keys must be totally ordered; duplicate keys are allowed (insertion
order among equal keys is *not* guaranteed, callers that need stability
should extend the key with a tie-breaker, as CFS does with the pid).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

RED = True
BLACK = False


class RBNode:
    """A tree node holding an arbitrary payload and its sort key."""

    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value
        self.color = RED
        self.left: Optional["RBNode"] = None
        self.right: Optional["RBNode"] = None
        self.parent: Optional["RBNode"] = None


class RBTree:
    """Red-black tree with O(log n) insert/delete/min."""

    def __init__(self) -> None:
        self.root: Optional[RBNode] = None
        self._size = 0
        self._leftmost: Optional[RBNode] = None

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> RBNode:
        """Insert ``value`` under ``key``; returns the node handle."""
        node = RBNode(key, value)
        parent = None
        cur = self.root
        leftmost = True
        while cur is not None:
            parent = cur
            if key < cur.key:
                cur = cur.left
            else:
                cur = cur.right
                leftmost = False
        node.parent = parent
        if parent is None:
            self.root = node
        elif key < parent.key:
            parent.left = node
        else:
            parent.right = node
        if leftmost:
            self._leftmost = node
        self._size += 1
        self._insert_fixup(node)
        return node

    def minimum(self) -> Optional[RBNode]:
        """The node with the smallest key (the CFS "leftmost task")."""
        return self._leftmost

    def pop_min(self) -> Optional[RBNode]:
        """Remove and return the minimum node."""
        node = self._leftmost
        if node is not None:
            self.delete(node)
        return node

    def delete(self, node: RBNode) -> None:
        """Remove ``node`` (a handle previously returned by insert)."""
        if node is self._leftmost:
            self._leftmost = self._successor(node)
        self._size -= 1

        y = node
        y_color = y.color
        if node.left is None:
            x, x_parent = node.right, node.parent
            self._transplant(node, node.right)
        elif node.right is None:
            x, x_parent = node.left, node.parent
            self._transplant(node, node.left)
        else:
            y = self._subtree_min(node.right)
            y_color = y.color
            x = y.right
            if y.parent is node:
                x_parent = y
            else:
                x_parent = y.parent
                self._transplant(y, y.right)
                y.right = node.right
                y.right.parent = y
            self._transplant(node, y)
            y.left = node.left
            y.left.parent = y
            y.color = node.color
        if y_color == BLACK:
            self._delete_fixup(x, x_parent)
        node.left = node.right = node.parent = None

    def items(self) -> Iterator[tuple]:
        """In-order (key, value) traversal."""
        for node in self._walk(self.root):
            yield node.key, node.value

    def values(self) -> Iterator[Any]:
        """In-order traversal of stored values."""
        for node in self._walk(self.root):
            yield node.value

    def reversed_values(self) -> Iterator[Any]:
        """Stored values from the largest key down, walked lazily along
        parent pointers: taking the first value costs O(log n), not the
        full traversal.  The tree must not change while the iterator is
        still in use."""
        node = self.root
        if node is None:
            return
        while node.right is not None:
            node = node.right
        while node is not None:
            yield node.value
            if node.left is not None:
                node = node.left
                while node.right is not None:
                    node = node.right
            else:
                parent = node.parent
                while parent is not None and node is parent.left:
                    node, parent = parent, parent.parent
                node = parent

    # ------------------------------------------------------------------
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> int:
        """Verify the red-black properties; returns the black height.

        Raises ``AssertionError`` on violation.  Checks: root is black,
        no red node has a red child, every root-to-leaf path has the
        same black count, keys are in order, and parent pointers and the
        cached leftmost/size are consistent.
        """
        if self.root is not None:
            assert self.root.color == BLACK, "root must be black"
            assert self.root.parent is None, "root has a parent"
        count = sum(1 for _ in self._walk(self.root))
        assert count == self._size, f"size mismatch {count} != {self._size}"
        expected_min = None
        cur = self.root
        while cur is not None:
            expected_min = cur
            cur = cur.left
        assert self._leftmost is expected_min, "cached leftmost is stale"
        keys = [n.key for n in self._walk(self.root)]
        assert keys == sorted(keys), "in-order keys not sorted"
        return self._black_height(self.root)

    def _black_height(self, node: Optional[RBNode]) -> int:
        if node is None:
            return 1
        if node.color == RED:
            for child in (node.left, node.right):
                assert child is None or child.color == BLACK, "red-red violation"
        for child in (node.left, node.right):
            if child is not None:
                assert child.parent is node, "broken parent pointer"
        lh = self._black_height(node.left)
        rh = self._black_height(node.right)
        assert lh == rh, "unequal black heights"
        return lh + (1 if node.color == BLACK else 0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _subtree_min(node: RBNode) -> RBNode:
        while node.left is not None:
            node = node.left
        return node

    @staticmethod
    def _successor(node: RBNode) -> Optional[RBNode]:
        if node.right is not None:
            return RBTree._subtree_min(node.right)
        parent = node.parent
        while parent is not None and node is parent.right:
            node, parent = parent, parent.parent
        return parent

    def _walk(self, node: Optional[RBNode]) -> Iterator[RBNode]:
        if node is None:
            return
        yield from self._walk(node.left)
        yield node
        yield from self._walk(node.right)

    def _transplant(self, u: RBNode, v: Optional[RBNode]) -> None:
        if u.parent is None:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        if v is not None:
            v.parent = u.parent

    def _rotate_left(self, x: RBNode) -> None:
        y = x.right
        assert y is not None
        x.right = y.left
        if y.left is not None:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is None:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: RBNode) -> None:
        y = x.left
        assert y is not None
        x.left = y.right
        if y.right is not None:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is None:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    def _insert_fixup(self, z: RBNode) -> None:
        while z.parent is not None and z.parent.color == RED:
            gp = z.parent.parent
            assert gp is not None  # red parent implies grandparent exists
            if z.parent is gp.left:
                uncle = gp.right
                if uncle is not None and uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_right(gp)
            else:
                uncle = gp.left
                if uncle is not None and uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    gp.color = RED
                    self._rotate_left(gp)
        assert self.root is not None
        self.root.color = BLACK

    def _delete_fixup(
        self, x: Optional[RBNode], x_parent: Optional[RBNode]
    ) -> None:
        while x is not self.root and (x is None or x.color == BLACK):
            if x_parent is None:
                break
            if x is x_parent.left:
                w = x_parent.right
                if w is not None and w.color == RED:
                    w.color = BLACK
                    x_parent.color = RED
                    self._rotate_left(x_parent)
                    w = x_parent.right
                if w is None:
                    x, x_parent = x_parent, x_parent.parent
                    continue
                wl_black = w.left is None or w.left.color == BLACK
                wr_black = w.right is None or w.right.color == BLACK
                if wl_black and wr_black:
                    w.color = RED
                    x, x_parent = x_parent, x_parent.parent
                else:
                    if wr_black:
                        if w.left is not None:
                            w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x_parent.right
                    assert w is not None
                    w.color = x_parent.color
                    x_parent.color = BLACK
                    if w.right is not None:
                        w.right.color = BLACK
                    self._rotate_left(x_parent)
                    x = self.root
                    x_parent = None
            else:
                w = x_parent.left
                if w is not None and w.color == RED:
                    w.color = BLACK
                    x_parent.color = RED
                    self._rotate_right(x_parent)
                    w = x_parent.left
                if w is None:
                    x, x_parent = x_parent, x_parent.parent
                    continue
                wl_black = w.left is None or w.left.color == BLACK
                wr_black = w.right is None or w.right.color == BLACK
                if wl_black and wr_black:
                    w.color = RED
                    x, x_parent = x_parent, x_parent.parent
                else:
                    if wl_black:
                        if w.right is not None:
                            w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x_parent.left
                    assert w is not None
                    w.color = x_parent.color
                    x_parent.color = BLACK
                    if w.left is not None:
                        w.left.color = BLACK
                    self._rotate_right(x_parent)
                    x = self.root
                    x_parent = None
        if x is not None:
            x.color = BLACK
