"""One memo table type for the recursions and the result cache.

Every expensive result is keyed by a small tuple of integers: the
hypersimplex (k, n), a product of two hypersimplices, the cuspidal
(k, n, r, h) and the modular-pair term (alpha, beta, a, b, n).  Each
table is a ``Memo``, a dict and the function it caches; it checks no
key.  The cache reads and fills three of the tables, and its kind table
``cli._KINDS`` holds the key check it runs on each record.
"""


class Memo:
    """Results of ``compute(*key)`` by key."""

    def __init__(self, compute):
        self.compute = compute
        self._table = {}

    def lookup(self, key):
        """The result for key, computed and stored on a miss."""
        got = self._table.get(key)
        if got is None:
            got = self.put(key, self.compute(*key))
        return got

    def put(self, key, value):
        """Store value unless key is present; returns what is stored."""
        return self._table.setdefault(key, value)

    def snapshot(self):
        return dict(self._table)

    def clear(self):
        self._table.clear()
