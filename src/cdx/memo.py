"""One memo table type for the recursions and the result cache.

Every expensive result is keyed by a small tuple of integers: the
hypersimplex (k, n), a product of two hypersimplices, the cuspidal
(k, n, r, h) and the modular-pair term (alpha, beta, a, b, n).  Each
table is a ``Memo``, a dict and the function it caches; it checks no
key.  The public entries check and canonicalize a key before they store
under it, and the cache's kind table ``cli._KINDS`` holds the key check
it runs on each record, so a table holds only canonical keys that
passed their check.  That lets an entry try the key as given with
``get`` first: a hit needs no check, and a miss goes on to the check.
"""


class Memo:
    """Results of ``compute(*key)`` by key."""

    def __init__(self, compute):
        self.compute = compute
        self._table = {}
        # get(key): the stored result, or None; computes nothing.  It is
        # the dict's own get, bound once, as the hit path of the public
        # entries runs it on every call.
        self.get = self._table.get

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
        self._table.clear()  # the same dict, so get stays bound to it
