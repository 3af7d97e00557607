"""Cache substrate: set-associative arrays with LRU replacement."""
from .cache import CacheAccessStats, SetAssocCache
