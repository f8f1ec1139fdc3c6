package vcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Bytes is the resident payload size as accounted by Put callers.
	Bytes int64
	// Entries is the resident entry count.
	Entries int64
}

// Cache is an LRU keyed by string under one mutex, bounded by both entry
// count and total payload bytes. Both bounds are exact: the cache holds
// maxEntries entries before it evicts one. Values are stored as given; for
// shared values (cached verdicts) callers must treat them as immutable.
type Cache[V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	m          map[string]*list.Element
	lru        *list.List // front = most recently used

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	bytes     atomic.Int64
	entries   atomic.Int64
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// EntryOverhead is the heap the cache itself holds per entry beyond the
// key's bytes and the value: the LRU list element (48 B), the entry record
// (32 B for a pointer-sized V) and a map slot (25 B, over 25–50 B per
// entry as the map's load falls from 7/8 to 7/16 between doublings).
// Callers whose byte bound should bound memory add it to every Put's size.
const EntryOverhead = 112

// New builds a cache bounded by maxEntries entries and maxBytes payload
// bytes. Non-positive bounds are treated as 1 entry / 1 byte (an
// effectively disabled cache — callers wanting no cache should not
// construct one).
func New[V any](maxEntries int, maxBytes int64) *Cache[V] {
	return &Cache[V]{
		maxEntries: max(maxEntries, 1),
		maxBytes:   max(maxBytes, 1),
		m:          make(map[string]*list.Element),
		lru:        list.New(),
	}
}

// Get returns the cached value for key, refreshing its recency and
// counting the lookup as a hit or a miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	v, ok := c.Peek(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Peek is Get without the hit/miss accounting: for a caller re-probing a
// key whose lookup it has already counted.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put inserts (or refreshes) key with the given payload size, evicting
// least-recently-used entries until the cache fits both bounds again. A
// value larger than the whole byte budget is not cached at all —
// admitting it would evict every entry for one.
func (c *Cache[V]) Put(key string, val V, size int64) {
	size = max(size, 0)
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry[V])
		c.bytes.Add(size - e.size)
		e.val, e.size = val, size
		c.lru.MoveToFront(el)
	} else {
		c.m[key] = c.lru.PushFront(&entry[V]{key: key, val: val, size: size})
		c.bytes.Add(size)
		c.entries.Add(1)
	}
	for c.lru.Len() > c.maxEntries || c.bytes.Load() > c.maxBytes {
		e := c.lru.Remove(c.lru.Back()).(*entry[V])
		delete(c.m, e.key)
		c.bytes.Add(-e.size)
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
}

// Purge drops every entry (model reload, benchmarks). Eviction counters
// are not incremented: purged entries were not pushed out by pressure.
func (c *Cache[V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]*list.Element)
	c.lru.Init()
	c.bytes.Store(0)
	c.entries.Store(0)
}

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
		Entries:   c.entries.Load(),
	}
}
