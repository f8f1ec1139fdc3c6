package vcache

import (
	"container/list"
	"hash/maphash"
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

// Cache is a sharded, mutex-striped LRU keyed by string, bounded by both
// entry count and total payload bytes. Each shard owns an independent
// mutex, map and recency list, so concurrent serving goroutines contend
// only when their keys land on the same stripe. Values are stored as
// given; for shared values (cached verdicts) callers must treat them as
// immutable.
type Cache[V any] struct {
	shards []shard[V]
	seed   maphash.Seed

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	bytes     atomic.Int64
	entries   atomic.Int64
}

type shard[V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	m          map[string]*list.Element
	lru        *list.List // front = most recently used
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// DefaultShards stripes the cache wide enough that a serving worker pool
// rarely contends on one mutex.
const DefaultShards = 16

// New builds a cache bounded by maxEntries entries and maxBytes payload
// bytes across DefaultShards stripes. Non-positive bounds are treated as 1
// entry / 1 byte (an effectively disabled cache — callers wanting no cache
// should not construct one).
func New[V any](maxEntries int, maxBytes int64) *Cache[V] {
	return NewSharded[V](maxEntries, maxBytes, DefaultShards)
}

// NewSharded is New with an explicit stripe count (tests use 1 shard for
// deterministic eviction order). Budgets are split evenly across shards.
func NewSharded[V any](maxEntries int, maxBytes int64, shards int) *Cache[V] {
	if shards < 1 {
		shards = 1
	}
	perEntries := maxEntries / shards
	if perEntries < 1 {
		perEntries = 1
	}
	perBytes := maxBytes / int64(shards)
	if perBytes < 1 {
		perBytes = 1
	}
	c := &Cache[V]{shards: make([]shard[V], shards), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i] = shard[V]{
			maxEntries: perEntries,
			maxBytes:   perBytes,
			m:          make(map[string]*list.Element),
			lru:        list.New(),
		}
	}
	return c
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
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
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put inserts (or refreshes) key with the given payload size, evicting
// least-recently-used entries until the shard fits both bounds again. A
// value larger than a whole shard's byte budget is not cached at all —
// admitting it would evict the entire stripe for one entry.
func (c *Cache[V]) Put(key string, val V, size int64) {
	if size < 0 {
		size = 0
	}
	s := c.shardFor(key)
	if size > s.maxBytes {
		return
	}
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*entry[V])
		s.bytes += size - e.size
		c.bytes.Add(size - e.size)
		e.val, e.size = val, size
		s.lru.MoveToFront(el)
	} else {
		s.m[key] = s.lru.PushFront(&entry[V]{key: key, val: val, size: size})
		s.bytes += size
		c.bytes.Add(size)
		c.entries.Add(1)
	}
	for s.lru.Len() > s.maxEntries || s.bytes > s.maxBytes {
		c.evictOldest(s)
	}
	s.mu.Unlock()
}

// evictOldest removes the LRU entry of s. Caller holds s.mu.
func (c *Cache[V]) evictOldest(s *shard[V]) {
	el := s.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry[V])
	s.lru.Remove(el)
	delete(s.m, e.key)
	s.bytes -= e.size
	c.bytes.Add(-e.size)
	c.entries.Add(-1)
	c.evictions.Add(1)
}

// Purge drops every entry (model reload, benchmarks). Eviction counters
// are not incremented: purged entries were not pushed out by pressure.
func (c *Cache[V]) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := int64(s.lru.Len())
		s.m = make(map[string]*list.Element)
		s.lru.Init()
		c.bytes.Add(-s.bytes)
		s.bytes = 0
		c.entries.Add(-n)
		s.mu.Unlock()
	}
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
