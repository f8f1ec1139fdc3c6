package cluster

import (
	"sort"
	"strconv"
)

// virtualNodes is the per-member virtual-node count on the ring. 128
// points per member keeps the largest/smallest ownership share within
// ~±20% of uniform for small fleets (see ring_test.go) while the whole
// ring for a 16-replica fleet still fits in one cache line count that a
// binary search traverses in ~11 probes.
const virtualNodes = 128

// Ring is an immutable consistent-hash ring over the fleet's advertised
// peer addresses. Keys (verdict-cache keys) hash to the first virtual
// node clockwise; adding or removing a member moves only the keys that
// member gains or loses (~K/N), never reshuffling the rest — which is
// what keeps a rolling restart from stampeding the detection path.
//
// Hashing is FNV-1a 64 with a Murmur3 finalizer (ringHash), chosen over
// hash/maphash deliberately: the ring must agree ACROSS processes (every
// replica computes ownership independently), and maphash seeds are
// per-process random.
type Ring struct {
	points  []ringPoint
	members []string // sorted, deduplicated
}

type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// fnv1a64 is the 64-bit FNV-1a hash of s. Inlined rather than hash/fnv
// so ring lookups on the serving path allocate nothing.
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the Murmur3 64-bit finalizer. FNV-1a alone diffuses poorly
// over near-identical inputs — the vnode labels "addr#0".."addr#127"
// differ only in their suffix, and without this avalanche step one
// member's ring points cluster together badly enough to skew ownership
// shares by >2x (caught by TestRingUniformDistribution).
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringHash is the process-stable hash placing keys and vnodes on the
// ring.
func ringHash(s string) uint64 { return mix64(fnv1a64(s)) }

// NewRing builds a ring over members, virtualNodes points each. Members
// are deduplicated and sorted, so two replicas given the same set in any
// order build identical rings.
func NewRing(members []string) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		points:  make([]ringPoint, 0, len(uniq)*virtualNodes),
	}
	for i, m := range uniq {
		for v := 0; v < virtualNodes; v++ {
			h := ringHash(m + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, member: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// Hash collisions between members resolve by member order so the
		// ring stays deterministic regardless of input order.
		return pa.member < pb.member
	})
	return r
}

// Members returns the ring's member set (sorted).
func (r *Ring) Members() []string { return r.members }

// Owner returns the member owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	// First point clockwise from h, wrapping at the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member]
}
