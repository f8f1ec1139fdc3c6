package cluster

import (
	"fmt"
	"testing"
)

// syntheticKeys generates n deterministic verdict-cache-shaped keys.
func syntheticKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fp%02d:%064x", i%7, i*2654435761)
	}
	return keys
}

// ringWith returns a new ring over r's members plus member.
func ringWith(r *Ring, member string) *Ring {
	return NewRing(append(append([]string(nil), r.Members()...), member))
}

// ringWithout returns a new ring over r's members minus member.
func ringWithout(r *Ring, member string) *Ring {
	kept := make([]string, 0, len(r.Members()))
	for _, m := range r.Members() {
		if m != member {
			kept = append(kept, m)
		}
	}
	return NewRing(kept)
}

func fleet(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:7401", i+1)
	}
	return addrs
}

// TestRingDeterministic: two replicas handed the same member set in
// different orders (with duplicates and blanks) must compute identical
// ownership for every key — the whole design rests on it.
func TestRingDeterministic(t *testing.T) {
	members := fleet(5)
	a := NewRing(members)
	shuffled := []string{members[3], "", members[1], members[4], members[0], members[2], members[1]}
	b := NewRing(shuffled)
	for _, k := range syntheticKeys(2000) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("rings disagree on %q: %q vs %q", k, ao, bo)
		}
	}
}

// TestRingUniformDistribution: with virtualNodes per member, every member's
// key share should be within a reasonable band of uniform (the vnode
// count was chosen for ~±20%; allow ±35% so hash luck on synthetic keys
// cannot flake the suite).
func TestRingUniformDistribution(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		members := fleet(n)
		r := NewRing(members)
		keys := syntheticKeys(20000)
		counts := make(map[string]int, n)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d members own keys", n, len(counts))
		}
		want := float64(len(keys)) / float64(n)
		for m, c := range counts {
			share := float64(c) / want
			if share < 0.65 || share > 1.35 {
				t.Errorf("n=%d: member %s owns %.0f%% of uniform share (%d keys)", n, m, share*100, c)
			}
		}
	}
}

// TestRingJoinMovesKOverN: adding one member to an N-member ring must
// move roughly K/(N+1) keys — all of them TO the new member — and leave
// every other assignment alone.
func TestRingJoinMovesKOverN(t *testing.T) {
	members := fleet(4)
	before := NewRing(members)
	joiner := "10.0.0.99:7401"
	after := ringWith(before, joiner)
	keys := syntheticKeys(20000)
	moved := 0
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == oa {
			continue
		}
		moved++
		if oa != joiner {
			t.Fatalf("key %q moved %q -> %q: join may only move keys to the joiner", k, ob, oa)
		}
	}
	ideal := float64(len(keys)) / float64(len(members)+1)
	if f := float64(moved) / ideal; f < 0.6 || f > 1.4 {
		t.Errorf("join moved %d keys, want ~%.0f (K/N+1): ratio %.2f", moved, ideal, f)
	}
}

// TestRingLeaveMovesKOverN: removing a member must move exactly the
// keys it owned, redistributing them without disturbing the rest.
func TestRingLeaveMovesKOverN(t *testing.T) {
	members := fleet(5)
	before := NewRing(members)
	leaver := members[2]
	after := ringWithout(before, leaver)
	keys := syntheticKeys(20000)
	moved := 0
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == oa {
			continue
		}
		moved++
		if ob != leaver {
			t.Fatalf("key %q moved %q -> %q: leave may only move the leaver's keys", k, ob, oa)
		}
		if oa == leaver {
			t.Fatalf("key %q still owned by removed member", k)
		}
	}
	ideal := float64(len(keys)) / float64(len(members))
	if f := float64(moved) / ideal; f < 0.6 || f > 1.4 {
		t.Errorf("leave moved %d keys, want ~%.0f (K/N): ratio %.2f", moved, ideal, f)
	}
}

func TestRingEdgeCases(t *testing.T) {
	if got := NewRing(nil).Owner("k"); got != "" {
		t.Errorf("empty ring Owner = %q, want \"\"", got)
	}
	solo := NewRing([]string{"a:1"})
	for _, k := range syntheticKeys(100) {
		if got := solo.Owner(k); got != "a:1" {
			t.Fatalf("single-member ring Owner(%q) = %q", k, got)
		}
	}
	dup := NewRing([]string{"a:1", "a:1", "b:2"})
	if got := len(dup.Members()); got != 2 {
		t.Errorf("deduplicated member count = %d, want 2", got)
	}
}
