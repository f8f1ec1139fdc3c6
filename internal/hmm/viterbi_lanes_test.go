package hmm

import (
	"math"
	"math/rand"
	"testing"
)

// laneSpecials are the values FuzzViterbiLanes plants among the random
// ones: signed zeros, infinities (−Inf is the score of an impossible
// transition), NaNs, subnormals and the largest finite magnitudes, whose
// sums overflow.
var laneSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8000000000000), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64,
}

// viterbiCase derives one transition step from fuzz arguments: n states
// (1 to 64, any remainder mod 4), predecessor scores and a row-major
// transition table. With coarse set, values are small integers, so ties
// between predecessors are common; specials are planted where plant says
// (two bytes each: position, then which special).
func viterbiCase(nB uint8, seed int64, coarse bool, plant []byte) (prev, trans []float64) {
	n := 1 + int(nB)%64
	rng := rand.New(rand.NewSource(seed))
	draw := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			if coarse {
				v[i] = float64(rng.Intn(5) - 4)
			} else {
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		return v
	}
	prev, trans = draw(n), draw(n*n)
	for k := 0; k+1 < len(plant); k += 2 {
		v := trans
		if plant[k]&1 == 0 {
			v = prev
		}
		v[rng.Intn(len(v))] = laneSpecials[int(plant[k+1])%len(laneSpecials)]
	}
	return prev, trans
}

// checkLanes holds bestPredecessors (the lane kernel on whole blocks of
// 4 states, where the CPU has one) to the Go kernel: every score bit for
// bit and every back-pointer. A score is never NaN (a NaN sum loses
// every comparison), so no NaN payload is left to differ.
func checkLanes(t *testing.T, prev, trans []float64) {
	t.Helper()
	n := len(prev)
	transT := make([]float64, n*n)
	for k, v := range trans {
		transT[k%n*n+k/n] = v
	}
	if bestPredecessorsLanes == nil {
		trans = nil
	}
	score, arg := make([]float64, n), make([]int32, n)
	wantScore, wantArg := make([]float64, n), make([]int32, n)
	bestPredecessors(prev, trans, transT, score, arg)
	predecessors(prev, transT, wantScore, wantArg, 0)
	for j := range wantScore {
		if math.Float64bits(score[j]) != math.Float64bits(wantScore[j]) || arg[j] != wantArg[j] {
			t.Fatalf("n=%d state %d: (%v, %d), Go kernel (%v, %d)", n, j, score[j], arg[j], wantScore[j], wantArg[j])
		}
	}
}

func FuzzViterbiLanes(f *testing.F) {
	f.Add(uint8(41), int64(1), false, []byte(nil))
	f.Add(uint8(40), int64(2), true, []byte(nil))
	f.Add(uint8(7), int64(3), true, []byte{0, 3, 1, 3, 0, 4, 1, 4})
	f.Add(uint8(16), int64(4), false, []byte{0, 2, 1, 2, 0, 9, 1, 10, 0, 6, 1, 8})
	f.Add(uint8(63), int64(5), false, []byte{1, 0, 1, 1, 0, 5, 1, 7})
	f.Fuzz(func(t *testing.T, nB uint8, seed int64, coarse bool, plant []byte) {
		prev, trans := viterbiCase(nB, seed, coarse, plant)
		checkLanes(t, prev, trans)
	})
}

// TestViterbiLanesSpecials runs FuzzViterbiLanes' check over a seeded
// sweep of sizes, ties and planted specials, so `go test` covers what the
// fuzz target does without -fuzz; a column of −Inf predecessors must
// keep state 0, as the Go loop does.
func TestViterbiLanesSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for k := 0; k < 1400; k++ {
		plant := make([]byte, 2*rng.Intn(16))
		rng.Read(plant)
		prev, trans := viterbiCase(uint8(rng.Intn(256)), rng.Int63(), k%2 == 0, plant)
		checkLanes(t, prev, trans)
	}
	for _, n := range []int{4, 8, 41} {
		prev, trans := make([]float64, n), make([]float64, n*n)
		for i := range prev {
			prev[i] = math.Inf(-1)
		}
		checkLanes(t, prev, trans)
	}
}

// BenchmarkBestPredecessors times one transition step at the AT engine's
// 41 states through the Go kernel and through bestPredecessors.
func BenchmarkBestPredecessors(b *testing.B) {
	h := randomModel(b, rand.New(rand.NewSource(16)), 41, 13)
	prev, _ := viterbiCase(40, 17, false, nil)
	score, arg := make([]float64, len(prev)), make([]int32, len(prev))
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			predecessors(prev, h.transT, score, arg, 0)
		}
	})
	b.Run("column", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bestPredecessors(prev, h.trans, h.transT, score, arg)
		}
	})
}
