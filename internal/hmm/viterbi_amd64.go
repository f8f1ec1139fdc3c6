package hmm

import "mvpears/internal/cpufeat"

// bestPredecessorsAVX2 is the AVX2 lane kernel (viterbi_amd64.s).
// len(score) and len(arg) must be equal and a multiple of 4, at most
// len(prev), and trans must hold len(prev)² values.
//
//go:noescape
func bestPredecessorsAVX2(prev, trans, score []float64, arg []int32)

func init() {
	if cpufeat.AVX2 {
		bestPredecessorsLanes = bestPredecessorsAVX2
	}
}
