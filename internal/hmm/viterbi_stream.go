package hmm

import (
	"fmt"
	"math"
)

// ViterbiState runs the Viterbi dynamic program one observation at a
// time, so streaming consumers can advance the lattice as frames arrive
// and materialize a provisional best path at any point. Step performs
// exactly the per-column update of HMM.Viterbi (same tie-breaking, same
// accumulation order), and Path on a T-observation state returns exactly
// what Viterbi would return for those T observations.
//
// A ViterbiState is owned by one goroutine; the parent *HMM stays shared.
type ViterbiState struct {
	h         *HMM
	prevDelta []float64
	delta     []float64
	// back is the back-pointer lattice, one NumStates-wide row per
	// observation, stored flat in chunks of chunkFrames rows: growing by
	// whole chunks never copies, so a session's allocation is linear in
	// its length.
	back        [][]int32
	chunkFrames int
	t           int
}

// streamChunkFrames is the lattice growth step of a streaming state
// (about one second of audio at the engines' 16 ms hop).
const streamChunkFrames = 64

// Stream returns a fresh incremental Viterbi lattice over h.
func (h *HMM) Stream() *ViterbiState {
	return &ViterbiState{
		h:           h,
		prevDelta:   make([]float64, h.NumStates),
		delta:       make([]float64, h.NumStates),
		chunkFrames: streamChunkFrames,
	}
}

// Reset returns the state to before its first observation; the lattice's
// memory serves the next sequence.
func (v *ViterbiState) Reset() { v.t = 0 }

// Len returns the number of observations consumed so far.
func (v *ViterbiState) Len() int { return v.t }

// backRow returns observation t's back-pointer row, growing the lattice
// by one chunk when t starts a new one.
func (v *ViterbiState) backRow(t int) []int32 {
	n := v.h.NumStates
	c, k := t/v.chunkFrames, t%v.chunkFrames
	if c == len(v.back) {
		v.back = append(v.back, make([]int32, v.chunkFrames*n))
	}
	return v.back[c][k*n : (k+1)*n]
}

// Step advances the lattice by one observation.
func (v *ViterbiState) Step(obs []float64) {
	h, n := v.h, v.h.NumStates
	bt := v.backRow(v.t)
	if v.t == 0 {
		for i := 0; i < n; i++ {
			v.prevDelta[i] = h.LogInit[i] + h.Emitters[i].LogProb(obs)
		}
		v.t = 1
		return
	}
	bestPredecessors(v.prevDelta[:n], h.trans, h.transT, v.delta[:n], bt)
	for j, e := range h.Emitters {
		v.delta[j] += e.LogProb(obs)
	}
	v.prevDelta, v.delta = v.delta, v.prevDelta
	v.t++
}

// bestPredecessorsLanes is the lane kernel: bestPredecessors for the
// states j < len(score), len(score) a multiple of 4, over the row-major
// table, with predecessors' results bit for bit (DESIGN §7). It is set at
// package init on CPUs that have one (viterbi_amd64.go) and nil
// everywhere else, where predecessors is the only kernel.
var bestPredecessorsLanes func(prev, trans, score []float64, arg []int32)

// bestPredecessors is the transition half of a Viterbi column: for every
// state j it writes max_i prev[i]+LogTrans[i][j] to score[j] and the
// first i attaining it to arg[j]. The lane kernel takes the whole blocks
// of 4 states when trans (HMM.trans) is set, predecessors the rest over
// transT (HMM.transT).
func bestPredecessors(prev, trans, transT, score []float64, arg []int32) {
	from := 0
	if trans != nil {
		from = len(prev) &^ 3
		bestPredecessorsLanes(prev, trans, score[:from], arg[:from])
	}
	predecessors(prev, transT, score, arg, from)
}

// predecessors is bestPredecessors in Go for the states j >= from. Four
// states advance per pass over prev — each keeps its own running
// maximum, scanned in ascending i with a strict comparison, so scores and
// tie-breaks are those of the one-state loop while the four compare
// chains overlap.
func predecessors(prev, transT, score []float64, arg []int32, from int) {
	n := len(prev)
	negInf := math.Inf(-1)
	j := from
	for ; j+4 <= n; j += 4 {
		c0 := transT[j*n:][:n]
		c1 := transT[(j+1)*n:][:n]
		c2 := transT[(j+2)*n:][:n]
		c3 := transT[(j+3)*n:][:n]
		b0, b1, b2, b3 := negInf, negInf, negInf, negInf
		k0, k1, k2, k3 := 0, 0, 0, 0
		for i, p := range prev {
			if s := p + c0[i]; s > b0 {
				b0, k0 = s, i
			}
			if s := p + c1[i]; s > b1 {
				b1, k1 = s, i
			}
			if s := p + c2[i]; s > b2 {
				b2, k2 = s, i
			}
			if s := p + c3[i]; s > b3 {
				b3, k3 = s, i
			}
		}
		score[j], score[j+1], score[j+2], score[j+3] = b0, b1, b2, b3
		arg[j], arg[j+1], arg[j+2], arg[j+3] = int32(k0), int32(k1), int32(k2), int32(k3)
	}
	for ; j < n; j++ {
		best, k := negInf, 0
		for i, tr := range transT[j*n:][:n] {
			if s := prev[i] + tr; s > best {
				best, k = s, i
			}
		}
		score[j], arg[j] = best, int32(k)
	}
}

// Path backtraces the best path over everything consumed so far. Calling
// it does not disturb the lattice: more Steps may follow, which is how
// sliding-window verdicts read a provisional alignment mid-stream.
func (v *ViterbiState) Path() ([]int, float64, error) { return v.PathFrom(0) }

// PathFrom is Path without the states of the observations before from:
// the backtrace still starts at the newest observation but stops at from,
// so a sliding window's read costs the window, not the session.
func (v *ViterbiState) PathFrom(from int) ([]int, float64, error) {
	if v.t == 0 {
		return nil, 0, fmt.Errorf("hmm: empty observation sequence")
	}
	if from < 0 || from >= v.t {
		return nil, 0, fmt.Errorf("hmm: path start %d outside the %d observations", from, v.t)
	}
	bestScore, bestState := math.Inf(-1), 0
	for i := 0; i < v.h.NumStates; i++ {
		if v.prevDelta[i] > bestScore {
			bestScore, bestState = v.prevDelta[i], i
		}
	}
	if math.IsInf(bestScore, -1) {
		return nil, bestScore, fmt.Errorf("hmm: all paths have zero probability")
	}
	path := make([]int, v.t-from)
	path[len(path)-1] = bestState
	for t := v.t - 1; t > from; t-- {
		path[t-1-from] = int(v.backRow(t)[path[t-from]])
	}
	return path, bestScore, nil
}
