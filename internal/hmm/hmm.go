package hmm

import (
	"fmt"
	"math"
)

// Emitter scores an observation under a state's emission distribution.
type Emitter interface {
	LogProb(x []float64) float64
}

// HMM is a first-order hidden Markov model with one Emitter per state.
// LogTrans[i][j] is the log probability of moving from state i to j;
// LogInit[i] the log probability of starting in state i.
type HMM struct {
	NumStates int
	LogInit   []float64
	LogTrans  [][]float64
	Emitters  []Emitter
	// transT is LogTrans transposed and flattened,
	// transT[j*NumStates+i] = LogTrans[i][j]: the Viterbi update for
	// state j scans its predecessors' scores as one contiguous column.
	// Derived in NewHMM, never persisted.
	transT []float64
	// trans is LogTrans flattened row-major, trans[i*NumStates+j] =
	// LogTrans[i][j], the lane kernel's layout: the transitions out of
	// predecessor i into four consecutive states are one load. Derived in
	// NewHMM where there is a lane kernel (nil elsewhere), never
	// persisted.
	trans []float64
}

// NewHMM validates shapes and wraps the parameters.
func NewHMM(logInit []float64, logTrans [][]float64, emitters []Emitter) (*HMM, error) {
	n := len(emitters)
	if n == 0 {
		return nil, fmt.Errorf("hmm: no states")
	}
	if len(logInit) != n || len(logTrans) != n {
		return nil, fmt.Errorf("hmm: shape mismatch: %d emitters, %d init, %d trans rows", n, len(logInit), len(logTrans))
	}
	for i, row := range logTrans {
		if len(row) != n {
			return nil, fmt.Errorf("hmm: transition row %d has %d entries, want %d", i, len(row), n)
		}
	}
	transT := make([]float64, n*n)
	for i, row := range logTrans {
		for j, v := range row {
			transT[j*n+i] = v
		}
	}
	var trans []float64
	if bestPredecessorsLanes != nil {
		trans = make([]float64, 0, n*n)
		for _, row := range logTrans {
			trans = append(trans, row...)
		}
	}
	return &HMM{NumStates: n, LogInit: logInit, LogTrans: logTrans, Emitters: emitters, transT: transT, trans: trans}, nil
}

// Viterbi returns the most likely state sequence for the observations and
// its log probability. It is the batch form of the incremental lattice in
// ViterbiState: one Step per observation, then a single backtrace.
func (h *HMM) Viterbi(obs [][]float64) ([]int, float64, error) {
	if len(obs) == 0 {
		return nil, 0, fmt.Errorf("hmm: empty observation sequence")
	}
	v := h.Stream()
	v.chunkFrames = len(obs) // the whole lattice in one allocation
	for _, o := range obs {
		v.Step(o)
	}
	return v.Path()
}

// EstimateTransitions computes a smoothed ML transition matrix and initial
// distribution from labelled state sequences over numStates states.
func EstimateTransitions(sequences [][]int, numStates int, smoothing float64) ([]float64, [][]float64, error) {
	if numStates <= 0 {
		return nil, nil, fmt.Errorf("hmm: numStates %d must be positive", numStates)
	}
	if smoothing <= 0 {
		smoothing = 0.1
	}
	initCounts := make([]float64, numStates)
	transCounts := make([][]float64, numStates)
	for i := range transCounts {
		transCounts[i] = make([]float64, numStates)
		for j := range transCounts[i] {
			transCounts[i][j] = smoothing
		}
		initCounts[i] = smoothing
	}
	for _, seq := range sequences {
		if len(seq) == 0 {
			continue
		}
		for _, s := range seq {
			if s < 0 || s >= numStates {
				return nil, nil, fmt.Errorf("hmm: state %d out of range [0,%d)", s, numStates)
			}
		}
		initCounts[seq[0]]++
		for t := 1; t < len(seq); t++ {
			transCounts[seq[t-1]][seq[t]]++
		}
	}
	logInit := make([]float64, numStates)
	var initTotal float64
	for _, c := range initCounts {
		initTotal += c
	}
	for i, c := range initCounts {
		logInit[i] = math.Log(c / initTotal)
	}
	logTrans := make([][]float64, numStates)
	for i := range transCounts {
		var rowTotal float64
		for _, c := range transCounts[i] {
			rowTotal += c
		}
		logTrans[i] = make([]float64, numStates)
		for j, c := range transCounts[i] {
			logTrans[i][j] = math.Log(c / rowTotal)
		}
	}
	return logInit, logTrans, nil
}
