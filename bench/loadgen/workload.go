package main

import (
	"math"
	"time"
)

// connections is how many HTTP connections, and so how many client
// goroutines, the single load-generating process drives: one per core of
// the 2-core box the benchmark is specified for. It is a constant, not
// runtime.NumCPU(), so that results from different machines describe the
// same offered load.
const connections = 2

// opClass says what an operation sends and what its response must look
// like.
type opClass int

const (
	classHit    opClass = iota // hot-set clip: verdict cache answers
	classMiss                  // never-seen benign variant: full detection
	classAE                    // never-seen AE variant: detection + audit write
	classDup                   // never-seen clip due twice at one instant
	classBatch                 // POST /v1/detect/batch, 2 hot + 2 never-seen parts
	classStream                // POST /v1/detect/stream session
	numClasses
)

var classNames = [numClasses]string{"hit", "miss", "ae", "dup", "batch4", "stream"}

// part names one WAV payload: a corpus list, an entry, and the low-bit
// variant (0 = the hot-set form).
type part struct {
	list    byte // 'b' benign, 'a' AE, 'l' long concatenation
	base    int
	variant uint32
}

func (co *corpus) list(l byte) []*clip {
	switch l {
	case 'a':
		return co.ae
	case 'l':
		return co.long
	}
	return co.benign
}

func (co *corpus) payload(p part, dst []byte) []byte {
	return co.list(p.list)[p.base].variant(p.variant, dst)
}

// opSpec is the content of operation k. It is a pure function of
// (workload, seed, k).
type opSpec struct {
	class opClass
	parts []part // one, or four for a batch
}

// neverSeen returns a variant number unique to (k, slot). k counts up
// over a whole run and is never reused, so no daemon sees a variant
// twice.
func neverSeen(k uint64, slot int) uint32 { return uint32(1 + k*4 + uint64(slot)) }

// pick draws an entry of a corpus list for operation k (draw i of the
// operation) as a part with the given variant.
func (co *corpus) pick(list byte, seed int64, k, i uint64, variant uint32) part {
	return part{list, int(draw(seed, k, i) % uint64(len(co.list(list)))), variant}
}

// freshPart is a never-seen variant of a drawn clip; hotPart a hot-set
// clip as it was primed.
func (co *corpus) freshPart(list byte, seed int64, k, i uint64, slot int) part {
	return co.pick(list, seed, k, i, neverSeen(k, slot))
}

func (co *corpus) hotPart(seed int64, k, i uint64) part { return co.pick('b', seed, k, i, 0) }

// missSpec draws a never-seen clip: an AE variant with probability
// aePercent/100, else a benign variant.
func missSpec(co *corpus, seed int64, k uint64, aePercent uint64) opSpec {
	if draw(seed, k, 0)%100 < aePercent {
		return opSpec{classAE, []part{co.freshPart('a', seed, k, 1, 0)}}
	}
	return opSpec{classMiss, []part{co.freshPart('b', seed, k, 1, 0)}}
}

// workload is one traffic mix against one daemon configuration.
type workload struct {
	name string
	why  string
	// daemonArgs are added to the defaults (-model -addr -admin-addr -audit).
	daemonArgs []string
	// limitMS is the latency a correct response must meet to count in
	// slo_share; batchLimitMS applies to batch operations.
	limitMS, batchLimitMS float64
	// rate > 0 makes the workload open-loop: seeded Poisson events per
	// second. 0 is a closed loop of `connections` clients.
	rate float64
	// prime sends the hot set once before the timed window.
	prime bool
	// reference: the daemon runs the default configuration, so every
	// verdict must equal in-process System.DetectCtx bit for bit.
	reference bool
	// cachedMin..cachedMax is the share of verdicts that must be served
	// from the cache or a shared flight (cachedMin -1: not checked).
	cachedMin, cachedMax float64
	spec                 func(co *corpus, seed int64, k uint64) opSpec
}

var workloads = []*workload{
	{
		name:    "miss_full",
		why:     "every request never-seen, default daemon: asr/dsp/nn float64 do all the work; MFCC sharing, batching and allocation work shows here",
		limitMS: 25, reference: true, cachedMin: 0, cachedMax: 0,
		spec: func(co *corpus, seed int64, k uint64) opSpec { return missSpec(co, seed, k, 10) },
	},
	{
		name:       "miss_fast",
		why:        "same traffic, daemon with -cascade-margin 0 -quantized: cascade short-circuits and int8 kernels; must move when miss_full does not",
		daemonArgs: []string{"-cascade-margin", "0", "-quantized"},
		limitMS:    25, cachedMin: 0, cachedMax: 0,
		spec: func(co *corpus, seed int64, k uint64) opSpec { return missSpec(co, seed, k, 10) },
	},
	{
		name:    "hit_replay",
		why:     "uniform draws from a primed 64-clip hot set: WAV decode, SHA-256 key, cache lookup and JSON/HTTP do all the work, asr none",
		limitMS: 5, prime: true, reference: true, cachedMin: 0.999, cachedMax: 1,
		spec: func(co *corpus, seed int64, k uint64) opSpec {
			return opSpec{classHit, []part{co.hotPart(seed, k, 0)}}
		},
	},
	{
		name:    "stream_live",
		why:     "two concurrent /v1/detect/stream sessions in 100 ms chunks: stream windows and asr streaming state; per-window cost shows only here",
		limitMS: 250, reference: true, cachedMin: 0, cachedMax: 0,
		spec: func(co *corpus, seed int64, k uint64) opSpec {
			if draw(seed, k, 0)%100 < 10 {
				return opSpec{classStream, []part{co.freshPart('a', seed, k, 1, 0)}}
			}
			return opSpec{classStream, []part{co.freshPart('l', seed, k, 1, 0)}}
		},
	},
	{
		name:    "mix_open",
		why:     "open loop, Poisson 120 events/s: hits, misses, duplicate pairs, AEs and 4-part batches overlap; queueing and collapsing show here",
		limitMS: 50, batchLimitMS: 100, rate: 120, prime: true, reference: true, cachedMin: -1,
		spec: func(co *corpus, seed int64, k uint64) opSpec {
			switch u := draw(seed, k, 0) % 100; {
			case u < 30:
				return opSpec{classHit, []part{co.hotPart(seed, k, 1)}}
			case u < 65:
				return opSpec{classMiss, []part{co.freshPart('b', seed, k, 1, 0)}}
			case u < 75:
				return opSpec{classDup, []part{co.freshPart('b', seed, k, 1, 0)}}
			case u < 85:
				return opSpec{classAE, []part{co.freshPart('a', seed, k, 1, 0)}}
			default:
				return opSpec{classBatch, []part{
					co.hotPart(seed, k, 1), co.hotPart(seed, k, 2),
					co.freshPart('b', seed, k, 3, 2), co.freshPart('b', seed, k, 4, 3),
				}}
			}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) limitFor(c opClass) float64 {
	if c == classBatch && w.batchLimitMS > 0 {
		return w.batchLimitMS
	}
	return w.limitMS
}

// arrival is one scheduled operation of an open-loop phase.
type arrival struct {
	k   uint64
	due time.Duration // offset from the phase start
}

// poissonSchedule lays out events over [0, dur) with exponential gaps at
// `rate` per second, drawn from (seed, first k). Event content is
// spec(k); a duplicate-pair event occupies two consecutive arrivals with
// the same k and due time. It returns the arrivals and the next unused k.
func poissonSchedule(w *workload, co *corpus, seed int64, firstK uint64, dur time.Duration) ([]arrival, uint64) {
	var out []arrival
	k := firstK
	t := 0.0
	for {
		// 53 uniform bits -> (0,1]; the gap is -ln(u)/rate.
		u := (float64(draw(seed, k, 7)>>11) + 1) / (1 << 53)
		t += -math.Log(u) / w.rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out, k
		}
		out = append(out, arrival{k, due})
		if w.spec(co, seed, k).class == classDup {
			out = append(out, arrival{k, due})
		}
		k++
	}
}
