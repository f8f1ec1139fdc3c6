package server

import (
	"math/bits"
	"unsafe"

	"mvpears"
	"mvpears/internal/cluster"
	"mvpears/internal/vcache"
)

// verdictEntry is one verdict-cache value (DESIGN.md §9): the Detection's
// one byte form, the record cluster.AppendDetection writes and a
// MsgVerdict carries, plus the explanation the detection carried (it ran
// under ?explain=1; almost always nil). Peers send and receive rec as it
// is. Nothing in an entry is written after it is built; every path that
// serves or observes a Detection (plain and explain hits, batch parts,
// stream finals, audit lines) rebuilds one with detection().
type verdictEntry struct {
	rec         string
	explanation *mvpears.Explanation
}

// newVerdictEntry builds the cache record of det. det itself is not
// retained: only its Explanation, which nothing else holds, is kept as is.
func newVerdictEntry(det *mvpears.Detection) *verdictEntry {
	var buf [512]byte
	return &verdictEntry{rec: string(cluster.AppendDetection(buf[:0], det)), explanation: det.Explanation}
}

// detection rebuilds the Detection e was built from, reflect.DeepEqual to
// it. Its strings are substrings of the immutable record and its
// Explanation is the entry's; its slices and map are its own.
func (e *verdictEntry) detection() *mvpears.Detection {
	det, err := cluster.ParseDetection(e.rec)
	if err != nil {
		panic("server: verdict record does not parse: " + err.Error())
	}
	det.Explanation = e.explanation
	return det
}

// size is what e costs the cache's byte bound under key: the cache's own
// per-entry bookkeeping, the key, the entry and its record, each rounded
// up as the allocator rounds it. An explanation, present only when the
// detection ran under ?explain=1, is charged too.
func (e *verdictEntry) size(key string) int64 {
	n := vcache.EntryOverhead + allocSize(len(key)) + allocSize(int(unsafe.Sizeof(*e))) + allocSize(len(e.rec))
	if exp := e.explanation; exp != nil {
		n += allocSize(int(unsafe.Sizeof(*exp))) + allocSize(len(exp.Method))
		for _, ev := range append([]mvpears.EngineEvidence{exp.Target}, exp.Auxiliaries...) {
			n += allocSize(int(unsafe.Sizeof(ev))) + allocSize(len(ev.Transcription)) + allocSize(len(ev.Phonetic))
		}
	}
	return n
}

// allocSize is n rounded up to a heap size class: the allocator's classes
// step by 8 bytes to 16, by 16 to 256 and by one sixteenth of the size's
// power of two above (a close upper estimate there).
func allocSize(n int) int64 {
	switch {
	case n <= 0:
		return 0
	case n <= 16:
		return int64((n + 7) &^ 7)
	}
	step := max(16, 1<<(bits.Len(uint(n-1))-4))
	return int64((n + step - 1) &^ (step - 1))
}
