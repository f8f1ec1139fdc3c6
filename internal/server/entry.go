package server

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"mvpears"
	"mvpears/internal/vcache"
)

// A verdict-cache value is a compact, immutable record of one Detection
// (DESIGN.md §9): the verdict bit, the timing and the cascade's per-clip
// score inline, the scores in one array, every transcription in one
// string, and a pointer to the shape the entry shares with every verdict
// of the same roster and cascade outcome. store builds it once; every path
// that reads a whole Detection (plain and explain hits, batch parts,
// stream finals, a flight leader's second look, cluster peer answers,
// audit lines) rebuilds one with detection().

// verdictEntry is one verdict-cache value. Nothing in it is written after
// store builds it.
type verdictEntry struct {
	adversarial bool
	timing      mvpears.DetectionTiming
	// firstScore is the cascade decision's FirstScore: the one cascade
	// field that varies clip by clip (the rest are in shape).
	firstScore float64
	scores     []float64
	// texts holds the transcriptions in shape.engines order, each after
	// its uvarint byte length.
	texts string
	shape *verdictShape
	// explanation is the one the detection carried (ran under ?explain=1);
	// almost always nil.
	explanation *mvpears.Explanation
}

// verdictShape is the part of a verdict that whole classes of clips share:
// the Transcriptions key set and the cascade decision minus FirstScore.
// Shapes are interned and never written after, so entries and rebuilt
// Detections alias their slices.
type verdictShape struct {
	// engines is the sorted Transcriptions key set; hasTexts is false for
	// a nil map.
	engines  []string
	hasTexts bool
	// cascade is the decision with FirstScore zeroed; nil without one.
	cascade *mvpears.CascadeDecision
}

// maxShapes bounds a shapeTable. A detector has a handful of shapes (one
// roster, a few cascade outcomes); past the bound, shapes are built per
// entry rather than remembered.
const maxShapes = 256

// shapeTable interns verdict shapes by their encoding.
type shapeTable struct {
	mu sync.Mutex
	m  map[string]*verdictShape
}

// newVerdictEntry builds the cache record of det under the server's shape
// table. det itself is not retained: its slices are copied or interned,
// and only its Explanation, which nothing else holds, is kept as is.
func (t *shapeTable) newVerdictEntry(det *mvpears.Detection) *verdictEntry {
	var buf [8]string
	engines := buf[:0]
	for name := range det.Transcriptions {
		engines = append(engines, name)
	}
	slices.Sort(engines)
	e := &verdictEntry{
		adversarial: det.Adversarial,
		timing:      det.Timing,
		explanation: det.Explanation,
		shape:       t.intern(engines, det),
	}
	if det.Scores != nil {
		e.scores = append(make([]float64, 0, len(det.Scores)), det.Scores...)
	}
	if det.Cascade != nil {
		e.firstScore = det.Cascade.FirstScore
	}
	var textBuf [256]byte
	texts := textBuf[:0]
	for _, name := range engines {
		text := det.Transcriptions[name]
		texts = append(binary.AppendUvarint(texts, uint64(len(text))), text...)
	}
	e.texts = string(texts)
	return e
}

// intern returns the shared shape of det, whose sorted Transcriptions keys
// are engines.
func (t *shapeTable) intern(engines []string, det *mvpears.Detection) *verdictShape {
	var buf [256]byte
	key := appendShapeKey(buf[:0], engines, det)
	t.mu.Lock()
	defer t.mu.Unlock()
	if sh, ok := t.m[string(key)]; ok {
		return sh
	}
	sh := &verdictShape{engines: slices.Clone(engines), hasTexts: det.Transcriptions != nil}
	if c := det.Cascade; c != nil {
		cc := *c
		cc.EnginesRun = slices.Clone(c.EnginesRun)
		cc.EnginesSkipped = slices.Clone(c.EnginesSkipped)
		cc.Imputed = slices.Clone(c.Imputed)
		cc.FirstScore = 0
		sh.cascade = &cc
	}
	if t.m == nil {
		t.m = make(map[string]*verdictShape)
	}
	if len(t.m) < maxShapes {
		t.m[string(key)] = sh
	}
	return sh
}

// appendShapeKey encodes what a verdictShape holds: the engine names and
// the cascade decision minus FirstScore. A flag byte per slice tells nil
// from empty, as reflect.DeepEqual does; Imputed goes last, so its length
// is what remains.
func appendShapeKey(b []byte, engines []string, det *mvpears.Detection) []byte {
	b = appendStringsKey(b, engines, det.Transcriptions == nil)
	c := det.Cascade
	if c == nil {
		return append(b, 0)
	}
	b = append(b, 1, flagByte(c.ShortCircuit), flagByte(c.SampledFull))
	b = appendStringsKey(b, c.EnginesRun, c.EnginesRun == nil)
	b = appendStringsKey(b, c.EnginesSkipped, c.EnginesSkipped == nil)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Margin))
	b = append(b, flagByte(c.Imputed == nil))
	for _, imp := range c.Imputed {
		b = append(b, flagByte(imp))
	}
	return b
}

func appendStringsKey(b []byte, ss []string, isNil bool) []byte {
	b = binary.AppendUvarint(append(b, flagByte(isNil)), uint64(len(ss)))
	for _, s := range ss {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	return b
}

func flagByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// detection rebuilds the Detection e was built from, reflect.DeepEqual to
// it. Its Scores, Explanation and cascade slices alias the entry's:
// callers read them and never write.
func (e *verdictEntry) detection() *mvpears.Detection {
	det := &mvpears.Detection{
		Adversarial: e.adversarial,
		Scores:      e.scores,
		Timing:      e.timing,
		Explanation: e.explanation,
	}
	sh := e.shape
	if sh.hasTexts {
		det.Transcriptions = make(map[string]string, len(sh.engines))
		texts := e.texts
		for _, name := range sh.engines {
			n, w := uvarintString(texts)
			det.Transcriptions[name] = texts[w : w+n]
			texts = texts[w+n:]
		}
	}
	if sh.cascade != nil {
		c := *sh.cascade
		c.FirstScore = e.firstScore
		det.Cascade = &c
	}
	return det
}

// size is what e costs the cache's byte bound under key: the cache's own
// per-entry bookkeeping, the key, the record, its scores and texts, each
// rounded up as the allocator rounds it.
// Interned shapes are shared and not charged; an explanation, present
// only when the detection ran under ?explain=1, is.
func (e *verdictEntry) size(key string) int64 {
	n := vcache.EntryOverhead + allocSize(len(key)) + allocSize(int(unsafe.Sizeof(*e))) +
		allocSize(8*len(e.scores)) + allocSize(len(e.texts))
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

// uvarintString decodes the uvarint at the start of s (well-formed: the
// record wrote it), returning its value and width.
func uvarintString(s string) (int, int) {
	var x uint64
	for i := 0; i < len(s); i++ {
		b := s[i]
		x |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return int(x), i + 1
		}
	}
	return 0, len(s)
}
