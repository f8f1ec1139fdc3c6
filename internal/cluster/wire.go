package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"mvpears"
	"mvpears/internal/obs"
)

// The peer wire protocol: length-prefixed binary frames over persistent
// TCP connections, one request/response pair in flight per connection.
//
//	frame  := magic(2) version(1) type(1) length(4 LE) payload
//
// Payload encodings are hand-rolled (uvarint lengths, float64 bits,
// length-prefixed strings) rather than JSON or gob: a remote cache hit
// must cost a small fraction of a cascade miss, and on this path the
// codec is the only CPU between the two sockets. Every decode path is
// bounds-checked and fuzzed (FuzzWireCodec) — peers are trusted for
// content but not for well-formedness.
//
// Version 3 is the only version: MsgVerdict carries a Detection in the
// same record the verdict cache keeps (AppendDetection); the owner sends
// its entry's bytes and the requester stores the bytes it got. MsgDetect
// has an optional trace-context tail and MsgVerdict an optional span-list
// tail (cross-replica trace propagation). Both tails are encoded only when
// non-empty, so a tail-less payload is the untraced encoding. A frame of
// any other version fails at the header, which surfaces as a peer error —
// the requester degrades to local detection, never fails. The header
// does not judge the message type: the receiver answers a request type it
// does not serve with MsgErr on the live connection (handleFrame).
const (
	wireMagic0  = 'M'
	wireMagic1  = 'V'
	wireVersion = 3

	// frameHeaderLen is magic+version+type+length.
	frameHeaderLen = 8

	// MaxFramePayload bounds one frame (requests carry raw PCM uploads,
	// which the HTTP layer already bounds far below this).
	MaxFramePayload = 64 << 20
)

// MsgType identifies one frame's payload encoding.
type MsgType byte

// Type 1 (a key-only cache probe) and type 4 (its miss reply) are
// retired; the numbers are not reused.
const (
	// MsgDetect forwards a full detection: key, sample rate and raw PCM.
	// The receiver answers from its cache or runs (or joins) a local
	// detection — its singleflight is what collapses a fleet-wide
	// duplicate storm to one detection.
	MsgDetect MsgType = 2
	// MsgVerdict is the positive response: a cached byte plus a Detection
	// record.
	MsgVerdict MsgType = 3
	// MsgErr carries a failure as text (receiver overloaded, fingerprint
	// mismatch mid-reload, detection error). The sender degrades to local
	// detection; a peer error never fails the user's request.
	MsgErr MsgType = 5
)

// ErrBadFrame reports a structurally invalid frame or payload.
var ErrBadFrame = errors.New("cluster: malformed frame")

// AppendFrame appends one framed message to dst and returns it.
func AppendFrame(dst []byte, t MsgType, payload []byte) []byte {
	dst = append(dst, wireMagic0, wireMagic1, wireVersion, byte(t))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// endFrame sets the length in the header at frame[start:] to that of the
// payload appended after it, so a payload can be encoded in place.
func endFrame(frame []byte, start int) []byte {
	binary.LittleEndian.PutUint32(frame[start+4:], uint32(len(frame)-start-frameHeaderLen))
	return frame
}

// ReadFrame reads one frame from r into buf (grown as needed), returning
// the type, the payload (aliasing buf) and the possibly-grown buffer.
func ReadFrame(r io.Reader, buf []byte) (MsgType, []byte, []byte, error) {
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, 0, 4096)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, err
	}
	if hdr[0] != wireMagic0 || hdr[1] != wireMagic1 {
		return 0, nil, buf, fmt.Errorf("%w: bad magic %x%x", ErrBadFrame, hdr[0], hdr[1])
	}
	if hdr[2] != wireVersion {
		return 0, nil, buf, fmt.Errorf("%w: version %d (want %d)", ErrBadFrame, hdr[2], wireVersion)
	}
	t, size := MsgType(hdr[3]), binary.LittleEndian.Uint32(hdr[4:8])
	if size > MaxFramePayload {
		return 0, nil, buf, fmt.Errorf("%w: payload of %d bytes exceeds %d", ErrBadFrame, size, MaxFramePayload)
	}
	if cap(buf) < int(size) {
		buf = make([]byte, 0, size)
	}
	payload := buf[:size]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF { // a header promised payload bytes
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, fmt.Errorf("cluster: short frame payload: %w", err)
	}
	return t, payload, buf, nil
}

// --- primitive append/parse helpers ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendCount appends a slice or map length plus one, or 0 for a nil
// one, so a decoder tells nil from empty.
func appendCount(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// parser reads one payload. Over an immutable string (a cache entry, a
// peer answer copied out of its frame) str returns substrings; over a
// frame buffer the next read refills, str's conversion copies. Numbers
// must be shortest-form, flag bytes set only defined bits and engine
// names sort, so a verdict that parses is the bytes its values encode to
// (a requester stores a peer's record as it came).
type parser[T string | []byte] struct {
	b T
}

func (p *parser[T]) uvarint() (uint64, error) {
	var buf [binary.MaxVarintLen64]byte
	v, n := binary.Uvarint(buf[:copy(buf[:], p.b)])
	if n <= 0 || n > 1 && buf[n-1] == 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrBadFrame)
	}
	p.b = p.b[n:]
	return v, nil
}

// length reads a uvarint length of unit-sized elements, bounded by the
// bytes actually remaining so a hostile length cannot force allocation.
func (p *parser[T]) length(unit int) (int, error) {
	v, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	return p.bound(v, unit)
}

// count reads an appendCount count, bounded as length is: -1 for nil.
func (p *parser[T]) count(unit int) (int, error) {
	v, err := p.uvarint()
	if err != nil || v == 0 {
		return -1, err
	}
	return p.bound(v-1, unit)
}

func (p *parser[T]) bound(v uint64, unit int) (int, error) {
	if v > uint64(len(p.b)/unit) {
		return 0, fmt.Errorf("%w: declared %d elements, %d bytes remain", ErrBadFrame, v, len(p.b))
	}
	return int(v), nil
}

func (p *parser[T]) str() (string, error) {
	n, err := p.length(1)
	if err != nil {
		return "", err
	}
	s := string(p.b[:n])
	p.b = p.b[n:]
	return s, nil
}

func (p *parser[T]) float() (float64, error) {
	var buf [8]byte
	if copy(buf[:], p.b) < len(buf) {
		return 0, fmt.Errorf("%w: truncated float64", ErrBadFrame)
	}
	p.b = p.b[len(buf):]
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// flags reads a flag byte that may set only the bits in mask.
func (p *parser[T]) flags(mask byte) (byte, error) {
	if len(p.b) == 0 {
		return 0, fmt.Errorf("%w: truncated byte", ErrBadFrame)
	}
	v := p.b[0]
	if v&^mask != 0 {
		return 0, fmt.Errorf("%w: flag byte %#x", ErrBadFrame, v)
	}
	p.b = p.b[1:]
	return v, nil
}

func (p *parser[T]) done() error {
	if len(p.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(p.b))
	}
	return nil
}

// --- message payloads ---

// Trace-context tail flag bits.
const tcSampled = 1 << 0

// appendTraceContext appends the optional trace-context tail. A zero
// context appends nothing, which both keeps the untraced encoding compact
// and makes the encoding canonical (parse-then-append round-trips to
// identical bytes).
func appendTraceContext(dst []byte, tc obs.TraceContext) []byte {
	if tc == (obs.TraceContext{}) {
		return dst
	}
	var flags byte
	if tc.Sampled {
		flags |= tcSampled
	}
	dst = append(dst, flags)
	dst = appendString(dst, tc.TraceID)
	return appendString(dst, tc.Parent)
}

// traceContext parses the optional trace-context tail: absent (untraced
// requests) decodes as the zero context.
func (p *parser[T]) traceContext() (obs.TraceContext, error) {
	if len(p.b) == 0 {
		return obs.TraceContext{}, nil
	}
	flags, err := p.flags(tcSampled)
	if err != nil {
		return obs.TraceContext{}, err
	}
	var tc obs.TraceContext
	tc.Sampled = flags&tcSampled != 0
	if tc.TraceID, err = p.str(); err != nil {
		return obs.TraceContext{}, err
	}
	if tc.Parent, err = p.str(); err != nil {
		return obs.TraceContext{}, err
	}
	return tc, nil
}

// AppendDetect encodes a MsgDetect payload: key, original sample rate,
// raw little-endian PCM16 payload, optional trace-context tail.
func AppendDetect(dst []byte, key string, sampleRate int, pcm []byte, tc obs.TraceContext) []byte {
	dst = appendString(dst, key)
	dst = binary.AppendUvarint(dst, uint64(sampleRate))
	return appendTraceContext(appendBytes(dst, pcm), tc)
}

// ParseDetect decodes a MsgDetect payload. pcm aliases b; key and tc are
// copies.
func ParseDetect(b []byte) (key string, sampleRate int, pcm []byte, tc obs.TraceContext, err error) {
	p := parser[[]byte]{b}
	if key, err = p.str(); err != nil {
		return "", 0, nil, tc, err
	}
	rate, err := p.uvarint()
	if err != nil {
		return "", 0, nil, tc, err
	}
	if rate == 0 || rate > 1<<31 {
		return "", 0, nil, tc, fmt.Errorf("%w: sample rate %d", ErrBadFrame, rate)
	}
	n, err := p.length(1)
	if err != nil {
		return "", 0, nil, tc, err
	}
	pcm, p.b = p.b[:n], p.b[n:]
	if tc, err = p.traceContext(); err != nil {
		return "", 0, nil, tc, err
	}
	return key, int(rate), pcm, tc, p.done()
}

// AppendErr encodes a MsgErr payload.
func AppendErr(dst []byte, msg string) []byte { return appendString(dst, msg) }

// ParseErr decodes a MsgErr payload.
func ParseErr(b []byte) (string, error) {
	p := parser[[]byte]{b}
	msg, err := p.str()
	if err != nil {
		return "", err
	}
	return msg, p.done()
}

// verdictCached is the one flag of a MsgVerdict payload's leading byte:
// served from the receiver's cache (or a shared flight).
const verdictCached = 1 << 0

// Detection record flag bits.
const (
	detAdversarial = 1 << 0
	detHasCascade  = 1 << 1
	cascadeShort   = 1 << 2
	cascadeSampled = 1 << 3
)

// AppendDetection appends det's one byte form — the record the verdict
// cache keeps and a MsgVerdict carries — and returns it:
//
//	record  := flags(1) scores transcriptions timing [cascade]
//	scores  := count float64...
//	transcriptions := count (engine text)...   in sorted engine order
//	timing  := varint(recognition) varint(similarity) varint(classify)
//	cascade := run skipped float64(margin) float64(firstScore) imputed
//	run, skipped := count string...            imputed := count byte...
//
// Every count is the length plus one, 0 for a nil slice or map, so
// ParseDetection rebuilds a Detection reflect.DeepEqual to det, and the
// sorted engine names make the bytes a function of the content.
// Explanations are not encoded: they are deterministic in the
// transcriptions, so a reader derives one on demand.
func AppendDetection(dst []byte, det *mvpears.Detection) []byte {
	var flags byte
	if det.Adversarial {
		flags |= detAdversarial
	}
	c := det.Cascade
	if c != nil {
		flags |= detHasCascade
		if c.ShortCircuit {
			flags |= cascadeShort
		}
		if c.SampledFull {
			flags |= cascadeSampled
		}
	}
	dst = appendCount(append(dst, flags), len(det.Scores), det.Scores == nil)
	for _, s := range det.Scores {
		dst = appendFloat(dst, s)
	}
	var buf [8]string
	engines := buf[:0]
	for name := range det.Transcriptions {
		engines = append(engines, name)
	}
	slices.Sort(engines)
	dst = appendCount(dst, len(engines), det.Transcriptions == nil)
	for _, name := range engines {
		dst = appendString(appendString(dst, name), det.Transcriptions[name])
	}
	dst = binary.AppendVarint(dst, int64(det.Timing.Recognition))
	dst = binary.AppendVarint(dst, int64(det.Timing.Similarity))
	dst = binary.AppendVarint(dst, int64(det.Timing.Classify))
	if c == nil {
		return dst
	}
	dst = appendStrings(dst, c.EnginesRun)
	dst = appendStrings(dst, c.EnginesSkipped)
	dst = appendFloat(appendFloat(dst, c.Margin), c.FirstScore)
	dst = appendCount(dst, len(c.Imputed), c.Imputed == nil)
	for _, imp := range c.Imputed {
		v := byte(0)
		if imp {
			v = 1
		}
		dst = append(dst, v)
	}
	return dst
}

// ParseDetection decodes a record AppendDetection wrote. The Detection's
// strings are substrings of rec, which strings keep immutable.
func ParseDetection(rec string) (*mvpears.Detection, error) {
	p := parser[string]{rec}
	det, err := p.detection()
	if err != nil {
		return nil, err
	}
	return det, p.done()
}

func (p *parser[T]) detection() (*mvpears.Detection, error) {
	flags, err := p.flags(detAdversarial | detHasCascade | cascadeShort | cascadeSampled)
	if err != nil {
		return nil, err
	}
	det := &mvpears.Detection{Adversarial: flags&detAdversarial != 0}
	nScores, err := p.count(8)
	if err != nil {
		return nil, err
	}
	if nScores >= 0 {
		det.Scores = make([]float64, nScores)
		for i := range det.Scores {
			det.Scores[i], _ = p.float() // count bounded the bytes
		}
	}
	nTr, err := p.count(2)
	if err != nil {
		return nil, err
	}
	if nTr >= 0 {
		det.Transcriptions = make(map[string]string, nTr)
	}
	var last string
	for i := range nTr {
		engine, err := p.str()
		if err != nil {
			return nil, err
		}
		if i > 0 && engine <= last {
			return nil, fmt.Errorf("%w: engine %q out of order", ErrBadFrame, engine)
		}
		if det.Transcriptions[engine], err = p.str(); err != nil {
			return nil, err
		}
		last = engine
	}
	for _, d := range []*time.Duration{&det.Timing.Recognition, &det.Timing.Similarity, &det.Timing.Classify} {
		u, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		*d = time.Duration(int64(u>>1) ^ -int64(u&1)) // zigzag, as binary.AppendVarint
	}
	if flags&detHasCascade == 0 {
		if flags&^detAdversarial != 0 {
			return nil, fmt.Errorf("%w: cascade flags without a cascade", ErrBadFrame)
		}
		return det, nil
	}
	c := &mvpears.CascadeDecision{ShortCircuit: flags&cascadeShort != 0, SampledFull: flags&cascadeSampled != 0}
	if c.EnginesRun, err = p.strings(); err != nil {
		return nil, err
	}
	if c.EnginesSkipped, err = p.strings(); err != nil {
		return nil, err
	}
	if c.Margin, err = p.float(); err != nil {
		return nil, err
	}
	if c.FirstScore, err = p.float(); err != nil {
		return nil, err
	}
	nImp, err := p.count(1)
	if err != nil {
		return nil, err
	}
	if nImp >= 0 {
		c.Imputed = make([]bool, nImp)
		for i := range c.Imputed {
			v, err := p.flags(1)
			if err != nil {
				return nil, err
			}
			c.Imputed[i] = v != 0
		}
	}
	det.Cascade = c
	return det, nil
}

// AppendVerdict encodes a MsgVerdict payload: the cached flag byte, a
// record AppendDetection wrote, then the optional span tail — the
// answering replica's own stage spans, shipped back only when the
// requester asked for them (TraceContext.Sampled) so a remote answer
// stitches into the requester's trace.
func AppendVerdict(dst []byte, rec string, cached bool, spans []obs.Span) []byte {
	var flags byte
	if cached {
		flags |= verdictCached
	}
	return appendSpans(append(append(dst, flags), rec...), spans)
}

// ParseVerdict decodes a MsgVerdict payload, copied once into one string
// and validated whole: rec is the record (a substring of that copy), det
// the Detection parsed from it and spans the answering replica's spans
// (nil when none were shipped). Nothing it returns aliases b.
func ParseVerdict(b []byte) (rec string, det *mvpears.Detection, cached bool, spans []obs.Span, err error) {
	p := parser[string]{string(b)}
	flags, err := p.flags(verdictCached)
	if err != nil {
		return "", nil, false, nil, err
	}
	whole := p.b
	if det, err = p.detection(); err != nil {
		return "", nil, false, nil, err
	}
	rec = whole[:len(whole)-len(p.b)]
	if spans, err = p.spans(); err != nil {
		return "", nil, false, nil, err
	}
	return rec, det, flags&verdictCached != 0, spans, p.done()
}

// appendSpans appends the optional span tail. Like the trace-context
// tail, nothing is appended for an empty list so the encoding stays
// canonical. Peer is not shipped: the requester knows which peer it asked
// and stamps it while stitching.
func appendSpans(dst []byte, spans []obs.Span) []byte {
	if len(spans) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(spans)))
	for _, sp := range spans {
		dst = appendString(dst, sp.Stage)
		dst = appendString(dst, sp.Engine)
		dst = binary.AppendUvarint(dst, uint64(max(sp.Start, 0)))
		dst = binary.AppendUvarint(dst, uint64(max(sp.Dur, 0)))
	}
	return dst
}

// spans parses the optional span tail (nil when absent).
func (p *parser[T]) spans() ([]obs.Span, error) {
	if len(p.b) == 0 {
		return nil, nil
	}
	// A span is at least 4 bytes (two empty strings, two 1-byte uvarints),
	// bounding a hostile count. An empty list is encoded as no tail.
	n, err := p.length(4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty span tail", ErrBadFrame)
	}
	out := make([]obs.Span, n)
	for i := range out {
		if out[i].Stage, err = p.str(); err != nil {
			return nil, err
		}
		if out[i].Engine, err = p.str(); err != nil {
			return nil, err
		}
		start, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		dur, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if start > math.MaxInt64 || dur > math.MaxInt64 {
			return nil, fmt.Errorf("%w: span offset overflows", ErrBadFrame)
		}
		out[i].Start = time.Duration(start)
		out[i].Dur = time.Duration(dur)
	}
	return out, nil
}

// appendStrings appends ss as a count (nil kept apart from empty) and
// its strings.
func appendStrings(dst []byte, ss []string) []byte {
	dst = appendCount(dst, len(ss), ss == nil)
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

func (p *parser[T]) strings() ([]string, error) {
	n, err := p.count(1)
	if n < 0 || err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = p.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
