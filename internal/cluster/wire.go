package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
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
// Version 2 is the only version: MsgDetect carries an optional
// trace-context tail and MsgVerdict an optional span-list tail
// (cross-replica trace propagation). Both tails are encoded only when
// non-empty, so a tail-less payload is the untraced encoding. A frame of
// any other version fails at the header, which surfaces as a peer error —
// the requester degrades to local detection, never fails. The header
// does not judge the message type: the receiver answers a request type it
// does not serve with MsgErr on the live connection (handleFrame).
const (
	wireMagic0  = 'M'
	wireMagic1  = 'V'
	wireVersion = 2

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
	// MsgVerdict is the positive response: a flag byte plus a Detection.
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

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

type parser struct {
	b []byte
}

func (p *parser) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrBadFrame)
	}
	p.b = p.b[n:]
	return v, nil
}

// length reads a uvarint length of unit-sized elements, bounded by the
// bytes actually remaining so a hostile length cannot force allocation.
func (p *parser) length(unit int) (int, error) {
	v, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	if unit < 1 {
		unit = 1
	}
	if v > uint64(len(p.b)/unit) {
		return 0, fmt.Errorf("%w: declared %d elements, %d bytes remain", ErrBadFrame, v, len(p.b))
	}
	return int(v), nil
}

func (p *parser) str() (string, error) {
	n, err := p.length(1)
	if err != nil {
		return "", err
	}
	s := string(p.b[:n])
	p.b = p.b[n:]
	return s, nil
}

func (p *parser) bytes() ([]byte, error) {
	n, err := p.length(1)
	if err != nil {
		return nil, err
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b, nil
}

func (p *parser) float() (float64, error) {
	if len(p.b) < 8 {
		return 0, fmt.Errorf("%w: truncated float64", ErrBadFrame)
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(p.b))
	p.b = p.b[8:]
	return f, nil
}

func (p *parser) byteVal() (byte, error) {
	if len(p.b) == 0 {
		return 0, fmt.Errorf("%w: truncated byte", ErrBadFrame)
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v, nil
}

func (p *parser) done() error {
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
func (p *parser) traceContext() (obs.TraceContext, error) {
	if len(p.b) == 0 {
		return obs.TraceContext{}, nil
	}
	flags, err := p.byteVal()
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

// ParseDetect decodes a MsgDetect payload. pcm aliases b.
func ParseDetect(b []byte) (key string, sampleRate int, pcm []byte, tc obs.TraceContext, err error) {
	p := parser{b}
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
	if pcm, err = p.bytes(); err != nil {
		return "", 0, nil, tc, err
	}
	if tc, err = p.traceContext(); err != nil {
		return "", 0, nil, tc, err
	}
	return key, int(rate), pcm, tc, p.done()
}

// AppendErr encodes a MsgErr payload.
func AppendErr(dst []byte, msg string) []byte { return appendString(dst, msg) }

// ParseErr decodes a MsgErr payload.
func ParseErr(b []byte) (string, error) {
	p := parser{b}
	msg, err := p.str()
	if err != nil {
		return "", err
	}
	return msg, p.done()
}

// Verdict flag bits in a MsgVerdict payload.
const (
	verdictCached      = 1 << 0 // served from the receiver's cache (or a shared flight)
	verdictAdversarial = 1 << 1
	verdictHasCascade  = 1 << 2
	cascadeShort       = 1 << 0
	cascadeSampled     = 1 << 1
)

// AppendVerdict encodes a MsgVerdict payload: the cached flag plus the
// cacheable Detection fields (scores, transcriptions, timing, cascade
// provenance), then the optional span tail — the answering replica's
// own stage spans, shipped back only when the requester asked for them
// (TraceContext.Sampled) so a remote answer stitches into the requester's
// trace. Explanations are NOT shipped — they are deterministic in the
// transcriptions, so the requester derives them locally on demand,
// keeping the hit path payload small.
func AppendVerdict(dst []byte, det *mvpears.Detection, cached bool, spans []obs.Span) []byte {
	var flags byte
	if cached {
		flags |= verdictCached
	}
	if det.Adversarial {
		flags |= verdictAdversarial
	}
	if det.Cascade != nil {
		flags |= verdictHasCascade
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(det.Scores)))
	for _, s := range det.Scores {
		dst = appendFloat(dst, s)
	}
	// Engine names sort so the encoding is deterministic in the content.
	engines := make([]string, 0, len(det.Transcriptions))
	for e := range det.Transcriptions {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	dst = binary.AppendUvarint(dst, uint64(len(engines)))
	for _, e := range engines {
		dst = appendString(dst, e)
		dst = appendString(dst, det.Transcriptions[e])
	}
	dst = binary.AppendUvarint(dst, uint64(det.Timing.Recognition))
	dst = binary.AppendUvarint(dst, uint64(det.Timing.Similarity))
	dst = binary.AppendUvarint(dst, uint64(det.Timing.Classify))
	if c := det.Cascade; c != nil {
		var cf byte
		if c.ShortCircuit {
			cf |= cascadeShort
		}
		if c.SampledFull {
			cf |= cascadeSampled
		}
		dst = append(dst, cf)
		dst = appendStrings(dst, c.EnginesRun)
		dst = appendStrings(dst, c.EnginesSkipped)
		dst = appendFloat(dst, c.Margin)
		dst = appendFloat(dst, c.FirstScore)
		dst = binary.AppendUvarint(dst, uint64(len(c.Imputed)))
		for _, imp := range c.Imputed {
			v := byte(0)
			if imp {
				v = 1
			}
			dst = append(dst, v)
		}
	}
	return appendSpans(dst, spans)
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

// spans parses the optional span tail (nil when absent or empty).
func (p *parser) spans() ([]obs.Span, error) {
	if len(p.b) == 0 {
		return nil, nil
	}
	// A span is at least 4 bytes (two empty strings, two 1-byte uvarints),
	// bounding a hostile count.
	n, err := p.length(4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
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

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

func (p *parser) strings() ([]string, error) {
	n, err := p.length(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = p.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ParseVerdict decodes a MsgVerdict payload into a fresh Detection plus
// the answering replica's spans (nil when none were shipped).
func ParseVerdict(b []byte) (det *mvpears.Detection, cached bool, spans []obs.Span, err error) {
	p := parser{b}
	flags, err := p.byteVal()
	if err != nil {
		return nil, false, nil, err
	}
	det = &mvpears.Detection{Adversarial: flags&verdictAdversarial != 0}
	cached = flags&verdictCached != 0
	nScores, err := p.length(8)
	if err != nil {
		return nil, false, nil, err
	}
	if nScores > 0 {
		det.Scores = make([]float64, nScores)
		for i := range det.Scores {
			if det.Scores[i], err = p.float(); err != nil {
				return nil, false, nil, err
			}
		}
	}
	nTr, err := p.length(2)
	if err != nil {
		return nil, false, nil, err
	}
	det.Transcriptions = make(map[string]string, nTr)
	for i := 0; i < nTr; i++ {
		engine, err := p.str()
		if err != nil {
			return nil, false, nil, err
		}
		text, err := p.str()
		if err != nil {
			return nil, false, nil, err
		}
		det.Transcriptions[engine] = text
	}
	for _, dur := range []*time.Duration{
		&det.Timing.Recognition, &det.Timing.Similarity, &det.Timing.Classify,
	} {
		v, err := p.uvarint()
		if err != nil {
			return nil, false, nil, err
		}
		if v > math.MaxInt64 {
			return nil, false, nil, fmt.Errorf("%w: timing overflows", ErrBadFrame)
		}
		*dur = time.Duration(v)
	}
	if flags&verdictHasCascade != 0 {
		c := &mvpears.CascadeDecision{}
		cf, err := p.byteVal()
		if err != nil {
			return nil, false, nil, err
		}
		c.ShortCircuit = cf&cascadeShort != 0
		c.SampledFull = cf&cascadeSampled != 0
		if c.EnginesRun, err = p.strings(); err != nil {
			return nil, false, nil, err
		}
		if c.EnginesSkipped, err = p.strings(); err != nil {
			return nil, false, nil, err
		}
		if c.Margin, err = p.float(); err != nil {
			return nil, false, nil, err
		}
		if c.FirstScore, err = p.float(); err != nil {
			return nil, false, nil, err
		}
		nImp, err := p.length(1)
		if err != nil {
			return nil, false, nil, err
		}
		if nImp > 0 {
			c.Imputed = make([]bool, nImp)
			for i := range c.Imputed {
				v, err := p.byteVal()
				if err != nil {
					return nil, false, nil, err
				}
				c.Imputed[i] = v != 0
			}
		}
		det.Cascade = c
	}
	if spans, err = p.spans(); err != nil {
		return nil, false, nil, err
	}
	return det, cached, spans, p.done()
}
