package dsp

import (
	"fmt"
	"slices"
)

// FrontEnd is the inference front end of a roster of extractors. It groups
// them by what they share upstream of the mel bank and does that work once:
// a spectrum group (equal SpectrumFingerprint) computes one power spectrum
// per frame and then each member's cepstra from it while it is hot in
// cache, never materializing a spectrogram; the spectrum groups with equal
// PreEmph (a pre-emphasis group) cut their frames from one pre-emphasized
// signal. Every member's matrix is bit-identical to its own MFCC.Extract,
// which is the same pass over a one-member FrontEnd. A FrontEnd is
// immutable and safe for concurrent use; working memory comes from the
// members' pools.
type FrontEnd struct {
	ms     []*MFCC
	groups []specGroup
	pres   []float64 // the PreEmph coefficient of each pre-emphasis group
	slack  int       // the longest FrameLen: what a stream's trim can leave behind
}

type specGroup struct {
	lead    *MFCC // supplies the frame geometry, window and FFT plan
	members []int // indices into ms, lead first
	pre     int   // index into pres
}

// NewFrontEnd groups ms, which must be non-empty. Results are indexed
// like ms.
func NewFrontEnd(ms []*MFCC) *FrontEnd {
	fe := &FrontEnd{ms: ms}
	for i, m := range ms {
		fe.slack = max(fe.slack, m.cfg.FrameLen)
		g := slices.IndexFunc(fe.groups, func(g specGroup) bool { return g.lead.sfp == m.sfp })
		if g < 0 {
			p := slices.Index(fe.pres, m.cfg.PreEmph)
			if p < 0 {
				p = len(fe.pres)
				fe.pres = append(fe.pres, m.cfg.PreEmph)
			}
			g = len(fe.groups)
			fe.groups = append(fe.groups, specGroup{lead: m, pre: p})
		}
		fe.groups[g].members = append(fe.groups[g].members, i)
	}
	return fe
}

// Extract computes every member's MFCC matrix (frames x NumCoeffs) of
// signal x in one pass per spectrum group.
func (fe *FrontEnd) Extract(x []float64) ([][][]float64, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("dsp: cannot extract MFCC from empty signal")
	}
	scratch := make([]*mfccScratch, len(fe.ms))
	for i, m := range fe.ms {
		scratch[i] = m.pool.Get().(*mfccScratch)
	}
	defer func() {
		for i, m := range fe.ms {
			m.pool.Put(scratch[i])
		}
	}()
	pres := make([][]float64, len(fe.pres))
	out := make([][][]float64, len(fe.ms))
	for gi := range fe.groups {
		g := &fe.groups[gi]
		if pres[g.pre] == nil {
			pres[g.pre] = preEmphasized(x, fe.pres[g.pre], scratch[g.members[0]])
		}
		nf := NumFrames(len(x), g.lead.cfg.FrameLen, g.lead.cfg.Hop)
		fe.emit(g, pres[g.pre], 0, 0, nf, scratch, out, nil)
	}
	return out, nil
}

// rowStore is the memory a stream's rows are cut from: fixed-size chunks
// filled in order and kept across Reset, so a stream that is reused for
// one signal after another stops allocating rows.
type rowStore struct {
	chunks   [][]float64
	cur, off int
}

// rowChunk is the floats per chunk: about a second of the roster's rows.
const rowChunk = 4096

// rows appends n rows of nc floats to dst: from r's chunks, or, when r is
// nil (a batch extraction), from one fresh array.
func (r *rowStore) rows(dst [][]float64, n, nc int) [][]float64 {
	if r == nil {
		flat := make([]float64, n*nc)
		dst = make([][]float64, 0, n)
		for f := 0; f < n; f++ {
			dst = append(dst, flat[f*nc:(f+1)*nc:(f+1)*nc])
		}
		return dst
	}
	for f := 0; f < n; f++ {
		for r.cur < len(r.chunks) && r.off+nc > len(r.chunks[r.cur]) {
			r.cur, r.off = r.cur+1, 0
		}
		if r.cur == len(r.chunks) {
			r.chunks = append(r.chunks, make([]float64, max(rowChunk, nc)))
		}
		dst = append(dst, r.chunks[r.cur][r.off:r.off+nc:r.off+nc])
		r.off += nc
	}
	return dst
}

// emit computes frames [first, first+n) of spectrum group g and stores
// each member's n rows in out, cut from store (one fresh backing array
// per member when it is nil). pre is the group's pre-emphasized signal
// from absolute sample base onward; a frame that reaches past its end is
// zero-padded. It is the whole per-frame path of batch extraction,
// streaming pushes and the stream's flush.
func (fe *FrontEnd) emit(g *specGroup, pre []float64, base, first, n int, scratch []*mfccScratch, out [][][]float64, store *rowStore) {
	for _, i := range g.members {
		out[i] = store.rows(out[i][:0], n, fe.ms[i].cfg.NumCoeffs)
	}
	lead, ls := g.lead, scratch[g.members[0]]
	for f := 0; f < n; f++ {
		start := min((first+f)*lead.cfg.Hop-base, len(pre))
		end := min(start+lead.cfg.FrameLen, len(pre))
		lead.rfft.power(pre[start:end], lead.window, ls.buf, ls.power)
		for _, i := range g.members {
			fe.ms[i].cepstra(ls.power, scratch[i], out[i][f])
		}
	}
}
