package nn

import "math"

// addMatVecLanes is the lane kernel: dst[r] += row r of panel · x for
// every r < len(dst), len(dst) a multiple of 8, each row's chain rounded
// exactly as addMatVec rounds it (DESIGN §7). It is set at package init
// on CPUs that have one (matvec_amd64.go) and nil everywhere else, where
// addMatVec is the only kernel.
var addMatVecLanes func(dst, panel, x []float64)

// panelOf returns the lane kernel's copy of the row-major out×in matrix
// w: its whole blocks of 8 rows, each block stored column after column,
// p[(b*in+i)*8+r] = w[(8b+r)*in+i]. The rows after the last whole block
// are not in it; mulAdd reads those from w. nil without a lane kernel.
func panelOf(w []float64, out, in int) []float64 {
	if addMatVecLanes == nil {
		return nil
	}
	rows := out &^ 7
	p := make([]float64, rows*in)
	for o := 0; o < rows; o++ {
		b, r := o/8, o%8
		for i, v := range w[o*in:][:in] {
			p[(b*in+i)*8+r] = v
		}
	}
	return p
}

// mulAdd is addMatVec with the lane kernel on the whole blocks of 8 rows
// that panel (panelOf(w, len(dst), len(x))) holds; the rows after them,
// and every row when panel is nil, run addMatVec. The result is
// addMatVec's, bit for bit.
func mulAdd(dst, w, panel, x []float64) {
	n := 0
	if panel != nil {
		n = len(dst) &^ 7
		addMatVecLanes(dst[:n], panel, x)
	}
	addMatVec(dst[n:], w[n*len(x):], x)
}

// addMatVec accumulates a row-major matrix-vector product onto dst:
// dst[o] = dst[o] + w[o*in+0]*x[0] + w[o*in+1]*x[1] + ... with in = len(x),
// every element summed strictly left to right. It is the Go inner-product
// kernel: the only one on CPUs without a lane kernel, the rows after the
// last whole block of 8 on the others, and the reference the lane kernel
// is held to. Four output rows advance per pass: each row keeps its own
// accumulator (so its IEEE-754 result is the one the plain one-row loop
// produces, bit for bit) while the four independent add chains overlap in
// the pipeline and share each x[i] load. Callers seed dst with the bias,
// which makes the bias the first term of the chain exactly as in
// `s := b[o]; s += w*x`.
//
// len(w) must be at least len(dst)*len(x).
func addMatVec(dst, w, x []float64) {
	in, out := len(x), len(dst)
	w = w[:out*in]
	o := 0
	for ; o+4 <= out; o += 4 {
		// Reslicing every row to len(x) lets the compiler drop the
		// bounds checks inside the loop.
		r0 := w[o*in:][:in]
		r1 := w[(o+1)*in:][:in]
		r2 := w[(o+2)*in:][:in]
		r3 := w[(o+3)*in:][:in]
		d := dst[o : o+4 : o+4]
		s0, s1, s2, s3 := d[0], d[1], d[2], d[3]
		for i, v := range x {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	}
	for ; o < out; o++ {
		row := w[o*in:][:in]
		s := dst[o]
		for i, v := range x {
			s += row[i] * v
		}
		dst[o] = s
	}
}

// tanhInPlace applies the hidden-layer nonlinearity to every element.
func tanhInPlace(v []float64) {
	for i, s := range v {
		v[i] = math.Tanh(s)
	}
}
