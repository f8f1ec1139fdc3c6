package nn

import "math"

// addMatVec accumulates a row-major matrix-vector product onto dst:
// dst[o] = dst[o] + w[o*in+0]*x[0] + w[o*in+1]*x[1] + ... with in = len(x),
// every element summed strictly left to right. It is the one float64
// inner-product kernel of the inference path. Four output rows advance
// per pass: each row keeps its own accumulator (so its IEEE-754 result is
// the one the plain one-row loop produces, bit for bit) while the four
// independent add chains overlap in the pipeline and share each x[i]
// load. Callers seed dst with the bias, which makes the bias the first
// term of the chain exactly as in `s := b[o]; s += w*x`.
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
