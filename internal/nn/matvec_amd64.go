package nn

import "mvpears/internal/cpufeat"

// addMatVecAVX2 is the AVX2 lane kernel (matvec_amd64.s). len(dst) must
// be a multiple of 8 and panel must hold len(dst)*len(x) values.
//
//go:noescape
func addMatVecAVX2(dst, panel, x []float64)

func init() {
	if cpufeat.AVX2 {
		addMatVecLanes = addMatVecAVX2
	}
}
