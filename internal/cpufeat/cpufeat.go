// Package cpufeat reports the instruction-set extensions the lane
// kernels of internal/nn and internal/hmm need. It is read once, at
// package init; on GOARCHes without a probe every feature reads false and
// those packages run their Go loops.
package cpufeat

// AVX2 is true when the CPU implements AVX2 and the operating system
// saves the YMM registers across context switches (XCR0 bits 1 and 2).
var AVX2 bool
