package cpufeat

// cpuid executes CPUID with EAX=eaxArg and ECX=ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the extended control register that says which
// register states the operating system saves.
func xgetbv() (eax, edx uint32)

func init() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return
	}
	// XCR0 bit 1 is the SSE state, bit 2 the upper halves of the YMM
	// registers; without both the kernel's registers do not survive a
	// context switch.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	AVX2 = ebx7&(1<<5) != 0
}
