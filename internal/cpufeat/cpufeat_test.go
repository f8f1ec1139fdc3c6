package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX2MatchesCPUInfo cross-checks the probe against the kernel's own
// report where there is one: /proc/cpuinfo lists avx2 exactly when the
// CPU has it and the kernel enabled the YMM state.
func TestAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2 {
			t.Fatalf("AVX2 reported on %s", runtime.GOARCH)
		}
		return
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo:", err)
	}
	var flags string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = " " + line[strings.IndexByte(line, ':')+1:] + " "
			break
		}
	}
	if flags == "" {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	if want := strings.Contains(flags, " avx2 "); AVX2 != want {
		t.Fatalf("AVX2 = %v, /proc/cpuinfo lists avx2: %v", AVX2, want)
	}
}
