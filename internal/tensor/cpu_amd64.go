//go:build !noasm

package tensor

// CPU feature detection for the SIMD backends. The container-baked module
// has no external dependencies, so instead of golang.org/x/sys/cpu this is
// the same three-probe sequence that package uses: CPUID leaf 1 for
// AVX/FMA/OSXSAVE, XGETBV for OS-enabled XMM+YMM (and opmask+ZMM) state,
// CPUID leaf 7 for AVX2 and AVX-512F.

// cpuidAsm executes CPUID with the given leaf and subleaf.
//
//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (requires OSXSAVE, checked by the caller).
//
//go:noescape
func xgetbvAsm() (eax, edx uint32)

// cpuHasAVX2FMA reports whether this CPU and OS support the AVX2+FMA
// kernel set: AVX2 and FMA3 instructions present, and the OS saving
// XMM+YMM register state across context switches.
func cpuHasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fma     = 1 << 12 // CPUID.1:ECX.FMA
		osxsave = 1 << 27 // CPUID.1:ECX.OSXSAVE
		avx     = 1 << 28 // CPUID.1:ECX.AVX
	)
	_, _, ecx1, _ := cpuidAsm(1, 0)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS preserves YMM state.
	xlo, _ := xgetbvAsm()
	if xlo&0x6 != 0x6 {
		return false
	}
	const avx2 = 1 << 5 // CPUID.7.0:EBX.AVX2
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&avx2 != 0
}

// cpuHasAVX512F reports whether a CPU that passed cpuHasAVX2FMA also runs
// the 16-lane GEMM kernel: AVX-512 Foundation present, and the OS saving the
// opmask and ZMM register state beside XMM+YMM.
func cpuHasAVX512F() bool {
	// XCR0 bits 1, 2 (SSE, AVX) and 5, 6, 7 (opmask, ZMM0–15 high halves,
	// ZMM16–31).
	xlo, _ := xgetbvAsm()
	if xlo&0xE6 != 0xE6 {
		return false
	}
	const avx512f = 1 << 16 // CPUID.7.0:EBX.AVX512F
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&avx512f != 0
}
