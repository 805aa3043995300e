//go:build !noasm

package tensor

// CPU feature detection for the SIMD backends. The container-baked module
// has no external dependencies, so instead of golang.org/x/sys/cpu this is
// the same three-probe sequence that package uses: CPUID leaf 1 for
// AVX/FMA/OSXSAVE (and PCLMULQDQ/SSE4.1), XGETBV for OS-enabled XMM+YMM (and
// opmask+ZMM) state, CPUID leaf 7 for AVX2 and AVX-512F (and VPCLMULQDQ).

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

// cpuHasCLMUL512 reports whether a CPU that passed cpuHasAVX512F also runs
// the 512-bit CRC kernel: VPCLMULQDQ for its ZMM folds, and PCLMULQDQ and
// SSE4.1 for the 128-bit tail it shares with hash/crc32.
func cpuHasCLMUL512() bool {
	const (
		pclmulqdq = 1 << 1  // CPUID.1:ECX.PCLMULQDQ
		sse41     = 1 << 19 // CPUID.1:ECX.SSE4_1
		vpclmul   = 1 << 10 // CPUID.7.0:ECX.VPCLMULQDQ
	)
	_, _, ecx1, _ := cpuidAsm(1, 0)
	_, _, ecx7, _ := cpuidAsm(7, 0)
	return ecx1&pclmulqdq != 0 && ecx1&sse41 != 0 && ecx7&vpclmul != 0
}
