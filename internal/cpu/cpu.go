// Package cpu selects which partition-kernel implementation the binned
// engines dispatch to at runtime.
//
// Two kernel tiers exist:
//
//   - AVX2: hand-written amd64 assembly (byte compares + movmask +
//     table-driven order-preserving compaction). Requires CPU support
//     (CPUID) and OS support (XGETBV), and is compiled out entirely
//     under the noasm build tag or on non-amd64 targets.
//   - Scalar: the branch-free pure-Go reference kernels the AVX2 tier
//     is pinned bit-identical to. Always available.
//
// AVX2 is picked at init when supported, scalar otherwise. Both tiers
// produce byte-identical output — the internal/equiv dispatch matrix
// enforces it — so the selection is a pure performance choice, never a
// correctness one. Tests switch tiers through SetActive.
package cpu

// Kernel names one partition-kernel implementation tier.
type Kernel uint8

const (
	// Scalar is the portable pure-Go implementation.
	Scalar Kernel = iota
	// AVX2 is the amd64 assembly implementation.
	AVX2
)

// String returns the tier's name, as profile labels and bench reports
// print it.
func (k Kernel) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case AVX2:
		return "avx2"
	}
	return "unknown"
}

// active is written at init and by SetActive; the scoring hot paths
// read it on every partition call. SetActive must not race with
// in-flight scoring — tests switch kernels only between runs.
var active = pickKernel(hasAVX2)

// pickKernel returns the strongest tier the detected CPU capability
// allows. Split out pure so tests cover both outcomes on any host.
func pickKernel(avx2 bool) Kernel {
	if avx2 {
		return AVX2
	}
	return Scalar
}

// Active returns the tier the binned engines currently dispatch to.
func Active() Kernel { return active }

// Supported reports whether the tier can run on this CPU and build.
func Supported(k Kernel) bool {
	switch k {
	case Scalar:
		return true
	case AVX2:
		return hasAVX2
	}
	return false
}

// Kernels returns the supported tiers, weakest first. The slice is
// freshly allocated; callers may reorder it.
func Kernels() []Kernel {
	ks := []Kernel{Scalar}
	if hasAVX2 {
		ks = append(ks, AVX2)
	}
	return ks
}

// SetActive switches the dispatch tier, returning the previous tier and
// whether the switch happened (unsupported tiers are refused). It is
// for tests and benchmarks: callers must quiesce scoring first, and
// should restore the previous tier when done.
func SetActive(k Kernel) (prev Kernel, ok bool) {
	prev = active
	if !Supported(k) {
		return prev, false
	}
	active = k
	return prev, true
}
