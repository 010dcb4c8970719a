package equiv

import (
	"strings"
	"testing"

	"hddcart/internal/cart"
	"hddcart/internal/cpu"
)

// kernelPaths is the dispatch-sensitive path battery: every scoring
// path whose inner loops route through the cart partition kernels, with
// block sizes and worker counts bracketing the vector widths (8-code
// words, 16-element blind-store windows) and the 256-row tile seam.
func kernelPaths() []Path {
	return []Path{
		TiledRange(0),
		TiledRange(255),
		TiledRange(256),
		TiledRange(257),
		TiledWorkers(4),
	}
}

// TestKernelDispatchMatrix is the kernel-equivalence contract: for
// every adversarial Spec, every dispatch-sensitive path scores
// bit-identically under every kernel tier this build supports. The
// per-row binned walk, which runs no partition kernel, anchors each
// comparison, so a divergence in either tier is reported against the
// reference semantics — and builds with one tier (noasm, non-amd64, no
// AVX2) still check it. CI stress-runs this test with -race -count=3.
func TestKernelDispatchMatrix(t *testing.T) {
	kernels := cpu.Kernels()
	for _, tc := range specMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Generate(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range kernelPaths() {
				paths := []Path{BinnedScalar()}
				for _, k := range kernels {
					paths = append(paths, ForceKernel(k, p))
				}
				if err := CheckAll(c, paths...); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestForceKernelRestores pins the wrapper's cleanup: after a forced
// scoring pass the ambient dispatch tier is back to what it was.
func TestForceKernelRestores(t *testing.T) {
	c, err := Generate(Spec{Rows: 64, Features: 3, MaxBins: 8, Seed: 9, DistinctValues: 12})
	if err != nil {
		t.Fatal(err)
	}
	before := cpu.Active()
	dst := make([]float64, 64)
	for _, k := range cpu.Kernels() {
		ForceKernel(k, TiledRange(0)).Score(c, dst)
		if got := cpu.Active(); got != before {
			t.Fatalf("kernel %s left active tier %s, want %s", k, got, before)
		}
	}
}

// TestAsmKernelsCoveredByHarness walks the asm-backed kernel registry
// and proves each row's equiv path family names paths this harness
// actually builds — the registry's claim that "the dispatch matrix pins
// this kernel" must not rot into pointing at a renamed path.
func TestAsmKernelsCoveredByHarness(t *testing.T) {
	names := make([]string, 0, len(kernelPaths()))
	for _, p := range kernelPaths() {
		names = append(names, p.Name)
	}
	for _, k := range cart.AsmKernels() {
		if k.Name == "" || k.Fallback == "" {
			t.Fatalf("registry row %+v: unresolvable function names", k)
		}
		if k.EquivPath == "" {
			t.Fatalf("asm kernel %s registered without an equiv path family", k.Name)
		}
		found := false
		for _, n := range names {
			if n == k.EquivPath || strings.HasPrefix(n, k.EquivPath+"/") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("asm kernel %s: equiv path family %q matches no kernel-matrix path (have %v)",
				k.Name, k.EquivPath, names)
		}
	}
}
