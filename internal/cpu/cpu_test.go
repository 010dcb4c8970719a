package cpu

import (
	"slices"
	"testing"
)

func TestKernelString(t *testing.T) {
	for k, want := range map[Kernel]string{Scalar: "scalar", AVX2: "avx2", Kernel(250): "unknown"} {
		if got := k.String(); got != want {
			t.Fatalf("Kernel(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestPickKernel(t *testing.T) {
	if got := pickKernel(false); got != Scalar {
		t.Errorf("pickKernel(avx2=false) = %v, want scalar", got)
	}
	if got := pickKernel(true); got != AVX2 {
		t.Errorf("pickKernel(avx2=true) = %v, want avx2", got)
	}
	// The init-time pick is the strongest supported tier.
	if want := pickKernel(Supported(AVX2)); Active() != want {
		t.Errorf("Active() = %v, want %v", Active(), want)
	}
}

func TestSupportedAndKernels(t *testing.T) {
	if !Supported(Scalar) {
		t.Fatal("scalar must always be supported")
	}
	want := []Kernel{Scalar}
	if Supported(AVX2) {
		want = append(want, AVX2)
	}
	if ks := Kernels(); !slices.Equal(ks, want) {
		t.Fatalf("Kernels() = %v, want %v", ks, want)
	}
	if Supported(Kernel(250)) {
		t.Fatal("unknown tier reported supported")
	}
}

func TestSetActive(t *testing.T) {
	orig := Active()
	defer SetActive(orig)
	for _, k := range Kernels() {
		if _, ok := SetActive(k); !ok {
			t.Fatalf("SetActive(%v) refused a supported tier", k)
		}
		if Active() != k {
			t.Fatalf("Active() = %v after SetActive(%v)", Active(), k)
		}
	}
	if prev, ok := SetActive(Kernel(250)); ok || prev != Active() {
		t.Fatalf("SetActive(unknown) = %v, %v; want refusal leaving %v active", prev, ok, Active())
	}
	if !Supported(AVX2) {
		if _, ok := SetActive(AVX2); ok {
			t.Fatal("SetActive accepted an unsupported tier")
		}
	}
}
