//go:build !amd64 || noasm

package cpu

// Without the amd64 assembly the AVX2 tier does not exist; scalar is
// the only tier.
const hasAVX2 = false
