package cart

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// fuzzNumFeatures is the feature-vector width of every fuzz-built tree.
const fuzzNumFeatures = 4

// treeFromBytes deterministically decodes an arbitrary byte string into a
// structurally valid tree: each step consumes a control byte (grow an
// internal node vs. emit a leaf) plus split/leaf payload bytes. Depth and
// node count are bounded by the input length, so every input terminates.
func treeFromBytes(data []byte) *Tree {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	var build func(depth int) *Node
	build = func(depth int) *Node {
		ctrl := next()
		n := &Node{
			Value:   float64(int(next())-128) / 16,
			PFailed: float64(next()) / 255,
			N:       int(next()) + 1,
			W:       float64(next())/8 + 0.5,
		}
		if depth >= 12 || ctrl < 128 || pos >= len(data) {
			return n // leaf
		}
		n.Feature = int(next()) % fuzzNumFeatures
		n.Threshold = float64(int(next())-128) / 10
		n.Gain = float64(next()) / 512
		n.Left = build(depth + 1)
		n.Right = build(depth + 1)
		return n
	}
	kind := Classification
	if next()%2 == 1 {
		kind = Regression
	}
	return &Tree{Root: build(0), Kind: kind, NumFeatures: fuzzNumFeatures}
}

// FuzzTreeJSONRoundTrip guards the serialization the parallel-determinism
// tests compare against: any tree must survive Marshal→Unmarshal with its
// predictions intact, and a second Marshal must reproduce the first byte
// for byte (so byte comparison of trees is a sound equality test).
func FuzzTreeJSONRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{200, 10, 20, 30, 40, 1, 50, 3, 0, 0, 0, 0, 0, 255, 1, 2, 3, 4, 5})
	f.Add(bytes.Repeat([]byte{0xC8, 0x55, 0x10, 0x99, 0x42}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := treeFromBytes(data)
		enc, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Tree
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("unmarshal own output: %v\n%s", err, enc)
		}
		reenc, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(enc, reenc) {
			t.Fatalf("round-trip not byte-stable:\n%s\n%s", enc, reenc)
		}
		// Predictions must be preserved at a probe grid plus every
		// split threshold (both sides of each boundary).
		probes := [][]float64{
			{0, 0, 0, 0},
			{1, 1, 1, 1},
			{-12.8, 12.7, -1, 1},
		}
		var collect func(n *Node)
		collect = func(n *Node) {
			if n == nil || n.IsLeaf() {
				return
			}
			lo, hi := make([]float64, fuzzNumFeatures), make([]float64, fuzzNumFeatures)
			for i := range lo {
				lo[i] = n.Threshold - 0.01
				hi[i] = n.Threshold + 0.01
			}
			probes = append(probes, lo, hi)
			collect(n.Left)
			collect(n.Right)
		}
		collect(orig.Root)
		for _, p := range probes {
			a, b := orig.Predict(p), back.Predict(p)
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("prediction changed after round-trip: %v vs %v at %v", a, b, p)
			}
			pa, pb := orig.leaf(p).PFailed, back.leaf(p).PFailed
			if pa != pb && !(math.IsNaN(pa) && math.IsNaN(pb)) {
				t.Fatalf("leaf PFailed changed after round-trip: %v vs %v", pa, pb)
			}
		}
		if orig.NumNodes() != back.NumNodes() || orig.NumLeaves() != back.NumLeaves() ||
			orig.Depth() != back.Depth() {
			t.Fatalf("tree shape changed: %d/%d/%d vs %d/%d/%d nodes/leaves/depth",
				orig.NumNodes(), orig.NumLeaves(), orig.Depth(),
				back.NumNodes(), back.NumLeaves(), back.Depth())
		}
	})
}
