package cart

import (
	"sync"
	"unsafe"

	"hddcart/internal/cpu"
	"hddcart/internal/dataset"
)

// The tiled engine: code-space scoring over the tiled layout the fleet
// sweep packs, and the repo's only partitioned traversal. A
// dataset.TiledMatrix stores each tile of TileRows rows feature-major,
// so the code column a partition kernel reads at a node is one straight
// byte run of at most TileRows bytes — four cache lines — instead of a
// stride-NumFeatures march across a block of rows. Scoring a row range
// walks it tile chunk by tile chunk (chunks never cross a tile
// boundary). Inside each chunk the traversal is tree-major: at every
// split the chunk's sample indices are partitioned, left-goers packed
// from the front of a ping-ponged index buffer and right-goers from the
// back, and the two halves are pushed onto a segment stack. Each sample
// still sees exactly the comparisons of its own root-to-leaf path, just
// grouped by node, and each dst slot is written once per tree, so
// verdicts are bit-identical to Predict on each row; the internal/equiv
// matrices pit the two against each other.

const tileRows = dataset.TileRows

// minPartitionBatch is the chunk size below which the partitioned
// traversal's per-node bookkeeping outweighs its per-sample savings and
// the chunk is walked row by row instead.
const minPartitionBatch = 32

// minSegPartition is the segment size below which the partitioned
// traversal stops splitting and walks each sample down the remaining
// subtree instead. The walk's per-level child select is a data-dependent
// branch, so it pays a misprediction about every other level; the
// partition path is branch-free (fused-cursor scalar tail below the
// vector width) and keeps winning down to two-sample segments — only a
// single sample, where partitioning cannot split anything, walks.
// Lowering this from 16 was worth ~10% of single-thread fleet-sweep
// throughput on every kernel tier. Output-invariant: each sample writes
// its own dst row exactly once either way.
const minSegPartition = 2

// batchScratch holds the reusable buffers of a partitioned traversal:
// the two ping-ponged index buffers, each one tile high, and the segment
// stack. Pooled so steady-state scoring never allocates.
type batchScratch struct {
	cur, next []int32
	stack     []segment
}

// segment is one pending unit of partitioned traversal: the samples in
// buf[lo:hi] (cur or next, by flipped) have all reached node.
type segment struct {
	node    int32
	lo, hi  int32
	flipped bool
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// Pre-boxed panic values for the guard checks below. panic's argument
// is an interface, so panic("literal") boxes the string at the call
// site — a heap allocation escape analysis reports inside the noalloc
// kernels. Boxing once at package init keeps the guards free; recover
// still sees the same string value.
var (
	errTiledRowRange  any = "cart: tiled row range out of bounds"
	errTiledTreeWidth any = "cart: tree reads features beyond the tiled matrix width"
)

// PredictTiledRange scores rows [lo, hi) of a tiled code matrix into
// dst[:hi-lo], so dst[i] equals Predict of row lo+i. dst must hold at
// least hi-lo entries; the call is allocation-free in steady state. This
// is the kernel internal/sweep work items run on.
//
//hddlint:noalloc //hddlint:nobc
func (bt *BinnedTree) PredictTiledRange(tm *dataset.TiledMatrix, lo, hi int, dst []float64) {
	bt.scoreTiledRange(tm, lo, hi, dst)
}

// scoreTiledRange drives the per-tile-chunk traversal. The bounds and
// width checks up front are what make the unchecked byte loads in the
// kernels safe: every address they form is basep + f·tileRows + k with
// f < needLen ≤ NumFeatures and r0 + k < tileRows, which stays inside
// the chunk's tile.
//
//hddlint:noalloc
//hddlint:binned
func (bt *BinnedTree) scoreTiledRange(tm *dataset.TiledMatrix, lo, hi int, dst []float64) {
	if lo < 0 || lo > hi || hi > tm.NumRows {
		panic(errTiledRowRange)
	}
	if bt.needLen > tm.NumFeatures {
		panic(errTiledTreeWidth)
	}
	dst = dst[:hi-lo]
	if lo == hi {
		return
	}
	if bt.Feature[0] < 0 { // single-leaf tree
		p := bt.Value[0]
		for i := range dst {
			dst[i] = p
		}
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.cur) < tileRows {
		//hddlint:ignore hotalloc cold path: pooled scratch grows to the tile height once, then every Get reuses it
		sc.cur = make([]int32, tileRows)
		//hddlint:ignore hotalloc cold path: pooled scratch grows once
		sc.next = make([]int32, tileRows)
	}
	nf := tm.NumFeatures
	for a := lo; a < hi; {
		t := a / tileRows
		b := min(hi, (t+1)*tileRows)
		n := b - a
		basep := unsafe.Pointer(&tm.Data[t*tileRows*nf+(a-t*tileRows)])
		cdst := dst[a-lo : b-lo]
		if n < minPartitionBatch {
			walkRangeTiled(bt.nodes, basep, n, cdst, bt.Value, false)
		} else {
			l := partitionRootBinnedTiled(unsafe.Add(basep, uintptr(bt.Feature[0])*tileRows),
				n, unsafe.Pointer(&sc.cur[0]), bt.Cut[0])
			bt.runSegmentsTiled(sc, basep, cdst, bt.Value, l, n, false)
		}
		a = b
	}
	batchScratchPool.Put(sc)
}

// AccumulateTiledRange accumulates every tree's prediction for rows
// [lo, hi) onto dst[:hi-lo], in tree order per row, so each row's sum
// matches a per-row loop adding the trees' Predict in ensemble order bit
// for bit. dst must already hold hi-lo partial sums. Ensemble scorers
// run on it; all trees share one pooled scratch per call.
//
//hddlint:noalloc
//hddlint:binned
func AccumulateTiledRange(trees []*BinnedTree, tm *dataset.TiledMatrix, lo, hi int, dst []float64) {
	if lo < 0 || lo > hi || hi > tm.NumRows {
		panic(errTiledRowRange)
	}
	dst = dst[:hi-lo]
	if lo == hi || len(trees) == 0 {
		return
	}
	need := 0
	for _, t := range trees {
		need = max(need, t.needLen)
	}
	if need > tm.NumFeatures {
		panic(errTiledTreeWidth)
	}
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.cur) < tileRows {
		//hddlint:ignore hotalloc cold path: pooled scratch grows to the tile height once, then every Get reuses it
		sc.cur = make([]int32, tileRows)
		//hddlint:ignore hotalloc cold path: pooled scratch grows once
		sc.next = make([]int32, tileRows)
	}
	nf := tm.NumFeatures
	for a := lo; a < hi; {
		t := a / tileRows
		b := min(hi, (t+1)*tileRows)
		n := b - a
		basep := unsafe.Pointer(&tm.Data[t*tileRows*nf+(a-t*tileRows)])
		cdst := dst[a-lo : b-lo]
		for _, tr := range trees {
			if tr.Feature[0] < 0 { // single-leaf tree
				p := tr.Value[0]
				for i := range cdst {
					cdst[i] += p
				}
				continue
			}
			if n < minPartitionBatch {
				walkRangeTiled(tr.nodes, basep, n, cdst, tr.Value, true)
				continue
			}
			l := partitionRootBinnedTiled(unsafe.Add(basep, uintptr(tr.Feature[0])*tileRows),
				n, unsafe.Pointer(&sc.cur[0]), tr.Cut[0])
			tr.runSegmentsTiled(sc, basep, cdst, tr.Value, l, n, true)
		}
		a = b
	}
	batchScratchPool.Put(sc)
}

// runSegmentsTiled drains the partitioned traversal of one tile chunk
// below an already-split root: cur[:rootLeft] holds the left-goers and
// cur[rootLeft:n] the right-goers. Each node's feature column sits at
// basep + feature·tileRows and is indexed directly by the chunk-local
// sample index. Every sample's leaf payload is delivered (or, with add,
// accumulated) into dst. A node whose children are both leaves fuses
// its split with the payload delivery, and a segment under
// minSegPartition walks the rest of the subtree sample by sample.
//
//hddlint:noalloc
//hddlint:binned
func (bt *BinnedTree) runSegmentsTiled(sc *batchScratch, basep unsafe.Pointer,
	dst, payload []float64, rootLeft, n int, add bool) {
	feat := bt.Feature
	cut := bt.Cut
	left, right := bt.Left, bt.Right
	cur, next := sc.cur[:n], sc.next[:n]
	stack := sc.stack[:0]
	//hddlint:ignore hotalloc append targets pooled scratch that grows to the tree depth once, then stays within capacity
	stack = append(stack,
		segment{node: right[0], lo: int32(rootLeft), hi: int32(n)},
		segment{node: left[0], lo: 0, hi: int32(rootLeft)})
	for len(stack) > 0 {
		sg := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if sg.lo == sg.hi {
			continue
		}
		src, out := cur, next
		if sg.flipped {
			src, out = next, cur
		}
		node := sg.node
		seg := src[sg.lo:sg.hi]
		if feat[node] < 0 { // leaf: deliver the payload to every sample here
			p := payload[node]
			if add {
				for _, idx := range seg {
					dst[idx] += p
				}
			} else {
				for _, idx := range seg {
					dst[idx] = p
				}
			}
			continue
		}
		colp := unsafe.Add(basep, uintptr(feat[node])*tileRows)
		if ln := left[node]; feat[ln] < 0 && feat[ln+1] < 0 {
			// One tier only: the payload delivery scatters float64s by
			// sample index, so a vector compare would buy nothing.
			leafPairSegTiledScalar(unsafe.Pointer(&src[sg.lo]), len(seg), colp, cut[node],
				unsafe.Pointer(&dst[0]), unsafe.Pointer(&payload[ln]), add)
			continue
		}
		if len(seg) < minSegPartition {
			walkSegBinnedTiled(bt.nodes, seg, basep, dst, payload, node, add)
			continue
		}
		nl := partitionSegBinnedTiled(unsafe.Pointer(&src[sg.lo]), unsafe.Pointer(&out[sg.lo]),
			len(seg), colp, cut[node])
		mid := sg.lo + int32(nl)
		//hddlint:ignore hotalloc append targets pooled scratch that grows to the tree depth once, then stays within capacity
		stack = append(stack,
			segment{node: right[node], lo: mid, hi: sg.hi, flipped: !sg.flipped},
			segment{node: left[node], lo: sg.lo, hi: mid, flipped: !sg.flipped})
	}
	sc.stack = stack[:0]
}

// partitionRootBinnedTiled splits the implicit chunk order 0..n-1 on
// colp[k] < cut. The feature column is contiguous in the tiled layout —
// no stride, no gather — which is exactly the shape the AVX2 tier
// wants: the dispatch takes it when the CPU supports it and the scalar
// tier otherwise, and both produce the same bytes in the same order
// (see partition_scalar.go for the order contract).
//
//go:noinline
//hddlint:noalloc //hddlint:nobc
//hddlint:binned
func partitionRootBinnedTiled(colp unsafe.Pointer, n int, outp unsafe.Pointer, cut uint8) int {
	if cpu.Active() == cpu.AVX2 {
		return partitionRootTiledAVX2(colp, n, outp, cut)
	}
	return partitionRootTiledScalar(colp, n, outp, cut)
}

// partitionSegBinnedTiled partitions an interior node's segment: sample
// indices come from srcp and index the node's contiguous feature column.
//
//go:noinline
//hddlint:noalloc //hddlint:nobc
//hddlint:binned
func partitionSegBinnedTiled(srcp, outp unsafe.Pointer, n int, colp unsafe.Pointer, cut uint8) int {
	if cpu.Active() == cpu.AVX2 {
		return partitionSegTiledAVX2(srcp, outp, n, colp, cut)
	}
	return partitionSegTiledScalar(srcp, outp, n, colp, cut)
}

// walkSegBinnedTiled finishes a small segment sample-major down the
// packed subtree; a row's feature f lives at basep + f·tileRows + idx.
// With minSegPartition at 2 the partition kernels carry every segment
// that could amortize anything fancier, so this stays the plain
// dependent-load walk.
//
//hddlint:noalloc
//hddlint:binned
func walkSegBinnedTiled(nodes []binnedNode, seg []int32, basep unsafe.Pointer,
	dst, payload []float64, node int32, add bool) {
	for _, idx := range seg {
		rowp := unsafe.Add(basep, uintptr(uint32(idx)))
		i := node
		for {
			nd := &nodes[i]
			f := nd.feature
			if f < 0 {
				break
			}
			if *(*uint8)(unsafe.Add(rowp, uintptr(f)*tileRows)) < nd.cut {
				i = nd.left
			} else {
				i = nd.left + 1
			}
		}
		if add {
			dst[idx] += payload[i]
		} else {
			dst[idx] = payload[i]
		}
	}
}

// walkRangeTiled scores a whole chunk under minPartitionBatch rows
// (implicit order 0..n-1) sample-major from the root.
//
//hddlint:noalloc
//hddlint:binned
func walkRangeTiled(nodes []binnedNode, basep unsafe.Pointer, n int,
	dst, payload []float64, add bool) {
	for k := 0; k < n; k++ {
		rowp := unsafe.Add(basep, uintptr(k))
		i := int32(0)
		for {
			nd := &nodes[i]
			f := nd.feature
			if f < 0 {
				break
			}
			if *(*uint8)(unsafe.Add(rowp, uintptr(f)*tileRows)) < nd.cut {
				i = nd.left
			} else {
				i = nd.left + 1
			}
		}
		if add {
			dst[k] += payload[i]
		} else {
			dst[k] = payload[i]
		}
	}
}
