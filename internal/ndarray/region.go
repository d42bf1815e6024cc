package ndarray

import (
	"fmt"
)

// CopyRegion copies a hyper-rectangular region of counts elements from
// src (starting at srcOff) into dst (starting at dstOff). The two arrays
// may have different shapes; only the region extents must fit both.
func CopyRegion(dst *Array, dstOff []int, src *Array, srcOff []int, counts []int) error {
	n := dst.NDim()
	if src.NDim() != n || len(dstOff) != n || len(srcOff) != n || len(counts) != n {
		return fmt.Errorf("ndarray: CopyRegion rank mismatch (dst %d, src %d, offsets %d/%d, counts %d)",
			n, src.NDim(), len(dstOff), len(srcOff), len(counts))
	}
	dstShape, srcShape := dst.Shape(), src.Shape()
	if err := (Box{Offsets: dstOff, Counts: counts}).ValidIn(dstShape); err != nil {
		return fmt.Errorf("ndarray: CopyRegion destination: %w", err)
	}
	if err := (Box{Offsets: srcOff, Counts: counts}).ValidIn(srcShape); err != nil {
		return fmt.Errorf("ndarray: CopyRegion source: %w", err)
	}
	copyRegion(dst.data, dstShape, dstOff, src.data, srcShape, srcOff, counts)
	return nil
}

// Assemble builds one bounding box of a global array, labelled by dims,
// from the blocks it is scattered across — the M×N redistribution every
// reader of a partitioned stream performs (§III-B). boxes[i] is where
// block i sits in the global array; data(i) supplies its row-major
// values and is called only for blocks that intersect box, so a reader
// fetches nothing it does not need. The result is a fresh array: it
// never aliases a block. It is an error if the blocks leave any element
// of box uncovered.
func Assemble(dims []Dim, box Box, boxes []Box, data func(i int) ([]float64, error)) (*Array, error) {
	n := len(dims)
	shape := make([]int, n)
	outDims := make([]Dim, n)
	for i, d := range dims {
		shape[i] = d.Size
		outDims[i] = Dim{Name: d.Name}
	}
	if err := box.ValidIn(shape); err != nil {
		return nil, err
	}
	for i := range outDims {
		outDims[i].Size = box.Counts[i]
	}
	out := &Array{dims: outDims, data: make([]float64, box.Volume())}
	if len(out.data) == 0 {
		return out, nil
	}
	// The overlap of each block with box, and its offsets within the
	// block and within box.
	tmp := make([]int, 3*n)
	counts, srcOff, dstOff := tmp[:n], tmp[n:2*n], tmp[2*n:]
	covered := 0
	for b, bb := range boxes {
		if len(bb.Offsets) != n || len(bb.Counts) != n {
			return nil, fmt.Errorf("ndarray: block %d box %v does not match rank-%d array", b, bb, n)
		}
		overlap := 1
		for i := 0; i < n && overlap > 0; i++ {
			lo := max(box.Offsets[i], bb.Offsets[i])
			hi := min(box.Offsets[i]+box.Counts[i], bb.Offsets[i]+bb.Counts[i])
			counts[i], srcOff[i], dstOff[i] = hi-lo, lo-bb.Offsets[i], lo-box.Offsets[i]
			overlap *= max(hi-lo, 0)
		}
		if overlap == 0 {
			continue
		}
		vals, err := data(b)
		if err != nil {
			return nil, err
		}
		if len(vals) != bb.Volume() {
			return nil, fmt.Errorf("ndarray: block %d holds %d values, its box %v needs %d", b, len(vals), bb, bb.Volume())
		}
		copyRegion(out.data, box.Counts, dstOff, vals, bb.Counts, srcOff, counts)
		covered += overlap
	}
	if covered < len(out.data) {
		return nil, fmt.Errorf("ndarray: blocks cover %d of the %d elements of box %v", covered, len(out.data), box)
	}
	return out, nil
}

// copyRegion is the one strided copy loop under CopyRegion, CopyBox,
// PasteBox and Assemble: it moves the counts-shaped region at srcOff of
// the row-major buffer src (of shape srcShape) to dstOff of dst (of
// shape dstShape). Trailing axes the region spans whole in both arrays
// fold into one contiguous run, so a partition along the leading axis
// moves with a single copy. Callers have validated the region.
func copyRegion(dst []float64, dstShape, dstOff []int, src []float64, srcShape, srcOff []int, counts []int) {
	n := len(counts)
	if Volume(counts) == 0 {
		return
	}
	// Per-axis strides and the odometer over the outer axes; ranks above
	// 8 spill to the heap.
	var buf [24]int
	tmp := buf[:]
	if 3*n > len(buf) {
		tmp = make([]int, 3*n)
	}
	dStride, sStride, idx := tmp[:n], tmp[n:2*n], tmp[2*n:3*n]
	dPos, sPos := 0, 0
	ds, ss := 1, 1
	for i := n - 1; i >= 0; i-- {
		dStride[i], sStride[i] = ds, ss
		dPos += dstOff[i] * ds
		sPos += srcOff[i] * ss
		ds *= dstShape[i]
		ss *= srcShape[i]
	}
	// Axes [outer, n) form one contiguous run: every axis in it but the
	// outermost spans its whole extent in both arrays.
	outer, run := n, 1
	for outer > 0 {
		outer--
		run *= counts[outer]
		if counts[outer] != dstShape[outer] || counts[outer] != srcShape[outer] {
			break
		}
	}
	for {
		copy(dst[dPos:dPos+run], src[sPos:sPos+run])
		i := outer - 1
		for ; i >= 0; i-- {
			idx[i]++
			dPos += dStride[i]
			sPos += sStride[i]
			if idx[i] < counts[i] {
				break
			}
			idx[i] = 0
			dPos -= counts[i] * dStride[i]
			sPos -= counts[i] * sStride[i]
		}
		if i < 0 {
			return
		}
	}
}
