package ndarray

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCopyRegion2D(t *testing.T) {
	src := MustFromData(seq(12), Dim{"r", 3}, Dim{"c", 4})
	dst := New(Dim{"r", 5}, Dim{"c", 5}).Fill(-1)
	// Copy the 2x2 block at src(1,2) to dst(0,0).
	if err := CopyRegion(dst, []int{0, 0}, src, []int{1, 2}, []int{2, 2}); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{6, 7}, {10, 11}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if dst.At(i, j) != want[i][j] {
				t.Fatalf("dst(%d,%d) = %v, want %v", i, j, dst.At(i, j), want[i][j])
			}
		}
	}
	if dst.At(2, 2) != -1 {
		t.Fatal("CopyRegion wrote outside the region")
	}
}

func TestCopyRegionErrors(t *testing.T) {
	src := New(Dim{"x", 3})
	dst := New(Dim{"x", 3})
	if err := CopyRegion(dst, []int{0}, src, []int{2}, []int{2}); err == nil {
		t.Error("source overrun accepted")
	}
	if err := CopyRegion(dst, []int{2}, src, []int{0}, []int{2}); err == nil {
		t.Error("destination overrun accepted")
	}
	if err := CopyRegion(dst, []int{0, 0}, src, []int{0}, []int{1}); err == nil {
		t.Error("rank mismatch accepted")
	}
}

func TestCopyRegionEmpty(t *testing.T) {
	src := MustFromData(seq(4), Dim{"x", 4})
	dst := New(Dim{"x", 4}).Fill(7)
	if err := CopyRegion(dst, []int{0}, src, []int{0}, []int{0}); err != nil {
		t.Fatal(err)
	}
	for _, v := range dst.Data() {
		if v != 7 {
			t.Fatal("empty region copy modified destination")
		}
	}
}

// Property: CopyRegion agrees with elementwise assignment for random
// shapes, offsets and counts in up to 4 dimensions.
func TestQuickCopyRegionMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		srcDims := make([]Dim, n)
		dstDims := make([]Dim, n)
		srcOff := make([]int, n)
		dstOff := make([]int, n)
		counts := make([]int, n)
		for i := 0; i < n; i++ {
			counts[i] = 1 + r.Intn(4)
			srcDims[i] = Dim{Name: "d", Size: counts[i] + r.Intn(4)}
			dstDims[i] = Dim{Name: "d", Size: counts[i] + r.Intn(4)}
			srcOff[i] = r.Intn(srcDims[i].Size - counts[i] + 1)
			dstOff[i] = r.Intn(dstDims[i].Size - counts[i] + 1)
		}
		src := New(srcDims...)
		for i := range src.Data() {
			src.Data()[i] = r.Float64()
		}
		fast := New(dstDims...)
		if err := CopyRegion(fast, dstOff, src, srcOff, counts); err != nil {
			return false
		}
		slow := New(dstDims...)
		idx := make([]int, n)
		total := Volume(counts)
		for k := 0; k < total; k++ {
			sIdx := make([]int, n)
			dIdx := make([]int, n)
			for i := 0; i < n; i++ {
				sIdx[i] = srcOff[i] + idx[i]
				dIdx[i] = dstOff[i] + idx[i]
			}
			slow.Set(src.At(sIdx...), dIdx...)
			for i := n - 1; i >= 0; i-- {
				idx[i]++
				if idx[i] < counts[i] {
					break
				}
				idx[i] = 0
			}
		}
		return fast.Equal(slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// halves is an 8-element vector scattered as two 4-element blocks.
func halves() ([]Dim, []Box, [][]float64) {
	return []Dim{{Name: "x", Size: 8}},
		[]Box{{Offsets: []int{0}, Counts: []int{4}}, {Offsets: []int{4}, Counts: []int{4}}},
		[][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
}

// TestAssembleBoxCrossPartition assembles a box spanning two blocks, and
// copies even a box one block holds exactly.
func TestAssembleBoxCrossPartition(t *testing.T) {
	dims, boxes, data := halves()
	get := func(i int) ([]float64, error) { return data[i], nil }
	arr, err := Assemble(dims, Box{Offsets: []int{2}, Counts: []int{4}}, boxes, get)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 4, 5, 6}
	for i, v := range arr.Data() {
		if v != want[i] {
			t.Fatalf("assembled = %v, want %v", arr.Data(), want)
		}
	}
	if arr.Dim(0) != (Dim{Name: "x", Size: 4}) {
		t.Fatalf("assembled dims = %v", arr.Dims())
	}
	whole, err := Assemble(dims, boxes[1], boxes, get)
	if err != nil {
		t.Fatal(err)
	}
	data[1][0] = 99
	if whole.Data()[0] != 5 {
		t.Fatal("assembly aliased a block instead of copying it")
	}
}

// TestAssembleBoxCoverageError: a box the blocks do not fully cover is
// an error, not silently zero-filled data; so is a block whose data does
// not fill its box. A block the box misses is never fetched.
func TestAssembleBoxCoverageError(t *testing.T) {
	dims, boxes, data := halves()
	fetched := map[int]bool{}
	get := func(i int) ([]float64, error) { fetched[i] = true; return data[i], nil }
	box := Box{Offsets: []int{2}, Counts: []int{4}}
	if _, err := Assemble(dims, box, boxes[:1], get); err == nil {
		t.Fatal("partial coverage assembled without error")
	}
	if _, err := Assemble(dims, box, nil, get); err == nil {
		t.Fatal("assembly from no blocks succeeded")
	}
	if _, err := Assemble(dims, Box{Offsets: []int{6}, Counts: []int{4}}, boxes, get); err == nil {
		t.Fatal("box beyond the global array assembled")
	}
	short := func(i int) ([]float64, error) { return data[i][:3], nil }
	if _, err := Assemble(dims, box, boxes, short); err == nil {
		t.Fatal("block shorter than its box assembled")
	}
	clear(fetched)
	if _, err := Assemble(dims, Box{Offsets: []int{5}, Counts: []int{2}}, boxes, get); err != nil {
		t.Fatal(err)
	}
	if fetched[0] || !fetched[1] {
		t.Fatalf("fetched blocks %v, want only block 1", fetched)
	}
}

// Property: assembling a random box from a random partition of a random
// global array (along any axis, into any number of parts) equals
// CopyBox of the global array.
func TestQuickAssembleMatchesCopyBox(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		dims := make([]Dim, n)
		for i := range dims {
			dims[i] = Dim{Name: "d", Size: 1 + r.Intn(6)}
		}
		global := New(dims...)
		copy(global.Data(), seq(global.Size()))
		axis, parts := r.Intn(n), 1+r.Intn(4)
		boxes := make([]Box, parts)
		data := make([][]float64, parts)
		for p := range boxes {
			boxes[p] = PartitionAlong(global.Shape(), axis, parts, p)
			blk, err := global.CopyBox(boxes[p])
			if err != nil {
				return false
			}
			data[p] = blk.Data()
		}
		box := Box{Offsets: make([]int, n), Counts: make([]int, n)}
		for i, d := range dims {
			box.Offsets[i] = r.Intn(d.Size)
			box.Counts[i] = 1 + r.Intn(d.Size-box.Offsets[i])
		}
		got, err := Assemble(dims, box, boxes, func(i int) ([]float64, error) { return data[i], nil })
		if err != nil {
			return false
		}
		want, err := global.CopyBox(box)
		return err == nil && got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
