package ndarray

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomShape draws a shape of 1–4 dimensions with small extents.
func randomShape(r *rand.Rand) []Dim {
	n := 1 + r.Intn(4)
	dims := make([]Dim, n)
	names := []string{"a", "b", "c", "d"}
	for i := range dims {
		dims[i] = Dim{Name: names[i], Size: 1 + r.Intn(6)}
	}
	return dims
}

func randomArray(r *rand.Rand) *Array {
	a := New(randomShape(r)...)
	for i := range a.Data() {
		a.Data()[i] = r.NormFloat64()
	}
	return a
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func sameMultiset(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// Property: a transpose preserves the multiset of values and the total
// size, and transposing back with the inverse permutation restores the
// original array exactly.
func TestQuickTransposeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomArray(r)
		n := a.NDim()
		perm := r.Perm(n)
		b, err := a.Transpose(perm...)
		if err != nil {
			return false
		}
		if !sameMultiset(a.Data(), b.Data()) {
			return false
		}
		inv := make([]int, n)
		for i, p := range perm {
			inv[p] = i
		}
		c, err := b.Transpose(inv...)
		if err != nil {
			return false
		}
		return a.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: dim-reduce preserves the total size and the multiset of
// values, drops exactly one dimension, and the merged extent is the
// product of the two merged extents.
func TestQuickDimReduceInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomArray(r)
		n := a.NDim()
		if n < 2 {
			return true
		}
		remove := r.Intn(n)
		grow := r.Intn(n)
		if grow == remove {
			grow = (grow + 1) % n
		}
		out, err := a.DimReduce(remove, grow)
		if err != nil {
			return false
		}
		if out.NDim() != n-1 || out.Size() != a.Size() {
			return false
		}
		if !sameMultiset(a.Data(), out.Data()) {
			return false
		}
		// The grown dimension keeps its label and multiplies its size.
		gi := out.FindDim(a.Dim(grow).Name)
		if gi < 0 {
			return false
		}
		return out.Dim(gi).Size == a.Dim(grow).Size*a.Dim(remove).Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: dim-reduce addresses elements by the documented formula
// newGrow = oldGrow*removeSize + oldRemove with all other coordinates
// unchanged.
func TestQuickDimReduceAddressing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomArray(r)
		n := a.NDim()
		if n < 2 {
			return true
		}
		remove := r.Intn(n)
		grow := r.Intn(n)
		if grow == remove {
			grow = (grow + 1) % n
		}
		out, err := a.DimReduce(remove, grow)
		if err != nil {
			return false
		}
		// Pick a few random source coordinates and check their destination.
		for trial := 0; trial < 8; trial++ {
			src := make([]int, n)
			for i := 0; i < n; i++ {
				src[i] = r.Intn(a.Dim(i).Size)
			}
			dst := make([]int, 0, n-1)
			for i := 0; i < n; i++ {
				if i == remove {
					continue
				}
				if i == grow {
					dst = append(dst, src[grow]*a.Dim(remove).Size+src[remove])
				} else {
					dst = append(dst, src[i])
				}
			}
			if out.At(dst...) != a.At(src...) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Partition1D tiles [0,total) exactly — chunks are contiguous,
// ordered, non-overlapping, cover everything, and sizes differ by ≤1.
func TestQuickPartition1DTiles(t *testing.T) {
	f := func(totalRaw, npartsRaw uint16) bool {
		total := int(totalRaw % 5000)
		nparts := 1 + int(npartsRaw%64)
		next := 0
		minC, maxC := 1<<30, -1
		for p := 0; p < nparts; p++ {
			off, cnt := Partition1D(total, nparts, p)
			if off != next || cnt < 0 {
				return false
			}
			next = off + cnt
			if cnt < minC {
				minC = cnt
			}
			if cnt > maxC {
				maxC = cnt
			}
		}
		if next != total {
			return false
		}
		return maxC-minC <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: PartitionAlong boxes tile the global shape exactly: every
// element is covered by exactly one part's box.
func TestQuickPartitionAlongTiles(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := randomShape(r)
		shape := make([]int, len(dims))
		for i, d := range dims {
			shape[i] = d.Size
		}
		axis := r.Intn(len(shape))
		nparts := 1 + r.Intn(8)
		cover := New(dims...)
		for p := 0; p < nparts; p++ {
			b := PartitionAlong(shape, axis, nparts, p)
			if err := b.ValidIn(shape); err != nil {
				return false
			}
			marker := New(dimsWithCounts(dims, b.Counts)...).Fill(1)
			tmp, err := cover.CopyBox(b)
			if err != nil {
				return false
			}
			for i, v := range tmp.Data() {
				marker.Data()[i] += v
			}
			if err := cover.PasteBox(b, marker); err != nil {
				return false
			}
		}
		for _, v := range cover.Data() {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func dimsWithCounts(dims []Dim, counts []int) []Dim {
	out := make([]Dim, len(dims))
	for i, d := range dims {
		out[i] = Dim{Name: d.Name, Size: counts[i]}
	}
	return out
}

// Property: CopyBox then PasteBox into a zero array and re-CopyBox yields
// the same sub-array (round trip through both directions of copyRegion).
func TestQuickBoxRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomArray(r)
		shape := a.Shape()
		b := WholeBox(shape)
		for i := range shape {
			if shape[i] == 0 {
				continue
			}
			b.Offsets[i] = r.Intn(shape[i])
			b.Counts[i] = 1 + r.Intn(shape[i]-b.Offsets[i])
		}
		sub, err := a.CopyBox(b)
		if err != nil {
			return false
		}
		dst := New(a.Dims()...)
		if err := dst.PasteBox(b, sub); err != nil {
			return false
		}
		sub2, err := dst.CopyBox(b)
		if err != nil {
			return false
		}
		return sub.Equal(sub2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SelectIndices output at position k equals input at indices[k]
// along the chosen axis, for every other coordinate.
func TestQuickSelectIndices(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomArray(r)
		axis := r.Intn(a.NDim())
		axSize := a.Dim(axis).Size
		k := r.Intn(axSize + 1)
		indices := make([]int, k)
		for i := range indices {
			indices[i] = r.Intn(axSize)
		}
		out, err := a.SelectIndices(axis, indices)
		if err != nil {
			return false
		}
		if out.Dim(axis).Size != k {
			return false
		}
		for trial := 0; trial < 8 && k > 0; trial++ {
			dst := make([]int, a.NDim())
			for i := range dst {
				if i == axis {
					dst[i] = r.Intn(k)
				} else {
					dst[i] = r.Intn(a.Dim(i).Size)
				}
			}
			src := append([]int(nil), dst...)
			src[axis] = indices[dst[axis]]
			if out.At(dst...) != a.At(src...) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
