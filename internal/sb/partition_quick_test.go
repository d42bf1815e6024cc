package sb

import (
	"testing"
	"testing/quick"

	"repro/internal/ndarray"
)

// The partitioning contract the components lean on: whatever shape,
// rank count, policy and reserved-axis set a kernel throws at it, the
// per-rank bounding boxes must tile the global array exactly — every
// element owned by exactly one rank — and match the sequential
// first-rem-ranks-get-one-extra oracle of Partition1D. testing/quick
// feeds raw bytes which are normalized into small-but-varied configs
// so the exhaustive element walk stays cheap.

// quickPartitionConfig normalizes raw fuzz input into a valid scenario.
type quickPartitionConfig struct {
	shape    []int
	nranks   int
	policy   PartitionPolicy
	reserved []int
}

func normalizePartitionConfig(rawShape []uint8, rawRanks uint8, longest bool, reservedMask uint8) quickPartitionConfig {
	ndim := 1 + int(rawRanks>>4)%4 // 1..4 dims
	shape := make([]int, ndim)
	for i := range shape {
		if i < len(rawShape) {
			shape[i] = int(rawShape[i] % 8) // 0..7: includes empty axes
		} else {
			shape[i] = 1 + i
		}
	}
	cfg := quickPartitionConfig{shape: shape, nranks: 1 + int(rawRanks%8)}
	if longest {
		cfg.policy = PartitionLongestFree
	}
	// Reserve a strict subset of axes so ChooseAxis always has one free.
	for i := 0; i < ndim-1; i++ {
		if reservedMask&(1<<i) != 0 {
			cfg.reserved = append(cfg.reserved, i)
		}
	}
	return cfg
}

func TestPartitionBoxTilesExactlyOnce(t *testing.T) {
	prop := func(rawShape []uint8, rawRanks uint8, longest bool, reservedMask uint8) bool {
		cfg := normalizePartitionConfig(rawShape, rawRanks, longest, reservedMask)
		axis, err := ChooseAxis(cfg.policy, cfg.shape, cfg.reserved...)
		if err != nil {
			t.Logf("ChooseAxis(%v, reserved %v): %v", cfg.shape, cfg.reserved, err)
			return false
		}
		for _, r := range cfg.reserved {
			if axis == r {
				t.Logf("ChooseAxis picked reserved axis %d (shape %v, reserved %v)", axis, cfg.shape, cfg.reserved)
				return false
			}
		}
		if cfg.policy == PartitionLongestFree {
			// Oracle: first unreserved axis of maximal extent.
			want, wantSize := -1, -1
			for i, s := range cfg.shape {
				if !containsAxis(cfg.reserved, i) && s > wantSize {
					want, wantSize = i, s
				}
			}
			if axis != want {
				t.Logf("LongestFree chose axis %d, oracle %d (shape %v, reserved %v)", axis, want, cfg.shape, cfg.reserved)
				return false
			}
		}

		boxes := make([]ndarray.Box, cfg.nranks)
		total := 0
		for rank := range boxes {
			boxes[rank] = ndarray.PartitionAlong(cfg.shape, axis, cfg.nranks, rank)
			if err := boxes[rank].ValidIn(cfg.shape); err != nil {
				t.Logf("rank %d box %v invalid in %v: %v", rank, boxes[rank], cfg.shape, err)
				return false
			}
			total += boxes[rank].Volume()
		}
		if want := ndarray.Volume(cfg.shape); total != want {
			t.Logf("box volumes sum to %d, global volume %d (shape %v axis %d ranks %d)", total, want, cfg.shape, axis, cfg.nranks)
			return false
		}

		// Sequential oracle: the axis is carved into contiguous, ordered
		// runs where the first total%nranks ranks get one extra element.
		base, rem := cfg.shape[axis]/cfg.nranks, cfg.shape[axis]%cfg.nranks
		next := 0
		for rank, b := range boxes {
			wantCount := base
			if rank < rem {
				wantCount++
			}
			if b.Offsets[axis] != next || b.Counts[axis] != wantCount {
				t.Logf("rank %d axis run [%d,%d), oracle [%d,%d)", rank,
					b.Offsets[axis], b.Offsets[axis]+b.Counts[axis], next, next+wantCount)
				return false
			}
			next += wantCount
			// Non-partition axes must span the whole shape.
			for d := range cfg.shape {
				if d != axis && (b.Offsets[d] != 0 || b.Counts[d] != cfg.shape[d]) {
					t.Logf("rank %d does not span axis %d: %v (shape %v)", rank, d, b, cfg.shape)
					return false
				}
			}
		}
		if next != cfg.shape[axis] {
			t.Logf("axis runs end at %d, want %d", next, cfg.shape[axis])
			return false
		}

		// Exhaustive walk: every global index lands in exactly one box.
		// An empty axis means there are no indices to own.
		if ndarray.Volume(cfg.shape) == 0 {
			return true
		}
		idx := make([]int, len(cfg.shape))
		for {
			owners := 0
			for _, b := range boxes {
				if b.Contains(idx) {
					owners++
				}
			}
			if owners != 1 {
				t.Logf("index %v owned by %d ranks (shape %v axis %d ranks %d)", idx, owners, cfg.shape, axis, cfg.nranks)
				return false
			}
			if !nextIndex(idx, cfg.shape) {
				break
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func containsAxis(axes []int, i int) bool {
	for _, a := range axes {
		if a == i {
			return true
		}
	}
	return false
}

// nextIndex advances idx odometer-style within shape; false when the
// walk wraps (or the shape has an empty axis, making the space empty).
func nextIndex(idx, shape []int) bool {
	for _, s := range shape {
		if s == 0 {
			return false
		}
	}
	for d := len(idx) - 1; d >= 0; d-- {
		idx[d]++
		if idx[d] < shape[d] {
			return true
		}
		idx[d] = 0
	}
	return false
}

func TestChooseAxisAllReserved(t *testing.T) {
	if _, err := ChooseAxis(PartitionFirstFree, []int{4, 4}, 0, 1); err == nil {
		t.Fatal("ChooseAxis succeeded with every axis reserved")
	}
	if _, err := ChooseAxis(PartitionPolicy(99), []int{4}); err == nil {
		t.Fatal("ChooseAxis accepted an unknown policy")
	}
}
