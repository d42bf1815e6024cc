package sb

import "fmt"

// PartitionPolicy selects which axis of an incoming global array a
// component splits across its ranks. The paper's components partition
// "the generally large dataset … among its constituent processes"
// (§III-B) without prescribing the axis; the policy is an explicit knob
// here because it is one of the design choices the ablation benchmarks
// measure.
type PartitionPolicy int

const (
	// PartitionFirstFree splits along the first axis the kernel has not
	// reserved (the default, matching row-slab decomposition).
	PartitionFirstFree PartitionPolicy = iota
	// PartitionLongestFree splits along the largest unreserved axis,
	// which balances better when the leading dimension is small.
	PartitionLongestFree
)

// ChooseAxis returns the partition axis for a global shape under the
// policy, skipping reserved axes (e.g. Select cannot partition the axis
// it filters). It errors if every axis is reserved.
func ChooseAxis(policy PartitionPolicy, shape []int, reserved ...int) (int, error) {
	isReserved := func(i int) bool {
		for _, r := range reserved {
			if i == r {
				return true
			}
		}
		return false
	}
	switch policy {
	case PartitionFirstFree:
		for i := range shape {
			if !isReserved(i) {
				return i, nil
			}
		}
	case PartitionLongestFree:
		best, bestSize := -1, -1
		for i, s := range shape {
			if !isReserved(i) && s > bestSize {
				best, bestSize = i, s
			}
		}
		if best >= 0 {
			return best, nil
		}
	default:
		return 0, fmt.Errorf("sb: unknown partition policy %d", policy)
	}
	return 0, fmt.Errorf("sb: no partitionable axis in rank-%d array (reserved %v)", len(shape), reserved)
}
