package adios

import (
	"context"
	"fmt"

	"repro/internal/ndarray"
)

// GlobalVar is a reader's view of one variable in the current timestep:
// its labeled global dimensions and the per-writer-rank blocks it is
// scattered across.
type GlobalVar struct {
	Name string
	Dims []ndarray.Dim

	// boxes[i] is the block writer rank ranks[i] holds.
	boxes []ndarray.Box
	ranks []int
}

// Shape returns the global extents.
func (v *GlobalVar) Shape() []int {
	out := make([]int, len(v.Dims))
	for i, d := range v.Dims {
		out[i] = d.Size
	}
	return out
}

// FindDim returns the index of the dimension with the given label, or -1.
func (v *GlobalVar) FindDim(name string) int {
	for i, d := range v.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// StepInfo is the self-describing metadata of one timestep as seen by a
// reader rank: the step number, the global variables, and the merged
// attributes. It is what lets a component "discover the dimensions and
// their sizes of the data it receives from its upstream component"
// (§III-B) before reading any bulk data.
type StepInfo struct {
	Step  int
	Vars  []*GlobalVar
	Attrs map[string]string
}

// Var looks up a variable by name.
func (si *StepInfo) Var(name string) (*GlobalVar, bool) {
	for _, v := range si.Vars {
		if v.Name == name {
			return v, true
		}
	}
	return nil, false
}

// ListAttr returns a list-valued attribute (such as the quantity header),
// or nil if absent.
func (si *StepInfo) ListAttr(name string) []string {
	return SplitList(si.Attrs[name])
}

// Reader is one rank's handle for consuming self-describing timesteps.
// The read path mirrors ADIOS:
//
//	info, err := r.BeginStep(ctx)   // blocks; io.EOF when the stream ends
//	v, _ := info.Var("atoms")
//	box := ndarray.PartitionAlong(v.Shape(), 0, size, rank)
//	block, err := r.ReadBox(ctx, "atoms", box)
//	r.EndStep()                      // releases the step
type Reader struct {
	br BlockReader

	step    int
	inStep  bool
	info    *StepInfo
	decoded map[int]map[string][]float64 // writerRank → var → values
	closed  bool
}

// NewReader wraps a transport reader rank.
func NewReader(br BlockReader) *Reader {
	return &Reader{br: br}
}

// NewReaderAt wraps a transport reader rank resuming at the given step —
// the supervised-restart path, where a re-attached transport handle
// reports the group's common resume point (flexpath NextStep) and
// consumption continues from there instead of step 0.
func NewReaderAt(br BlockReader, step int) *Reader {
	r := NewReader(br)
	if step > 0 {
		r.step = step
	}
	return r
}

// NextStep returns the timestep the next BeginStep will open — 0 on a
// fresh stream, or the resume point on a reader re-attached mid-stream.
func (r *Reader) NextStep() int { return r.step }

// BeginStep blocks until the next timestep is available and returns its
// metadata. It returns io.EOF once the stream has ended.
func (r *Reader) BeginStep(ctx context.Context) (*StepInfo, error) {
	if r.closed {
		return nil, fmt.Errorf("adios: BeginStep on closed reader")
	}
	if r.inStep {
		return nil, fmt.Errorf("adios: BeginStep while step %d is open", r.step)
	}
	metas, err := r.br.StepMeta(ctx, r.step)
	if err != nil {
		return nil, err
	}
	info := &StepInfo{Step: r.step, Attrs: map[string]string{}}
	byName := map[string]*GlobalVar{}
	for rank, blob := range metas {
		bm, err := DecodeMeta(blob)
		if err != nil {
			return nil, fmt.Errorf("adios: writer rank %d: %w", rank, err)
		}
		if bm.Step != r.step {
			return nil, fmt.Errorf("adios: writer rank %d metadata is for step %d, want %d", rank, bm.Step, r.step)
		}
		for _, vm := range bm.Vars {
			gv, ok := byName[vm.Name]
			if !ok {
				gv = &GlobalVar{Name: vm.Name, Dims: append([]ndarray.Dim(nil), vm.GlobalDims...)}
				byName[vm.Name] = gv
				info.Vars = append(info.Vars, gv)
			} else if !dimsEqual(gv.Dims, vm.GlobalDims) {
				return nil, fmt.Errorf("adios: variable %q: writer rank %d declares global dims %v, others %v",
					vm.Name, rank, vm.GlobalDims, gv.Dims)
			}
			if err := vm.Box.ValidIn(vm.GlobalShape()); err != nil {
				return nil, fmt.Errorf("adios: variable %q block from rank %d: %w", vm.Name, rank, err)
			}
			gv.boxes = append(gv.boxes, vm.Box)
			gv.ranks = append(gv.ranks, rank)
		}
		// Attributes must agree where they overlap; rank order wins ties
		// deterministically (first writer to declare).
		for k, v := range bm.Attrs {
			if prev, ok := info.Attrs[k]; ok && prev != v {
				return nil, fmt.Errorf("adios: attribute %q disagrees across writer ranks: %q vs %q", k, prev, v)
			} else if !ok {
				info.Attrs[k] = v
			}
		}
	}
	r.inStep = true
	r.info = info
	r.decoded = map[int]map[string][]float64{}
	return info, nil
}

func dimsEqual(a, b []ndarray.Dim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ReadBox assembles the requested bounding box of a variable from every
// writer block that intersects it (the MxN redistribution), fetching
// only those blocks. The returned array is a copy — it never aliases a
// transport frame, so it stays valid past EndStep — whose dimensions
// carry the variable's labels with the box's counts.
func (r *Reader) ReadBox(ctx context.Context, varName string, box ndarray.Box) (*ndarray.Array, error) {
	if !r.inStep {
		return nil, fmt.Errorf("adios: ReadBox outside a step")
	}
	gv, ok := r.info.Var(varName)
	if !ok {
		return nil, fmt.Errorf("adios: step %d has no variable %q", r.info.Step, varName)
	}
	out, err := ndarray.Assemble(gv.Dims, box, gv.boxes, func(i int) ([]float64, error) {
		return r.blockValues(ctx, gv.ranks[i], varName)
	})
	if err != nil {
		return nil, fmt.Errorf("adios: variable %q: %w", varName, err)
	}
	return out, nil
}

// ReadAll reads the entire global array of a variable.
func (r *Reader) ReadAll(ctx context.Context, varName string) (*ndarray.Array, error) {
	if !r.inStep {
		return nil, fmt.Errorf("adios: ReadAll outside a step")
	}
	gv, ok := r.info.Var(varName)
	if !ok {
		return nil, fmt.Errorf("adios: step %d has no variable %q", r.info.Step, varName)
	}
	return r.ReadBox(ctx, varName, ndarray.WholeBox(gv.Shape()))
}

// blockValues fetches and decodes one writer rank's payload, caching the
// decoded form for the remainder of the step so several ReadBox calls
// (or several variables) fetch each block at most once. The decoded
// slices may alias the transport's frame (see DecodePayload), which is
// why EndStep drops this cache before releasing the step.
func (r *Reader) blockValues(ctx context.Context, writerRank int, varName string) ([]float64, error) {
	if r.decoded == nil {
		r.decoded = map[int]map[string][]float64{}
	}
	byVar, ok := r.decoded[writerRank]
	if !ok {
		blob, err := r.br.FetchBlock(ctx, r.info.Step, writerRank)
		if err != nil {
			return nil, err
		}
		byVar, err = DecodePayload(blob)
		if err != nil {
			return nil, fmt.Errorf("adios: payload from writer rank %d: %w", writerRank, err)
		}
		r.decoded[writerRank] = byVar
	}
	vals, ok := byVar[varName]
	if !ok {
		return nil, fmt.Errorf("adios: writer rank %d payload lacks variable %q", writerRank, varName)
	}
	return vals, nil
}

// EndStep releases the current timestep back to the transport, allowing
// the writer-side queue to advance, and arms the reader for the next one.
//
// The decoded-payload cache is dropped BEFORE the release: its value
// slices may alias transport-owned frames (zero-copy decode), and on a
// pooled transport the step's buffers may be recycled the moment this
// rank's release retires the step.
func (r *Reader) EndStep() error {
	if !r.inStep {
		return fmt.Errorf("adios: EndStep without BeginStep")
	}
	r.decoded = nil
	if err := r.br.ReleaseStep(r.step); err != nil {
		return err
	}
	r.inStep = false
	r.info = nil
	r.step++
	return nil
}

// Close ends this rank's participation in the stream. Decoded views are
// dropped first: a closed rank stops gating step retirement, so frames
// it was reading may recycle immediately.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.decoded = nil
	r.info = nil
	return r.br.Close()
}
