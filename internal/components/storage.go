package components

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/adios"
	"repro/internal/ndarray"
	"repro/internal/sb"
)

const (
	fileWriterUsage = "input-stream-name input-array-name output-dir"
	fileReaderUsage = "input-dir output-stream-name"
)

// The paper's components are "limited to in situ workflows with all
// components running simultaneously. However, introducing new components
// that write and read from storage as part of a workflow can break that
// dependency" (§VI). FileWriter and FileReader are that pair: a stage
// can persist a stream to disk and a later (even separately launched)
// stage can replay it.
//
// On-disk layout: one file per (step, writer rank) named
// step%06d.rank%04d.sb, containing a u32 metadata length, the adios
// metadata blob, and the adios payload blob.

// FileWriter drains a stream to a directory.
type FileWriter struct {
	InStream, InArray string
	Dir               string
}

// NewFileWriter parses: input-stream input-array output-dir.
func NewFileWriter(args []string) (sb.Component, error) {
	if len(args) != 3 {
		return nil, &sb.UsageError{Component: "file-writer", Usage: fileWriterUsage,
			Problem: fmt.Sprintf("need exactly 3 arguments, got %d", len(args))}
	}
	return &FileWriter{InStream: args[0], InArray: args[1], Dir: args[2]}, nil
}

// Name implements sb.Component.
func (f *FileWriter) Name() string { return "file-writer" }

// Run implements sb.Component: each rank persists its own partition of
// every step, preserving the self-describing metadata. Files are named
// by the stream's absolute step, so a restarted rank that resumes
// mid-stream rewrites, at worst, the very files it wrote before.
func (f *FileWriter) Run(env *sb.Env) error {
	if env.Comm.Rank() == 0 {
		if err := os.MkdirAll(f.Dir, 0o755); err != nil {
			return fmt.Errorf("file-writer: %w", err)
		}
	}
	if err := env.Comm.Barrier(); err != nil { // directory exists before any rank writes
		return err
	}
	r, err := env.OpenReader(f.InStream)
	if err != nil {
		return fmt.Errorf("file-writer: attaching reader to %q: %w", f.InStream, err)
	}
	defer r.Close()
	for {
		step := r.NextStep() // absolute: a re-attached reader resumes mid-stream
		info, err := r.BeginStep(env.Ctx())
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("file-writer: step %d: %w", step, err)
		}
		begin := time.Now() // active time: excludes waiting for the producer
		in, err := sb.ReadPartition(env.Ctx(), env, r, info, f.InArray, sb.PartitionFirstFree, nil)
		if err != nil {
			return fmt.Errorf("file-writer: step %d: %w", step, err)
		}
		meta := adios.EncodeMeta(&adios.BlockMeta{
			Step:  step,
			Vars:  []adios.VarMeta{{Name: f.InArray, GlobalDims: in.Var.Dims, Box: in.Box}},
			Attrs: info.Attrs,
		})
		payload := adios.EncodePayload([]string{f.InArray}, [][]float64{in.Block.Data()})
		if err := writeStepFile(stepFilePath(f.Dir, step, env.Comm.Rank()), meta, payload); err != nil {
			return fmt.Errorf("file-writer: step %d: %w", step, err)
		}
		if err := r.EndStep(); err != nil {
			return fmt.Errorf("file-writer: step %d: %w", step, err)
		}
		n := int64(in.Block.Size() * 8)
		env.Metrics.RecordStep(step, time.Since(begin), n, n)
	}
}

// FileReader replays a directory written by FileWriter onto a stream.
type FileReader struct {
	Dir       string
	OutStream string
}

// NewFileReader parses: input-dir output-stream.
func NewFileReader(args []string) (sb.Component, error) {
	if len(args) != 2 {
		return nil, &sb.UsageError{Component: "file-reader", Usage: fileReaderUsage,
			Problem: fmt.Sprintf("need exactly 2 arguments, got %d", len(args))}
	}
	return &FileReader{Dir: args[0], OutStream: args[1]}, nil
}

// Name implements sb.Component.
func (f *FileReader) Name() string { return "file-reader" }

// Run implements sb.Component: every rank reads each step's block
// files, assembles its own partition from the blocks that intersect it,
// and republishes it — so the replaying group's size is independent of
// the persisting group's. A step whose files do not cover a rank's
// partition is an error. A restarted rank starts at the step its
// resumed writer expects next.
func (f *FileReader) Run(env *sb.Env) error {
	steps, err := listStepFiles(f.Dir)
	if err != nil {
		return fmt.Errorf("file-reader: %w", err)
	}
	w, err := env.OpenWriter(f.OutStream)
	if err != nil {
		return fmt.Errorf("file-reader: attaching writer to %q: %w", f.OutStream, err)
	}
	defer w.Close()
	rank, size := env.Comm.Rank(), env.Comm.Size()
	for step := w.Steps(); step < len(steps); step++ {
		begin := time.Now()
		st, err := loadStep(steps[step])
		if err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		shape := st.v.GlobalShape()
		axis, err := sb.ChooseAxis(sb.PartitionFirstFree, shape)
		if err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		box := ndarray.PartitionAlong(shape, axis, size, rank)
		block, err := ndarray.Assemble(st.v.GlobalDims, box, st.boxes, st.values)
		if err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		if _, err := sb.PublishStep(env.Ctx(), w, step, st.v.Name, st.v.GlobalDims, box, block.Data(), st.attrs); err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		n := int64(block.Size() * 8)
		env.Metrics.RecordStep(step, time.Since(begin), n, n)
	}
	return nil
}

func stepFilePath(dir string, step, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("step%06d.rank%04d.sb", step, rank))
}

func writeStepFile(path string, meta, payload []byte) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(meta)))
	for _, chunk := range [][]byte{lenBuf[:], meta, payload} {
		if _, err := file.Write(chunk); err != nil {
			file.Close()
			return err
		}
	}
	return file.Close()
}

func readStepFile(path string) (meta, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("step file %q truncated", path)
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 0 || 4+n > len(data) {
		return nil, nil, fmt.Errorf("step file %q has invalid metadata length %d", path, n)
	}
	return data[4 : 4+n], data[4+n:], nil
}

// listStepFiles groups the directory's block files by step, verifying
// the step sequence is dense from zero.
func listStepFiles(dir string) ([][]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byStep := map[int][]string{}
	for _, e := range entries {
		var step, rank int
		if _, err := fmt.Sscanf(e.Name(), "step%06d.rank%04d.sb", &step, &rank); err != nil {
			continue
		}
		byStep[step] = append(byStep[step], filepath.Join(dir, e.Name()))
	}
	if len(byStep) == 0 {
		return nil, fmt.Errorf("no step files in %q", dir)
	}
	out := make([][]string, len(byStep))
	for step, files := range byStep {
		if step < 0 || step >= len(byStep) {
			return nil, fmt.Errorf("non-contiguous step numbering in %q: found step %d among %d steps",
				dir, step, len(byStep))
		}
		sort.Strings(files)
		out[step] = files
	}
	return out, nil
}

// storedStep is one step's block files, decoded as far as their
// metadata: the variable and attributes of the first file, and each
// file's box and still-encoded payload.
type storedStep struct {
	v        adios.VarMeta
	attrs    map[string]string
	files    []string
	boxes    []ndarray.Box
	payloads [][]byte
}

// loadStep reads one step's block files, checking that they all hold
// the same variable with the same global layout.
func loadStep(files []string) (*storedStep, error) {
	st := &storedStep{files: files}
	for i, path := range files {
		metaBuf, payloadBuf, err := readStepFile(path)
		if err != nil {
			return nil, err
		}
		meta, err := adios.DecodeMeta(metaBuf)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(meta.Vars) != 1 {
			return nil, fmt.Errorf("%s: expected 1 variable, found %d", path, len(meta.Vars))
		}
		vm := meta.Vars[0]
		if i == 0 {
			st.v, st.attrs = vm, meta.Attrs
		} else if vm.Name != st.v.Name || !slices.Equal(vm.GlobalDims, st.v.GlobalDims) {
			return nil, fmt.Errorf("%s: variable %q %v differs from %q %v", path, vm.Name, vm.GlobalDims, st.v.Name, st.v.GlobalDims)
		}
		st.boxes = append(st.boxes, vm.Box)
		st.payloads = append(st.payloads, payloadBuf)
	}
	return st, nil
}

// values decodes block file i's values of the step's variable.
func (st *storedStep) values(i int) ([]float64, error) {
	payload, err := adios.DecodePayload(st.payloads[i])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", st.files[i], err)
	}
	vals, ok := payload[st.v.Name]
	if !ok {
		return nil, fmt.Errorf("%s: payload lacks %q", st.files[i], st.v.Name)
	}
	return vals, nil
}

func init() {
	Register("file-writer", NewFileWriter)
	Register("file-reader", NewFileReader)
}
