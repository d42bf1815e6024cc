package components

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// Run implements sb.Component: every rank loads the union of the per-rank
// block files for each step, assembles the global array, and republishes
// its own partition — so the replaying group's size is independent of the
// persisting group's. A restarted rank starts at the step its resumed
// writer expects next.
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
		global, varName, attrs, err := loadStep(steps[step])
		if err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		axis, err := sb.ChooseAxis(sb.PartitionFirstFree, global.Shape())
		if err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		box := ndarray.PartitionAlong(global.Shape(), axis, size, rank)
		block, err := global.CopyBox(box)
		if err != nil {
			return fmt.Errorf("file-reader: step %d: %w", step, err)
		}
		if _, err := sb.PublishStep(env.Ctx(), w, step, varName, global.Dims(), box, block.Data(), attrs); err != nil {
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

// loadStep assembles one step's global array from its block files.
func loadStep(files []string) (*ndarray.Array, string, map[string]string, error) {
	var global *ndarray.Array
	varName := ""
	var attrs map[string]string
	for _, path := range files {
		metaBuf, payloadBuf, err := readStepFile(path)
		if err != nil {
			return nil, "", nil, err
		}
		meta, err := adios.DecodeMeta(metaBuf)
		if err != nil {
			return nil, "", nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(meta.Vars) != 1 {
			return nil, "", nil, fmt.Errorf("%s: expected 1 variable, found %d", path, len(meta.Vars))
		}
		vm := meta.Vars[0]
		if global == nil {
			global = ndarray.New(vm.GlobalDims...)
			varName = vm.Name
			attrs = meta.Attrs
		} else if vm.Name != varName {
			return nil, "", nil, fmt.Errorf("%s: variable %q differs from %q", path, vm.Name, varName)
		}
		payload, err := adios.DecodePayload(payloadBuf)
		if err != nil {
			return nil, "", nil, fmt.Errorf("%s: %w", path, err)
		}
		vals, ok := payload[vm.Name]
		if !ok {
			return nil, "", nil, fmt.Errorf("%s: payload lacks %q", path, vm.Name)
		}
		blockDims := make([]ndarray.Dim, len(vm.GlobalDims))
		for i, d := range vm.GlobalDims {
			blockDims[i] = ndarray.Dim{Name: d.Name, Size: vm.Box.Counts[i]}
		}
		block, err := ndarray.FromData(vals, blockDims...)
		if err != nil {
			return nil, "", nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := global.PasteBox(vm.Box, block); err != nil {
			return nil, "", nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return global, varName, attrs, nil
}

func init() {
	Register("file-writer", NewFileWriter)
	Register("file-reader", NewFileReader)
}
