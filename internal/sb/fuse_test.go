package sb

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/adios"
	"repro/internal/ndarray"
)

// fuseFake is a minimal Fusable map component for constructor tests.
type fuseFake struct{ cfg MapConfig }

func (f *fuseFake) Name() string { return f.cfg.Name }
func (f *fuseFake) Run(env *Env) error {
	cfg, k := f.MapSpec()
	return RunMap(env, cfg, k)
}
func (f *fuseFake) MapSpec() (MapConfig, MapKernel) { return f.cfg, f }
func (f *fuseFake) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return nil, nil
}
func (f *fuseFake) Transform(in *StepInput) (*StepOutput, error) {
	return &StepOutput{GlobalDims: in.Var.Dims, Box: in.Box, Data: in.Block.Data()}, nil
}

// opaqueComp implements Component but not Fusable.
type opaqueComp struct{}

func (opaqueComp) Name() string       { return "opaque" }
func (opaqueComp) Run(env *Env) error { return nil }

func fakeMap(name, inStream, inArray, outStream, outArray string) *fuseFake {
	return &fuseFake{cfg: MapConfig{
		Name: name, InStream: inStream, InArray: inArray,
		OutStream: outStream, OutArray: outArray,
	}}
}

func TestNewFusedValidation(t *testing.T) {
	a := fakeMap("a", "in.fp", "x", "mid.fp", "y")
	b := fakeMap("b", "mid.fp", "y", "out.fp", "z")
	cases := map[string][]Component{
		"too few":         {a},
		"none":            {},
		"not fusable":     {a, opaqueComp{}},
		"stream mismatch": {a, fakeMap("b", "other.fp", "y", "out.fp", "z")},
		"array mismatch":  {a, fakeMap("b", "mid.fp", "other", "out.fp", "z")},
		"order reversed":  {b, a},
	}
	for name, comps := range cases {
		if _, err := NewFused(comps...); err == nil {
			t.Errorf("NewFused(%s) succeeded", name)
		}
	}
	if _, err := NewFused(a, b); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestFusedIntrospection(t *testing.T) {
	f, err := NewFused(
		fakeMap("a", "in.fp", "x", "mid.fp", "y"),
		fakeMap("b", "mid.fp", "y", "mid2.fp", "z"),
		fakeMap("c", "mid2.fp", "z", "out.fp", "w"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "a+b+c" {
		t.Fatalf("Name = %q", f.Name())
	}
	if got := strings.Join(f.Parts(), ","); got != "a,b,c" {
		t.Fatalf("Parts = %q", got)
	}
	if got := strings.Join(f.InteriorStreams(), ","); got != "mid.fp,mid2.fp" {
		t.Fatalf("InteriorStreams = %q", got)
	}
	ports := f.Ports()
	if len(ports) != 2 {
		t.Fatalf("Ports = %+v", ports)
	}
	in, out := ports[0], ports[1]
	if in.Dir != PortIn || in.Stream != "in.fp" || in.Array != "x" {
		t.Fatalf("in port = %+v", in)
	}
	if out.Dir != PortOut || out.Stream != "out.fp" || out.Array != "w" {
		t.Fatalf("out port = %+v", out)
	}
}

// TestFusedBindMetrics: each part keeps its own Metrics identity so
// comp.<name>.* gauges and report rows survive fusion.
func TestFusedBindMetrics(t *testing.T) {
	f, err := NewFused(
		fakeMap("a", "in.fp", "x", "mid.fp", "y"),
		fakeMap("b", "mid.fp", "y", "out.fp", "z"),
	)
	if err != nil {
		t.Fatal(err)
	}
	ms := f.BindMetrics(nil)
	if len(ms) != 2 {
		t.Fatalf("BindMetrics returned %d metrics", len(ms))
	}
	if ms[0].Component() != "a" || ms[1].Component() != "b" {
		t.Fatalf("metrics components = %q, %q", ms[0].Component(), ms[1].Component())
	}
	// Binding again must return the same instances (one identity per part).
	again := f.BindMetrics(nil)
	if again[0] != ms[0] || again[1] != ms[1] {
		t.Fatal("BindMetrics is not idempotent")
	}
	if sm := f.StageMetrics(); len(sm) != 2 || sm[0] != ms[0] {
		t.Fatal("StageMetrics disagrees with BindMetrics")
	}
}

// TestAssembleBoxZeroCopy: when one gathered block is exactly this
// rank's box, the fused handoff aliases its data — the aligned fused
// edge moves no bytes. Otherwise the box is assembled from the blocks,
// and blocks from another step are an error, never a mix of steps.
func TestAssembleBoxZeroCopy(t *testing.T) {
	dims := []ndarray.Dim{{Name: "x", Size: 8}}
	gathered := func() []handoffBlock {
		return []handoffBlock{
			{step: 3, box: ndarray.Box{Offsets: []int{0}, Counts: []int{4}}, data: []float64{1, 2, 3, 4}},
			{step: 3, box: ndarray.Box{Offsets: []int{4}, Counts: []int{4}}, data: []float64{5, 6, 7, 8}},
		}
	}
	blocks := gathered()
	arr, err := assembleHandoff(dims, ndarray.Box{Offsets: []int{4}, Counts: []int{4}}, blocks, 3)
	if err != nil {
		t.Fatal(err)
	}
	blocks[1].data[0] = 99
	if arr.Data()[0] != 99 {
		t.Fatal("aligned handoff copied instead of aliasing")
	}

	arr, err = assembleHandoff(dims, ndarray.Box{Offsets: []int{2}, Counts: []int{4}}, gathered(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := arr.Data(); !reflect.DeepEqual(got, []float64{3, 4, 5, 6}) {
		t.Fatalf("cross-partition handoff = %v", got)
	}

	blocks = gathered()
	blocks[1].step = 4
	if _, err := assembleHandoff(dims, ndarray.Box{Offsets: []int{0}, Counts: []int{4}}, blocks, 3); err == nil {
		t.Fatal("handoff mixed blocks of steps 3 and 4")
	}
}
