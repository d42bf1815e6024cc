package sb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/ndarray"
)

func TestChooseAxisFirstFree(t *testing.T) {
	cases := []struct {
		shape    []int
		reserved []int
		want     int
		wantErr  bool
	}{
		{[]int{4, 5}, nil, 0, false},
		{[]int{4, 5}, []int{0}, 1, false},
		{[]int{4, 5, 6}, []int{0, 1}, 2, false},
		{[]int{4}, []int{0}, 0, true},
		{nil, nil, 0, true},
	}
	for _, c := range cases {
		got, err := ChooseAxis(PartitionFirstFree, c.shape, c.reserved...)
		if (err != nil) != c.wantErr {
			t.Errorf("ChooseAxis(first, %v, %v) err = %v", c.shape, c.reserved, err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ChooseAxis(first, %v, %v) = %d, want %d", c.shape, c.reserved, got, c.want)
		}
	}
}

func TestChooseAxisLongestFree(t *testing.T) {
	got, err := ChooseAxis(PartitionLongestFree, []int{4, 100, 6}, nil...)
	if err != nil || got != 1 {
		t.Fatalf("got %d, %v", got, err)
	}
	got, err = ChooseAxis(PartitionLongestFree, []int{4, 100, 6}, 1)
	if err != nil || got != 2 {
		t.Fatalf("with reserved longest: got %d, %v", got, err)
	}
	if _, err := ChooseAxis(PartitionLongestFree, []int{4}, 0); err == nil {
		t.Fatal("fully reserved shape accepted")
	}
}

func TestChooseAxisUnknownPolicy(t *testing.T) {
	if _, err := ChooseAxis(PartitionPolicy(99), []int{4}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics("select")
	if m.Component() != "select" {
		t.Fatal("identity lost")
	}
	for rank := 0; rank < 4; rank++ {
		m.RecordStep(0, time.Duration(rank+1)*time.Millisecond, 1000, 500)
	}
	st, ok := m.Step(0)
	if !ok {
		t.Fatal("step 0 missing")
	}
	if st.Samples != 4 || st.BytesIn != 4000 || st.BytesOut != 2000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanDur != 2500*time.Microsecond {
		t.Fatalf("mean = %v", st.MeanDur)
	}
	// Per-proc throughput: 1000 bytes per proc / 2.5ms = 400000 B/s.
	if tp := st.PerProcThroughput(); tp < 399999 || tp > 400001 {
		t.Fatalf("throughput = %v", tp)
	}
	if _, ok := m.Step(1); ok {
		t.Fatal("phantom step")
	}
	m.RecordStep(2, time.Millisecond, 1, 1)
	steps := m.Steps()
	if len(steps) != 2 || steps[0].Step != 0 || steps[1].Step != 2 {
		t.Fatalf("steps = %+v", steps)
	}
	if m.TotalBytesIn() != 4001 || m.TotalBytesOut() != 2001 {
		t.Fatalf("totals = %d/%d", m.TotalBytesIn(), m.TotalBytesOut())
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics("x")
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < 100; s++ {
				m.RecordStep(s, time.Microsecond, 10, 10)
			}
		}()
	}
	wg.Wait()
	if len(m.Steps()) != 100 {
		t.Fatalf("steps = %d", len(m.Steps()))
	}
	st, _ := m.Step(50)
	if st.Samples != 8 || st.BytesIn != 80 {
		t.Fatalf("step 50 = %+v", st)
	}
}

func TestUsageError(t *testing.T) {
	err := &UsageError{Component: "select", Usage: "a b c", Problem: "too few"}
	s := err.Error()
	for _, want := range []string{"select", "too few", "a b c"} {
		if !strings.Contains(s, want) {
			t.Errorf("error %q missing %q", s, want)
		}
	}
}

// doubler is a trivial MapKernel used to exercise RunMap end to end.
type doubler struct{}

func (doubler) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) { return nil, nil }
func (doubler) Transform(in *StepInput) (*StepOutput, error) {
	out := make([]float64, in.Block.Size())
	for i, v := range in.Block.Data() {
		out[i] = 2 * v
	}
	return &StepOutput{GlobalDims: in.Var.Dims, Box: in.Box, Data: out}, nil
}

func TestRunMapEndToEnd(t *testing.T) {
	broker := flexpath.NewBroker()
	transport := Fabric{T: flexpath.InProc{B: broker}}
	const steps, n = 3, 24

	var wg sync.WaitGroup
	errs := make(chan error, 8)

	// Producer: 1 rank publishing 1-D arrays.
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- mpi.Run(1, func(comm *mpi.Comm) error {
			env := &Env{Comm: comm, Transport: transport}
			w, err := env.OpenWriter("in.fp")
			if err != nil {
				return err
			}
			defer w.Close()
			for s := 0; s < steps; s++ {
				arr := ndarray.New(ndarray.Dim{Name: "n", Size: n})
				for i := range arr.Data() {
					arr.Data()[i] = float64(s*100 + i)
				}
				w.BeginStep()
				if err := w.SetAttribute("origin", "producer"); err != nil {
					return err
				}
				if err := w.WriteArray("x", arr); err != nil {
					return err
				}
				if err := w.EndStep(env.Ctx()); err != nil {
					return err
				}
			}
			return nil
		})
	}()

	// Map stage: 3 ranks doubling.
	metrics := NewMetrics("doubler")
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- mpi.Run(3, func(comm *mpi.Comm) error {
			env := &Env{Comm: comm, Transport: transport, Metrics: metrics}
			return RunMap(env, MapConfig{
				Name:     "doubler",
				InStream: "in.fp", InArray: "x",
				OutStream: "out.fp", OutArray: "y",
				ForwardAttrs: true,
			}, doubler{})
		})
	}()

	// Consumer: 2 ranks verifying.
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- mpi.Run(2, func(comm *mpi.Comm) error {
			env := &Env{Comm: comm, Transport: transport}
			r, err := env.OpenReader("out.fp")
			if err != nil {
				return err
			}
			defer r.Close()
			for s := 0; s < steps; s++ {
				info, err := r.BeginStep(env.Ctx())
				if err != nil {
					return fmt.Errorf("consumer step %d: %w", s, err)
				}
				if info.Attrs["origin"] != "producer" {
					return fmt.Errorf("attribute not forwarded: %v", info.Attrs)
				}
				v, ok := info.Var("y")
				if !ok {
					return errors.New("y missing")
				}
				box := ndarray.PartitionAlong(v.Shape(), 0, 2, comm.Rank())
				got, err := r.ReadBox(env.Ctx(), "y", box)
				if err != nil {
					return err
				}
				for i, val := range got.Data() {
					want := 2 * float64(s*100+box.Offsets[0]+i)
					if val != want {
						return fmt.Errorf("step %d elem %d = %v, want %v", s, i, val, want)
					}
				}
				if err := r.EndStep(); err != nil {
					return err
				}
			}
			return nil
		})
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := len(metrics.Steps()); got != steps {
		t.Fatalf("metrics recorded %d steps, want %d", got, steps)
	}
	st, _ := metrics.Step(0)
	if st.Samples != 3 || st.BytesIn != n*8 {
		t.Fatalf("step stats = %+v", st)
	}
}

func TestOpenWriterGroupDepthPrecedence(t *testing.T) {
	// The Env's depth (launch script -q) must override the default the
	// caller supplies (the XML method parameter); the attach with a
	// conflicting depth on the second handle proves which one won.
	broker := flexpath.NewBroker()
	transport := Fabric{T: flexpath.InProc{B: broker}}
	err := mpi.Run(2, func(comm *mpi.Comm) error {
		env := &Env{Comm: comm, Transport: transport, QueueDepth: 7}
		if _, err := env.OpenWriterGroup("prec.fp", nil, 3); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The stream was created with depth 7 (env wins): attaching a reader
	// succeeds, attaching another writer with depth 3 must conflict.
	if _, err := broker.AttachWriter("prec2.fp", 0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := broker.AttachWriter("prec.fp", 0, 2, 3); err == nil {
		t.Fatal("stream accepted conflicting depth; env precedence broken")
	}
}

func TestOpenWriterGroupValidates(t *testing.T) {
	cfg, err := adios.ParseConfig([]byte(`
<adios-config>
  <adios-group name="g">
    <var name="n" type="integer"/>
    <var name="x" type="double" dimensions="n"/>
  </adios-group>
</adios-config>`))
	if err != nil {
		t.Fatal(err)
	}
	broker := flexpath.NewBroker()
	err = mpi.Run(1, func(comm *mpi.Comm) error {
		env := &Env{Comm: comm, Transport: Fabric{T: flexpath.InProc{B: broker}}}
		w, err := env.OpenWriterGroup("val.fp", cfg.Group("g"), 0)
		if err != nil {
			return err
		}
		defer w.Close()
		w.BeginStep()
		bad := ndarray.New(ndarray.Dim{Name: "wrong", Size: 4})
		if err := w.WriteArray("x", bad); err == nil {
			return errors.New("mislabeled write accepted despite group declaration")
		}
		good := ndarray.New(ndarray.Dim{Name: "n", Size: 4})
		return w.WriteArray("x", good)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failingKernel exercises the error path of RunMap.
type failingKernel struct{}

func (failingKernel) ReservedAxes(v *adios.GlobalVar, info *adios.StepInfo) ([]int, error) {
	return nil, nil
}
func (failingKernel) Transform(in *StepInput) (*StepOutput, error) {
	return nil, errors.New("kernel exploded")
}

func TestRunMapKernelErrorPropagates(t *testing.T) {
	broker := flexpath.NewBroker()
	transport := Fabric{T: flexpath.InProc{B: broker}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mpi.Run(1, func(comm *mpi.Comm) error {
			env := &Env{Comm: comm, Transport: transport}
			w, _ := env.OpenWriter("fe.fp")
			defer w.Close()
			w.BeginStep()
			w.WriteArray("x", ndarray.New(ndarray.Dim{Name: "n", Size: 4}))
			return w.EndStep(env.Ctx())
		})
	}()
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		env := &Env{Comm: comm, Transport: transport}
		return RunMap(env, MapConfig{
			Name: "boom", InStream: "fe.fp", InArray: "x",
			OutStream: "feo.fp", OutArray: "y",
		}, failingKernel{})
	})
	if err == nil || !strings.Contains(err.Error(), "kernel exploded") {
		t.Fatalf("err = %v", err)
	}
	wg.Wait()
}

func TestRunMapMissingArray(t *testing.T) {
	broker := flexpath.NewBroker()
	transport := Fabric{T: flexpath.InProc{B: broker}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mpi.Run(1, func(comm *mpi.Comm) error {
			env := &Env{Comm: comm, Transport: transport}
			w, _ := env.OpenWriter("ma.fp")
			defer w.Close()
			w.BeginStep()
			w.WriteArray("other", ndarray.New(ndarray.Dim{Name: "n", Size: 4}))
			return w.EndStep(env.Ctx())
		})
	}()
	err := mpi.Run(1, func(comm *mpi.Comm) error {
		env := &Env{Comm: comm, Transport: transport}
		return RunMap(env, MapConfig{
			Name: "m", InStream: "ma.fp", InArray: "x",
			OutStream: "mao.fp", OutArray: "y",
		}, doubler{})
	})
	if err == nil || !strings.Contains(err.Error(), `no array "x"`) {
		t.Fatalf("err = %v", err)
	}
	wg.Wait()
}
