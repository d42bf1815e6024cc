package fault

import (
	"context"
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/flexpath"
	"repro/internal/pool"
	"repro/internal/sb"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func fresh(plan Plan) *Transport {
	return New(sb.Fabric{T: flexpath.InProc{B: flexpath.NewBroker()}}, plan)
}

// errPattern drives a fixed op sequence through a faulty transport and
// returns which ops failed — the fault schedule's fingerprint.
func errPattern(t *testing.T, tr *Transport, n int) []bool {
	t.Helper()
	ctx := ctxT(t)
	w, err := tr.AttachWriter("det.fp", 0, 1, n+1)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer w.Close()
	out := make([]bool, n)
	step := 0
	for i := 0; i < n; i++ {
		err := w.PublishBlock(ctx, step, nil, []byte("x"))
		out[i] = err != nil
		if err == nil {
			step++
		} else if !errors.Is(err, ErrInjected) {
			t.Fatalf("op %d: unexpected non-injected error %v", i, err)
		}
	}
	return out
}

func TestDeterministicSchedule(t *testing.T) {
	plan := Plan{Seed: 42, ErrRate: 0.2, ResetRate: 0.1, Ops: map[Op]bool{OpPublish: true}}
	a := errPattern(t, fresh(plan), 200)
	b := errPattern(t, fresh(plan), 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("degenerate schedule: %d/%d failures", fails, len(a))
	}
	// A different seed must explore a different schedule.
	plan.Seed = 43
	c := errPattern(t, fresh(plan), 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestReattachAdvancesGeneration(t *testing.T) {
	// A restarted handle must not replay the exact schedule that killed
	// its predecessor — each attach generation reseeds.
	plan := Plan{Seed: 7, ErrRate: 0.5, Ops: map[Op]bool{OpPublish: true}}
	tr := fresh(plan)
	ctx := ctxT(t)
	attempt := func() []bool {
		w, err := tr.Inner.(sb.Fabric).T.(flexpath.InProc).B.AttachWriter("gen.fp", 0, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		fw := &faultWriter{t: tr, inner: w, rng: tr.handleRNG("w", "gen.fp", 0), stream: "gen.fp", rank: 0}
		out := make([]bool, 50)
		step := w.NextStep()
		for i := range out {
			err := fw.PublishBlock(ctx, step, nil, nil)
			out[i] = err != nil
			if err == nil {
				step++
			}
		}
		if d, ok := any(w).(interface{ Detach() error }); ok {
			d.Detach()
		}
		return out
	}
	first, second := attempt(), attempt()
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("re-attach replayed the previous generation's schedule")
	}
}

func TestTransientErrorContract(t *testing.T) {
	tr := fresh(Plan{Seed: 1, ErrRate: 1, Ops: map[Op]bool{OpPublish: true}})
	ctx := ctxT(t)
	w, err := tr.AttachWriter("c.fp", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.PublishBlock(ctx, 0, nil, nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	var transient interface{ Transient() bool }
	if !errors.As(err, &transient) || !transient.Transient() {
		t.Fatalf("injected error does not declare itself transient: %v", err)
	}
	if errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("plain transient error should not present as a reset: %v", err)
	}
	// Wrapping through component error chains must preserve the contract.
	wrapped := fmt.Errorf("scale: step 3: %w", err)
	if !errors.As(wrapped, &transient) {
		t.Fatal("Transient lost through wrapping")
	}

	trr := fresh(Plan{Seed: 1, ResetRate: 1, Ops: map[Op]bool{OpPublish: true}})
	w2, err := trr.AttachWriter("c.fp", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = w2.PublishBlock(ctx, 0, nil, nil)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("reset injection = %v, want ErrInjected presenting as ECONNRESET", err)
	}
}

func TestOpsFilter(t *testing.T) {
	// With injection restricted to publishes, attaches must never fail.
	tr := fresh(Plan{Seed: 3, ErrRate: 1, Ops: map[Op]bool{OpPublish: true}})
	for i := 0; i < 20; i++ {
		r, err := tr.AttachReader(fmt.Sprintf("f%d.fp", i), 0, 1)
		if err != nil {
			t.Fatalf("filtered attach failed: %v", err)
		}
		r.Close()
	}
}

func TestCrashPointFailsStream(t *testing.T) {
	broker := flexpath.NewBroker()
	tr := New(sb.Fabric{T: flexpath.InProc{B: broker}}, Plan{
		Seed:  9,
		Crash: &CrashPoint{Stream: "boom.fp", Rank: 0, Step: 2},
	})
	ctx := ctxT(t)
	w, err := tr.AttachWriter("boom.fp", 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if err := w.PublishBlock(ctx, s, nil, []byte{byte(s)}); err != nil {
			t.Fatalf("pre-crash step %d: %v", s, err)
		}
	}
	err = w.PublishBlock(ctx, 2, nil, []byte{2})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash step = %v, want ErrCrashed", err)
	}
	var transient interface{ Transient() bool }
	if errors.As(err, &transient) && transient.Transient() {
		t.Fatal("a crash must not be transient")
	}
	// The broker sees a lost writer, not a graceful close: steps before
	// the crash stay drainable, later waits fail with ErrWriterLost.
	r, err := broker.AttachReader("boom.fp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for s := 0; s < 2; s++ {
		if _, err := r.StepMeta(ctx, s); err != nil {
			t.Fatalf("pre-crash step %d unreadable: %v", s, err)
		}
	}
	if _, err := r.StepMeta(ctx, 2); !errors.Is(err, flexpath.ErrWriterLost) {
		t.Fatalf("post-crash wait = %v, want ErrWriterLost", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	tr := fresh(Plan{Seed: 5, LatencyRate: 1, MaxLatency: 3 * time.Millisecond, Ops: map[Op]bool{OpPublish: true}})
	ctx := ctxT(t)
	w, err := tr.AttachWriter("slow.fp", 0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := time.Now()
	for s := 0; s < 20; s++ {
		if err := w.PublishBlock(ctx, s, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) == 0 {
		t.Fatal("latency injection added no time")
	}
}

// TestPublishBlockRefForwarded: a fault-wrapped writer over a pooling
// transport keeps the zero-copy publish, so a clean publish recycles its
// pooled buffers when the step retires; a publish that an injected error
// or the scheduled crash stops releases both references.
func TestPublishBlockRefForwarded(t *testing.T) {
	ctx := ctxT(t)
	broker := flexpath.NewBroker()
	tr := New(sb.Fabric{T: flexpath.InProc{B: broker}}, Plan{Seed: 1})
	w, err := tr.AttachWriter("ref.fp", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	rw, ok := w.(adios.RefBlockWriter)
	if !ok {
		t.Fatalf("fault-wrapped in-process writer %T lacks PublishBlockRef", w)
	}
	r, err := broker.AttachReader("ref.fp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, _, before := pool.StatsSnapshot()
	if err := rw.PublishBlockRef(ctx, 0, pool.Get(64), pool.Get(64)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepMeta(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.ReleaseStep(0); err != nil {
		t.Fatal(err)
	}
	if _, _, after := pool.StatsSnapshot(); after-before < 2 {
		t.Fatalf("retiring the step recycled %d pooled buffers, want 2", after-before)
	}

	for _, plan := range []Plan{
		{Seed: 1, ErrRate: 1, Ops: map[Op]bool{OpPublish: true}},
		{Seed: 1, Crash: &CrashPoint{Stream: "stop.fp", Rank: 0, Step: 0}},
	} {
		w, err := New(sb.Fabric{T: flexpath.InProc{B: flexpath.NewBroker()}}, plan).AttachWriter("stop.fp", 0, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		freed := 0
		buf := func() *pool.Buf { return pool.WrapOnFree([]byte("x"), func() { freed++ }) }
		err = w.(adios.RefBlockWriter).PublishBlockRef(ctx, 0, buf(), buf())
		if !errors.Is(err, ErrInjected) && !errors.Is(err, ErrCrashed) {
			t.Fatalf("publish under %+v = %v, want an injected failure", plan, err)
		}
		if freed != 2 {
			t.Fatalf("failed publish under %+v freed %d of its 2 buffers", plan, freed)
		}
		w.Close()
	}
}
