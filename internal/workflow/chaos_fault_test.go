package workflow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/components"
	"repro/internal/fault"
	"repro/internal/flexpath"
	"repro/internal/sb"
)

// chaosSpec builds the fixed three-stage pipeline the chaos suite runs:
// producer → scale ×2.5 −1 → stats, with a serial reference closure that
// recomputes the expected per-step statistics from first principles.
func chaosSpec(t *testing.T, prod *chaosProducer) (Spec, *components.Stats, func(step int) components.StepStats) {
	t.Helper()
	statsC, err := components.NewStats([]string{"chaos1.fp", "data"})
	if err != nil {
		t.Fatal(err)
	}
	st := statsC.(*components.Stats)
	spec := Spec{
		Name: "chaos",
		Stages: []Stage{
			{Instance: prod, Procs: 2},
			{Component: "scale", Args: []string{"chaos0.fp", "data", "2.5", "-1", "chaos1.fp", "data"}, Procs: 2},
			{Instance: st, Procs: 1},
		},
	}
	ref := func(step int) components.StepStats {
		g := prod.global(step)
		for i, v := range g.Data() {
			g.Data()[i] = 2.5*v - 1
		}
		want, err := serialStats(g.Data())
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	return spec, st, ref
}

// assertChaosResults checks the distributed run against the serial
// reference, bit-for-bit on min/max/count and to 1e-9 on the moments.
func assertChaosResults(t *testing.T, st *components.Stats, steps int, ref func(int) components.StepStats) {
	t.Helper()
	results := st.Results()
	if len(results) != steps {
		t.Fatalf("stats saw %d steps, want %d (duplicate or lost steps after restart)", len(results), steps)
	}
	for s, got := range results {
		want := ref(s)
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
			math.Abs(got.Mean-want.Mean) > 1e-9 || math.Abs(got.Std-want.Std) > 1e-9 {
			t.Fatalf("step %d diverged after recovery:\n got %+v\nwant %+v", s, got, want)
		}
	}
}

// TestChaosPipelineRecoversToIdenticalResults runs the pipeline under a
// seeded plan mixing latency, plain transient errors, and connection
// resets, with supervision enabled — and demands the exact same results a
// fault-free serial evaluation produces. Exactly-once delivery after
// restarts is the point: a duplicated or skipped step shows up as a
// count/moment mismatch.
func TestChaosPipelineRecoversToIdenticalResults(t *testing.T) {
	prod := &chaosProducer{rows: 24, cols: 3, steps: 6, seed: 20250805}
	spec, st, ref := chaosSpec(t, prod)
	tr := fault.New(transport(), fault.Plan{
		Seed:        11,
		ErrRate:     0.04,
		ResetRate:   0.02,
		LatencyRate: 0.2,
		MaxLatency:  2 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, tr, spec, Options{
		Restart: RestartPolicy{MaxRestarts: 50, Backoff: time.Millisecond, StepTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("chaos run failed despite supervision: %v\n%s", err, Report(res))
	}
	assertChaosResults(t, st, prod.steps, ref)
	total := 0
	for _, sr := range res.Stages {
		total += sr.Restarts
	}
	if total == 0 {
		t.Fatalf("plan injected no recoverable faults — chaos test exercised nothing\n%s", Report(res))
	}
	t.Logf("recovered through %d supervised restarts", total)
}

// TestChaosWriterCrashFailsCleanly schedules a deterministic writer crash
// and demands a clean, prompt, attributed failure: the producer stage
// reports the crash, downstream stages see a failed stream (not a
// truncated EOF), nothing is retried into the dead stream, and no stage
// hangs.
func TestChaosWriterCrashFailsCleanly(t *testing.T) {
	prod := &chaosProducer{rows: 24, cols: 3, steps: 6, seed: 20250805}
	spec, _, _ := chaosSpec(t, prod)
	spec.Stages[0].Procs = 1 // crash point names rank 0; keep the group that size
	tr := fault.New(transport(), fault.Plan{
		Seed:  7,
		Crash: &fault.CrashPoint{Stream: "chaos0.fp", Rank: 0, Step: 2},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, tr, spec, Options{
		Restart: RestartPolicy{MaxRestarts: 3, Backoff: time.Millisecond, StepTimeout: 5 * time.Second},
	})
	if err == nil {
		t.Fatal("workflow survived a scheduled writer crash")
	}
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("root cause is not the crash: %v", err)
	}
	if !errors.Is(res.Stages[0].Err, fault.ErrCrashed) {
		t.Fatalf("producer stage error = %v, want ErrCrashed", res.Stages[0].Err)
	}
	if res.Stages[0].Restarts != 0 {
		t.Fatalf("a crash was retried %d times; crashes are terminal", res.Stages[0].Restarts)
	}
	// Downstream must observe a failed stream or cancellation fallout —
	// never hang, never report clean success.
	for i, sr := range res.Stages[1:] {
		if sr.Err == nil {
			t.Fatalf("downstream stage %d reported success after upstream crash", i+1)
		}
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("crash did not unwind promptly: %s", elapsed)
	}
}

// TestChaosLaunchOrderPermutationsOverTCP permutes the launch order of
// the pipeline over a real TCP broker while injecting connect-time
// failures into every attach. FlexPath's rendezvous already makes launch
// order irrelevant; this demands it stays irrelevant when attaches
// themselves fail transiently and stages recover via supervised restart.
func TestChaosLaunchOrderPermutationsOverTCP(t *testing.T) {
	perms := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	for pi, perm := range perms {
		pi, perm := pi, perm
		t.Run(fmt.Sprintf("perm%d", pi), func(t *testing.T) {
			srv, err := flexpath.NewServer(flexpath.NewBroker(), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			client := flexpath.Dial(srv.Addr())
			defer client.Close()

			prod := &chaosProducer{rows: 12, cols: 2, steps: 3, seed: 777}
			base, st, ref := chaosSpec(t, prod)
			spec := Spec{Name: fmt.Sprintf("perm%d", pi)}
			for _, idx := range perm {
				spec.Stages = append(spec.Stages, base.Stages[idx])
			}

			tr := fault.New(sb.Fabric{T: flexpath.Remote{C: client}}, fault.Plan{
				Seed:    int64(100 + pi),
				ErrRate: 0.4,
				Ops:     map[fault.Op]bool{fault.OpAttachWriter: true, fault.OpAttachReader: true},
			})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := Run(ctx, tr, spec, Options{
				Restart: RestartPolicy{MaxRestarts: 20, Backoff: time.Millisecond, StepTimeout: 5 * time.Second},
			})
			if err != nil {
				t.Fatalf("permutation %v failed: %v\n%s", perm, err, Report(res))
			}
			assertChaosResults(t, st, prod.steps, ref)
		})
	}
}

// TestChaosResumeIsExactlyOnce restarts the stages that carry their
// own step loop instead of RunMap's — fork, step-sample, concat and
// file-writer, and the producers gromacs, lammps and file-reader —
// under seeded fault plans, and demands the outputs of an unfaulted run,
// with the component's metrics keyed to exactly the steps it processed.
// A restarted loop must resume at the reader's step (not count from 0)
// and must not republish a step the resumed writer already has; a
// restarted simulation recomputes its physics from the seed and records
// each (step, rank) once.
func TestChaosResumeIsExactlyOnce(t *testing.T) {
	newStats := func(t *testing.T, stream string) *components.Stats {
		c, err := components.NewStats([]string{stream, "data"})
		if err != nil {
			t.Fatal(err)
		}
		return c.(*components.Stats)
	}
	results := func(ends ...*components.Stats) func() any {
		return func() any {
			out := make([][]components.StepStats, len(ends))
			for i, st := range ends {
				out[i] = st.Results()
			}
			return out
		}
	}
	// persisted is a directory of step files holding the chaos
	// producer's stream, written by an unfaulted file-writer run.
	persisted := func(t *testing.T) string {
		dir := t.TempDir()
		runT(t, Spec{Name: "persist", Stages: []Stage{
			{Instance: &chaosProducer{rows: 12, cols: 2, steps: 8, seed: 4242}, Procs: 2},
			{Component: "file-writer", Args: []string{"chaos0.fp", "data", dir}, Procs: 2},
		}})
		return dir
	}
	publish := func(seed int64) fault.Plan {
		return fault.Plan{Seed: seed, ErrRate: 0.1, Ops: map[fault.Op]bool{fault.OpPublish: true}}
	}
	stepMeta := fault.Plan{Seed: 3, ErrRate: 0.1, Ops: map[fault.Op]bool{fault.OpStepMeta: true}}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	cases := []struct {
		name, comp string
		plan       fault.Plan
		// producer, when set, replaces the two-rank chaos producer that
		// publishes chaos0.fp.
		producer func(t *testing.T) Stage
		// build returns the stages after the producer and a function
		// collecting the outputs compared with the unfaulted run's.
		build func(t *testing.T) ([]Stage, func() any)
		// steps are the steps comp must record metrics for.
		steps []int
		// ranks, when set, is the number of samples each of those steps
		// must hold: a producer records each (step, rank) exactly once.
		ranks int
	}{
		{
			// A failed publish on the second output after the first one
			// published: the resumed first writer already has the step.
			name: "fork", comp: "fork", plan: publish(3),
			build: func(t *testing.T) ([]Stage, func() any) {
				a, b := newStats(t, "fa.fp"), newStats(t, "fb.fp")
				return []Stage{
					{Component: "fork", Args: []string{"chaos0.fp", "data", "fa.fp", "fb.fp"}, Procs: 2},
					{Instance: a, Procs: 1},
					{Instance: b, Procs: 1},
				}, results(a, b)
			},
			steps: all,
		},
		{
			// A failed step wait on an input step that is not a multiple
			// of the stride: the stride must apply to absolute steps.
			name: "step-sample", comp: "step-sample", plan: stepMeta,
			build: func(t *testing.T) ([]Stage, func() any) {
				st := newStats(t, "ss.fp")
				return []Stage{
					{Component: "step-sample", Args: []string{"chaos0.fp", "data", "3", "ss.fp", "data"}, Procs: 2},
					{Instance: st, Procs: 1},
				}, results(st)
			},
			steps: []int{0, 3, 6},
		},
		{
			name: "concat", comp: "concat", plan: stepMeta,
			build: func(t *testing.T) ([]Stage, func() any) {
				st := newStats(t, "cc.fp")
				return []Stage{
					{Component: "fork", Args: []string{"chaos0.fp", "data", "fa.fp", "fb.fp"}, Procs: 1},
					{Component: "concat", Args: []string{"fa.fp", "data", "fb.fp", "data", "0", "cc.fp", "data"}, Procs: 2},
					{Instance: st, Procs: 1},
				}, results(st)
			},
			steps: all,
		},
		{
			// A restarted file-writer must name its files by the stream's
			// step, not restart its numbering at 0.
			name: "file-writer", comp: "file-writer", plan: stepMeta,
			build: func(t *testing.T) ([]Stage, func() any) {
				dir := t.TempDir()
				return []Stage{
					{Component: "file-writer", Args: []string{"chaos0.fp", "data", dir}, Procs: 2},
				}, func() any { return readFiles(t, dir) }
			},
			steps: all,
		},
		{
			name: "gromacs", comp: "gromacs", plan: publish(2),
			producer: func(*testing.T) Stage {
				return Stage{Component: "gromacs", Args: []string{"chaos0.fp", "data", "64", "8", "5"}, Procs: 2}
			},
			build: func(t *testing.T) ([]Stage, func() any) {
				st := newStats(t, "mag.fp")
				return []Stage{
					{Component: "magnitude", Args: []string{"chaos0.fp", "data", "mag.fp", "data"}, Procs: 2},
					{Instance: st, Procs: 1},
				}, results(st)
			},
			steps: all, ranks: 2,
		},
		{
			// The halo exchange couples lammps's ranks, so a restart of
			// one is a restart of both.
			name: "lammps", comp: "lammps", plan: publish(2),
			producer: func(*testing.T) Stage {
				return Stage{Component: "lammps", Args: []string{"chaos0.fp", "data", "60", "8", "5"}, Procs: 2}
			},
			build: func(t *testing.T) ([]Stage, func() any) {
				st := newStats(t, "chaos0.fp")
				return []Stage{{Instance: st, Procs: 1}}, results(st)
			},
			steps: all, ranks: 2,
		},
		{
			name: "file-reader", comp: "file-reader", plan: publish(2),
			producer: func(t *testing.T) Stage {
				return Stage{Component: "file-reader", Args: []string{persisted(t), "chaos0.fp"}, Procs: 2}
			},
			build: func(t *testing.T) ([]Stage, func() any) {
				st := newStats(t, "chaos0.fp")
				return []Stage{{Instance: st, Procs: 1}}, results(st)
			},
			steps: all, ranks: 2,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(tr sb.Transport) (*Result, any) {
				prod := Stage{Instance: &chaosProducer{rows: 12, cols: 2, steps: 8, seed: 4242}, Procs: 2}
				if c.producer != nil {
					prod = c.producer(t)
				}
				stages, collect := c.build(t)
				spec := Spec{Name: c.name, Stages: append([]Stage{prod}, stages...)}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				res, err := Run(ctx, tr, spec, Options{
					Restart: RestartPolicy{MaxRestarts: 50, Backoff: time.Millisecond, StepTimeout: 5 * time.Second},
				})
				if err != nil {
					t.Fatalf("run failed: %v\n%s", err, Report(res))
				}
				return res, collect()
			}
			_, want := run(transport())
			res, got := run(fault.New(transport(), c.plan))
			restarts := 0
			for _, sr := range res.Stages {
				if sr.Component.Name() == c.comp {
					restarts += sr.Restarts
				}
			}
			if restarts == 0 {
				t.Fatalf("plan never restarted %s — the test exercised nothing\n%s", c.comp, Report(res))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("outputs after %d restarts of %s:\n got %+v\nwant %+v", restarts, c.comp, got, want)
			}
			var keys []int
			for _, s := range res.Metrics(c.comp).Steps() {
				keys = append(keys, s.Step)
				if c.ranks > 0 && s.Samples != c.ranks {
					t.Fatalf("%s step %d holds %d metrics samples, want one per rank (%d)", c.comp, s.Step, s.Samples, c.ranks)
				}
			}
			if !reflect.DeepEqual(keys, c.steps) {
				t.Fatalf("%s metrics recorded steps %v, want %v", c.comp, keys, c.steps)
			}
		})
	}
}

// readFiles returns the contents of every file in dir, by name.
func readFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestChaosFusedExchangeRestart restarts a multi-rank fused stage
// mid-stream. The GTCP chain select+dim-reduce+dim-reduce fuses into one
// two-rank stage whose dr1→dr2 handoff is partition-misaligned, so every
// step the ranks exchange blocks. Under reader and publish faults the
// stage restarts at whatever step its reader resumes at, and the
// histogram must equal an unfaulted run's, every step once.
func TestChaosFusedExchangeRestart(t *testing.T) {
	const steps = 4
	spec := func(hist *components.Histogram) Spec {
		return Spec{
			Name: "gtcp-fused-chaos",
			Stages: []Stage{
				{Component: "gtcp", Args: []string{"gtcp.fp", "grid", "8", "32", fmt.Sprint(steps)}, Procs: 2},
				{Component: "select", Args: []string{"gtcp.fp", "grid", "2", "psel.fp", "press", "pressure_perp"}, Procs: 2},
				{Component: "dim-reduce", Args: []string{"psel.fp", "press", "2", "1", "dr1.fp", "press2"}, Procs: 2},
				{Component: "dim-reduce", Args: []string{"dr1.fp", "press2", "0", "1", "flat.fp", "pressures"}, Procs: 2},
				{Instance: hist, Procs: 1},
			},
		}
	}
	want := newHistT(t, "flat.fp", "pressures", "12")
	runT(t, fuseSpecT(t, spec(want)).Spec)

	got := newHistT(t, "flat.fp", "pressures", "12")
	fused := fuseSpecT(t, spec(got))
	if strings.Join(fused.Groups[0].Parts, "+") != "select+dim-reduce+dim-reduce" {
		t.Fatalf("fused groups = %+v", fused.Groups)
	}
	ft := fault.New(transport(), fault.Plan{
		Seed:    20261018,
		ErrRate: 0.15,
		Ops:     map[fault.Op]bool{fault.OpStepMeta: true, fault.OpFetchBlock: true, fault.OpPublish: true},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, ft, fused.Spec, Options{
		Restart: RestartPolicy{MaxRestarts: 100, Backoff: time.Millisecond, StepTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("fused run failed despite supervision: %v\n%s", err, Report(res))
	}
	restarts := 0
	for _, sr := range res.Stages {
		if sr.Component != nil && sr.Component.Name() == "select+dim-reduce+dim-reduce" {
			restarts = sr.Restarts
		}
	}
	if restarts == 0 {
		t.Fatalf("the fused stage never restarted; raise ErrRate or change the seed\n%s", Report(res))
	}
	if a, b := want.Results(), got.Results(); len(a) != steps || !reflect.DeepEqual(a, b) {
		t.Fatalf("faulted fused run diverged:\nunfaulted: %+v\nfaulted:   %+v", a, b)
	}
}
