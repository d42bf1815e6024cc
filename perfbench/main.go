// Command perfbench is the repository's performance benchmark. It
// drives workflow.Run over one of three in situ workloads for a fixed
// time, checks every output against a reference computed from the
// generated inputs, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a fully timed run) followed by
// one JSON result line.
//
//	go build -o perfbench . && ./perfbench --workload feed-chain --seed 1 --seconds 20 --trace 0
//
// It must run from the repository root: the shm workload keeps its
// socket, segment and log under .bench_build/ there. METRICS.md says
// what each metric measures and which layer change should move it.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/components"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// minRuns is the fewest measured workflow runs per phase, so setup_s
// and peak_heap_mb are medians of several runs however short --seconds.
const minRuns = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-gromacs, feed-chain or feed-shm-durable")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "measuring time")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a fully timed run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	root := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	defer os.RemoveAll(root)

	budget := time.Duration(*seconds * float64(time.Second))
	var e2e, traced *phase
	if *trace == 1 {
		e2e = measure(w, false, budget/2, root)
		traced = measure(w, true, budget/2, root)
	} else {
		e2e = measure(w, false, budget, root)
	}

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d steps_per_run=%d runs=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		w.name, *seed, w.steps, e2e.runs, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	var report, info []metric
	checks := []*phase{e2e}
	if traced == nil {
		report, info = e2e.endToEnd()
	} else {
		report = traced.perLayer(e2e.stepMs())
		checks = append(checks, traced)
	}
	for _, m := range append(report, info...) {
		fmt.Fprintf(stdout, "%-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	attempted, failed := 0, 0
	for _, p := range checks {
		attempted += p.attempted
		failed += p.failed
		for _, msg := range p.problems {
			fmt.Fprintln(stdout, "# FAIL:", msg)
		}
	}
	fmt.Fprintf(stdout, "%-34s %14.6g %-6s %d of %d steps\n", "failed_pct", 100*float64(failed)/float64(max(attempted, 1)), "%", failed, attempted)
	fmt.Fprintf(stdout, "# histogram_sha256=%x\n", digest(e2e.lastHist))

	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, m := range report {
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload repeatedly for the given time, after one
// warm-up run that fills pools and caches; the warm-up's outputs are
// checked but its timings dropped.
func measure(w *workload, traced bool, budget time.Duration, root string) *phase {
	p := newPhase()
	warm := newPhase()
	warm.addRep(runRep(w, traced, repDir(root, 0)))
	deadline := time.Now().Add(budget)
	before := readCounters()
	for i := 1; p.runs < minRuns || time.Now().Before(deadline); i++ {
		p.addRep(runRep(w, traced, repDir(root, i)))
	}
	p.addCounters(before, readCounters())
	p.attempted += warm.attempted
	p.failed += warm.failed
	p.problems = append(warm.problems, p.problems...)
	return p
}

func newPhase() *phase {
	return &phase{perRun: map[string][]float64{}, layer: map[string]*meanAcc{}}
}

// digest hashes histograms in a fixed binary layout, so two workloads
// fed the same inputs can be compared by one printed line.
func digest(hs []components.StepHistogram) []byte {
	h := sha256.New()
	for _, s := range hs {
		b := binary.LittleEndian.AppendUint64(nil, uint64(s.Step))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Min))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Max))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Total))
		for _, c := range s.Counts {
			b = binary.LittleEndian.AppendUint64(b, uint64(c))
		}
		h.Write(b)
	}
	return h.Sum(nil)
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
