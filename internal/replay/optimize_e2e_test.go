package replay_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flexpath"
	"repro/internal/replay"
	"repro/internal/replay/replaytest"
	"repro/internal/sb"
	"repro/internal/workflow"
)

// withHistOut returns a copy of the histogram stage writing its
// analytics to outPath.
func withHistOut(st workflow.Stage, outPath string) workflow.Stage {
	st.Args = append(append([]string(nil), st.Args...), outPath)
	return st
}

// runCrackLive runs the crack pipeline live over an in-process broker
// with the histogram writing its analytics to outPath.
func runCrackLive(t *testing.T, spec workflow.Spec, outPath string) {
	t.Helper()
	hist := -1
	for i, st := range spec.Stages {
		if st.Component == "histogram" {
			hist = i
		}
	}
	if hist < 0 {
		t.Fatal("spec has no histogram stage")
	}
	spec.Stages[hist] = withHistOut(spec.Stages[hist], outPath)
	transport := sb.Fabric{T: flexpath.InProc{B: flexpath.NewBroker()}}
	res, err := workflow.Run(replaytest.Ctx(t), transport, spec, workflow.Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("live run failed: %v\n%s", err, workflow.Report(res))
	}
}

func readNonEmpty(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatalf("%s: empty histogram", path)
	}
	return string(b)
}

// TestOptimizeEndToEnd is the record -> re-plan -> re-run loop for a
// rank-count rewrite of the crack pipeline: record the run, replay its
// analysis stages offline with magnitude at each candidate rank count,
// then run the default and the rewritten plan live. Every variant must
// produce the recorded run's histogram byte for byte — magnitude's
// partitioning follows the incoming shape, so its rank count is free to
// change (the property elastic rescaling relies on).
func TestOptimizeEndToEnd(t *testing.T) {
	dir := recordCrack(t)
	stages := crackStages()

	// Offline: magnitude at the recorded 2 ranks and at 1 and 3.
	var want string
	for _, procs := range []int{2, 1, 3} {
		out := filepath.Join(t.TempDir(), "hist.txt")
		mag := stages[1]
		mag.Procs = procs
		res, err := replay.Run(replaytest.Ctx(t), replay.Config{LogDir: dir, Logf: t.Logf},
			withHistOut(stages[0], out), mag)
		if err != nil {
			t.Fatalf("replay with magnitude at %d ranks: %v", procs, err)
		}
		if procs == 2 {
			replaytest.AssertBitIdentical(t, dir, res.Captures["m.fp"], "m.fp")
			want = readNonEmpty(t, out)
			continue
		}
		if got := readNonEmpty(t, out); got != want {
			t.Errorf("replay with magnitude at %d ranks diverged:\n--- 2 ranks ---\n%s--- %d ranks ---\n%s",
				procs, want, procs, got)
		}
	}

	// Live: the default plan and the rewritten one (magnitude at 3 ranks,
	// lammps untouched) against the offline histogram.
	spec := workflow.Spec{Name: "crack-live", Stages: crackStages()}
	rewritten := workflow.Spec{Name: "crack-live", Stages: crackStages()}
	rewritten.Stages[1].Procs = 3
	if _, err := workflow.BuildPlan(rewritten); err != nil {
		t.Fatal(err)
	}
	outDefault := filepath.Join(t.TempDir(), "hist_default.txt")
	outRewritten := filepath.Join(t.TempDir(), "hist_rewritten.txt")
	runCrackLive(t, spec, outDefault)
	runCrackLive(t, rewritten, outRewritten)
	if got := readNonEmpty(t, outDefault); got != want {
		t.Errorf("live default run differs from replay:\n--- replay ---\n%s--- live ---\n%s", want, got)
	}
	if got := readNonEmpty(t, outRewritten); got != want {
		t.Errorf("live rewritten run differs from replay:\n--- replay ---\n%s--- rewritten ---\n%s", want, got)
	}
}
