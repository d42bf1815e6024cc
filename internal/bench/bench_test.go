package bench

import (
	"context"
	"strings"
	"testing"
	"time"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// tinyGTCPScales shrinks the Table I sweep for unit testing.
func tinyGTCPScales() []GTCPScale {
	scales := DefaultGTCPScales(0.02) // ~40 gridpoints per slice ring
	return scales[:3]
}

func TestRunGTCPWeakProducesRows(t *testing.T) {
	results, err := RunGTCPWeak(ctxT(t), tinyGTCPScales())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Elapsed <= 0 {
			t.Fatalf("run %d has no elapsed time", i)
		}
		if r.EndToEndThroughput() <= 0 {
			t.Fatalf("run %d has no throughput", i)
		}
		if i > 0 && r.Scale.OutputBytes() <= results[i-1].Scale.OutputBytes() {
			t.Fatalf("weak scaling sweep is not growing: run %d", i)
		}
	}
	out := FormatTable1(results)
	for _, want := range []string{"Table I", "GTCP Output (MB)", "Throughput (KB/s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
	fig9 := Fig9Rows(results)
	if len(fig9) != 3 {
		t.Fatalf("fig9 rows = %d", len(fig9))
	}
	for _, row := range fig9 {
		if row.Select <= 0 || row.DimRed1 <= 0 || row.DimRed2 <= 0 {
			t.Fatalf("fig9 row %d has zero throughput: %+v", row.Run, row)
		}
	}
	fout := FormatFig9(fig9)
	if !strings.Contains(fout, "Dim-Reduce 2") {
		t.Errorf("Fig9 output malformed:\n%s", fout)
	}
}

func TestGTCPScaleAccounting(t *testing.T) {
	s := GTCPScale{GTCPProcs: 4, SelectProcs: 2, DimRed1Procs: 1, DimRed2Procs: 1, HistProcs: 1,
		Slices: 8, Points: 100, Steps: 3}
	if s.TotalProcs() != 9 {
		t.Fatalf("TotalProcs = %d", s.TotalProcs())
	}
	if s.OutputBytes() != int64(8*100*7*8*3) {
		t.Fatalf("OutputBytes = %d", s.OutputBytes())
	}
}

func TestRunAIOComparisonShape(t *testing.T) {
	scales := DefaultAIOScales(0.05)[:2] // ~400 particles/proc, 2 scales
	rows, err := RunAIOComparison(ctxT(t), scales)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.AIO <= 0 || r.SB <= 0 || r.SimOnly <= 0 {
			t.Fatalf("row %d has zero times: %+v", i, r)
		}
		// The two configurations compute the same analysis: their
		// histograms must agree exactly (same sim seed, same binning).
		if len(r.AIOHist) != len(r.SBHist) || len(r.AIOHist) != r.Scale.Steps {
			t.Fatalf("row %d histograms: %d vs %d", i, len(r.AIOHist), len(r.SBHist))
		}
		for s := range r.AIOHist {
			a, b := r.AIOHist[s], r.SBHist[s]
			if a.Total != b.Total || a.Min != b.Min || a.Max != b.Max {
				t.Fatalf("row %d step %d: AIO %+v vs SB %+v", i, s, a, b)
			}
			for bin := range a.Counts {
				if a.Counts[bin] != b.Counts[bin] {
					t.Fatalf("row %d step %d counts differ: %v vs %v", i, s, a.Counts, b.Counts)
				}
			}
		}
	}
	out := FormatTable2(rows)
	for _, want := range []string{"Table II", "AIO time", "LMP only"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMagnitudeStrongScalingShape(t *testing.T) {
	cfg := DefaultFig10Config(0.02)
	cfg.MagProcsSweep = []int{1, 2, 4}
	rows, err := RunMagnitudeStrongScaling(ctxT(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.StepTime <= 0 {
			t.Fatalf("row %d has no step time", i)
		}
		// The timestep is wall time per step; the swept component's kernel
		// runs once per step within it, so its mean can never exceed it.
		if r.KernelTime <= 0 || r.KernelTime > r.StepTime {
			t.Fatalf("row %d kernel %s outside (0, step %s]", i, r.KernelTime, r.StepTime)
		}
		if i > 0 && r.BytesPerProc >= rows[i-1].BytesPerProc {
			t.Fatalf("per-proc size not shrinking across the sweep")
		}
	}
	out := FormatFig10("Fig. 10", rows)
	if !strings.Contains(out, "Size per proc (MB)") {
		t.Errorf("Fig10 output malformed:\n%s", out)
	}
}

func TestRunSelectStrongScalingShape(t *testing.T) {
	cfg := DefaultFig10Config(0.02)
	cfg.MagProcsSweep = []int{1, 2}
	rows, err := RunSelectStrongScaling(ctxT(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.StepTime <= 0 || r.BytesPerProc <= 0 {
			t.Fatalf("row %d = %+v", i, r)
		}
	}
}

func TestQueueDepthAblation(t *testing.T) {
	rows, err := RunQueueDepthAblation(ctxT(t), 2000, 3, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Elapsed <= 0 || rows[1].Elapsed <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
	out := FormatAblation("Ablation: queue depth", rows)
	if !strings.Contains(out, "queue depth 1") {
		t.Errorf("output malformed:\n%s", out)
	}
}

func TestFusionAblation(t *testing.T) {
	rows, err := RunFusionAblation(ctxT(t), 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestPartitionPolicyAblation(t *testing.T) {
	rows, err := RunPartitionPolicyAblation(ctxT(t), 4, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestTransportAblation(t *testing.T) {
	rows, err := RunTransportAblation(ctxT(t), 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Elapsed <= 0 {
			t.Fatalf("rows = %+v", rows)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if Sizef(3*MB/2) != "1.5" {
		t.Fatalf("Sizef = %q", Sizef(3*MB/2))
	}
	if KBps(2048) != 2 {
		t.Fatalf("KBps = %v", KBps(2048))
	}
	if Seconds(1500*time.Millisecond) != "1.50" {
		t.Fatalf("Seconds = %q", Seconds(1500*time.Millisecond))
	}
	tb := newTable("A", "BB")
	tb.row("xxx", "y")
	out := tb.String()
	if !strings.Contains(out, "A    BB") && !strings.Contains(out, "A  ") {
		t.Errorf("table output malformed:\n%s", out)
	}
	if !strings.Contains(out, "xxx") {
		t.Errorf("table row missing:\n%s", out)
	}
}
