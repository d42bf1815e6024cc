// Package repro's root benchmark suite regenerates the paper's
// evaluation (one benchmark per table and figure, §V) under `go test
// -bench=. -benchmem`. Each benchmark runs the corresponding experiment
// from internal/bench at a reduced default scale and reports the paper's
// metric through b.ReportMetric:
//
//	BenchmarkTable1GTCPWeakScaling    — end-to-end KB/s per process per run
//	BenchmarkFig9PerComponentThroughput — per-component KB/s per process
//	BenchmarkTable2AIOComparison      — completion seconds for AIO / SmartBlock / sim-only
//	BenchmarkFig10MagnitudeStrongScaling — timestep seconds vs MB per process
//	BenchmarkAblation*                — the DESIGN.md §5 design-choice ablations
//
// The SBBENCH_SIZE environment variable scales the workloads (default
// 0.25; the sbbench binary defaults to 1.0 for report-quality numbers).
package repro

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/bench"
)

func sizeFactor() float64 {
	if s := os.Getenv("SBBENCH_SIZE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.25
}

func BenchmarkTable1GTCPWeakScaling(b *testing.B) {
	scales := bench.DefaultGTCPScales(sizeFactor())
	for _, scale := range scales {
		b.Run(fmt.Sprintf("%s/procs=%d", scale.Name, scale.TotalProcs()), func(b *testing.B) {
			b.ReportAllocs()
			var last bench.GTCPWeakResult
			for i := 0; i < b.N; i++ {
				results, err := bench.RunGTCPWeak(context.Background(), []bench.GTCPScale{scale})
				if err != nil {
					b.Fatal(err)
				}
				last = results[0]
			}
			b.ReportMetric(bench.KBps(last.EndToEndThroughput()), "KB/s/proc")
			b.ReportMetric(float64(scale.OutputBytes())/bench.MB, "MB-output")
		})
	}
}

func BenchmarkFig9PerComponentThroughput(b *testing.B) {
	scales := bench.DefaultGTCPScales(sizeFactor())
	for _, scale := range scales {
		b.Run(scale.Name, func(b *testing.B) {
			b.ReportAllocs()
			var rows []bench.Fig9Row
			for i := 0; i < b.N; i++ {
				results, err := bench.RunGTCPWeak(context.Background(), []bench.GTCPScale{scale})
				if err != nil {
					b.Fatal(err)
				}
				rows = bench.Fig9Rows(results)
			}
			b.ReportMetric(bench.KBps(rows[0].Select), "select-KB/s/proc")
			b.ReportMetric(bench.KBps(rows[0].DimRed1), "dimred1-KB/s/proc")
			b.ReportMetric(bench.KBps(rows[0].DimRed2), "dimred2-KB/s/proc")
		})
	}
}

func BenchmarkTable2AIOComparison(b *testing.B) {
	scales := bench.DefaultAIOScales(sizeFactor())
	for _, scale := range scales {
		b.Run(fmt.Sprintf("%s/MB=%s", scale.Name, bench.Sizef(scale.OutputBytes())), func(b *testing.B) {
			b.ReportAllocs()
			var row bench.AIOComparisonRow
			for i := 0; i < b.N; i++ {
				rows, err := bench.RunAIOComparison(context.Background(), []bench.AIOScale{scale})
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(row.AIO.Seconds(), "aio-s")
			b.ReportMetric(row.SB.Seconds(), "smartblock-s")
			b.ReportMetric(row.Fused.Seconds(), "fused-s")
			b.ReportMetric(row.SimOnly.Seconds(), "simonly-s")
			b.ReportMetric(row.OverheadPct(), "overhead-%")
			b.ReportMetric(row.FusedOverheadPct(), "fused-overhead-%")
		})
	}
}

// BenchmarkTable2Componentized and BenchmarkTable2Fused run the
// identical Fig. 8 pipeline spec with the broker-hopping componentized
// stages and with the plan-fusion pass applied. Their allocs/op and
// time/op are directly comparable: fusion elides the interior stream,
// so the fused run must allocate strictly less and finish faster while
// producing byte-identical histograms (checked every iteration against
// a componentized reference).
func BenchmarkTable2Componentized(b *testing.B) {
	benchmarkPipeline(b, false)
}

func BenchmarkTable2Fused(b *testing.B) {
	benchmarkPipeline(b, true)
}

func benchmarkPipeline(b *testing.B, fuse bool) {
	b.ReportAllocs()
	particles := int(20000 * sizeFactor())
	const steps = 3
	_, ref, err := bench.RunPipelineOnce(context.Background(), particles, steps, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var elapsed float64
	for i := 0; i < b.N; i++ {
		t, hists, err := bench.RunPipelineOnce(context.Background(), particles, steps, fuse)
		if err != nil {
			b.Fatal(err)
		}
		elapsed = t.Seconds()
		if !reflect.DeepEqual(hists, ref) {
			b.Fatalf("pipeline output diverged from componentized reference (fuse=%v)", fuse)
		}
	}
	b.ReportMetric(elapsed, "end2end-s")
}

func BenchmarkFig10MagnitudeStrongScaling(b *testing.B) {
	cfg := bench.DefaultFig10Config(sizeFactor())
	for _, magProcs := range cfg.MagProcsSweep {
		one := cfg
		one.MagProcsSweep = []int{magProcs}
		b.Run(fmt.Sprintf("magProcs=%d", magProcs), func(b *testing.B) {
			b.ReportAllocs()
			var row bench.Fig10Row
			for i := 0; i < b.N; i++ {
				rows, err := bench.RunMagnitudeStrongScaling(context.Background(), one)
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(row.StepTime.Seconds(), "timestep-s")
			b.ReportMetric(row.KernelTime.Seconds(), "kernel-s")
			b.ReportMetric(float64(row.BytesPerProc)/bench.MB, "MB/proc")
		})
	}
}

// BenchmarkFig10TransportComparison reruns the Fig. 10 strong-scaling
// sweep's middle point over the multi-process fabrics. Together with
// BenchmarkFig10MagnitudeStrongScaling (the in-process fabric) it shows
// what each backend costs per timestep: timestep-s is wall time per
// workflow step (the metric that actually includes transport), kernel-s
// is the swept component's in-kernel mean, so their gap is fabric cost.
// shm must beat uds and uds must match or beat TCP loopback, or the
// shared-segment / coalesced publish paths have regressed.
func BenchmarkFig10TransportComparison(b *testing.B) {
	backends := []struct {
		name    string
		factory bench.BackendFactory
	}{
		{"tcp", bench.TCPLoopbackBackend},
		{"uds", bench.UDSBackend},
		{"shm", bench.ShmBackend},
	}
	for _, be := range backends {
		cfg := bench.DefaultFig10Config(sizeFactor())
		cfg.Backend = be.factory
		cfg.MagProcsSweep = []int{4}
		b.Run(fmt.Sprintf("transport=%s/magProcs=4", be.name), func(b *testing.B) {
			b.ReportAllocs()
			var row bench.Fig10Row
			for i := 0; i < b.N; i++ {
				rows, err := bench.RunMagnitudeStrongScaling(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(row.StepTime.Seconds(), "timestep-s")
			b.ReportMetric(row.KernelTime.Seconds(), "kernel-s")
			b.ReportMetric(float64(row.BytesPerProc)/bench.MB, "MB/proc")
		})
	}
}

func BenchmarkAblationQueueDepth(b *testing.B) {
	particles := int(20000 * sizeFactor())
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			var rows []bench.AblationRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = bench.RunQueueDepthAblation(context.Background(), particles, 4, []int{depth})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].Elapsed.Seconds(), "end2end-s")
		})
	}
}

func BenchmarkAblationFusion(b *testing.B) {
	b.ReportAllocs()
	particles := int(20000 * sizeFactor())
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunFusionAblation(context.Background(), particles, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Elapsed.Seconds(), "pipeline-s")
	b.ReportMetric(rows[1].Elapsed.Seconds(), "planfused-s")
	b.ReportMetric(rows[2].Elapsed.Seconds(), "fused-s")
}

func BenchmarkAblationPartitionAxis(b *testing.B) {
	b.ReportAllocs()
	points := int(4096 * sizeFactor())
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunPartitionPolicyAblation(context.Background(), 4, points, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Elapsed.Seconds(), "first-axis-s")
	b.ReportMetric(rows[1].Elapsed.Seconds(), "longest-axis-s")
}

func BenchmarkAblationTransport(b *testing.B) {
	b.ReportAllocs()
	atoms := int(50000 * sizeFactor())
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunTransportAblation(context.Background(), atoms, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Elapsed.Seconds(), "inproc-s")
	b.ReportMetric(rows[1].Elapsed.Seconds(), "tcp-s")
	b.ReportMetric(rows[2].Elapsed.Seconds(), "uds-s")
	b.ReportMetric(rows[3].Elapsed.Seconds(), "shm-s")
}
