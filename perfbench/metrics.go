package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/components"
	"repro/internal/pool"
)

// phase aggregates the runs measured under one mode (traced or not).
type phase struct {
	runs int

	// End-to-end samples. Step intervals, latencies and producer
	// publish durations and periods are pooled over runs; the rest are
	// one value per run, reported as the median over runs.
	intervals, latencies []float64 // ms
	publishes, periods   []float64 // ms, producer ranks
	perRun               map[string][]float64

	// Correctness.
	attempted, failed int
	problems          []string
	lastHist          []components.StepHistogram

	// Per-layer accumulators (traced runs) and process-wide counter
	// deltas over the measured runs.
	layer                 map[string]*meanAcc
	steps                 int
	poolGets, poolNews    int64
	allocBytes, gcPauseNs uint64
	brokerBytes           int64
}

type meanAcc struct {
	sum float64
	n   int
}

func (m *meanAcc) mean() float64 {
	if m == nil || m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func (p *phase) add(name string, v float64) {
	m := p.layer[name]
	if m == nil {
		m = &meanAcc{}
		p.layer[name] = m
	}
	m.sum += v
	m.n++
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

const mib = 1 << 20

// counters snapshots the process-wide counters a phase reports deltas of.
type counters struct {
	poolGets, poolNews int64
	mem                runtime.MemStats
}

func readCounters() counters {
	var c counters
	c.poolGets, c.poolNews, _ = pool.StatsSnapshot()
	runtime.ReadMemStats(&c.mem)
	return c
}

func (p *phase) addCounters(before, after counters) {
	p.poolGets += after.poolGets - before.poolGets
	p.poolNews += after.poolNews - before.poolNews
	p.allocBytes += after.mem.TotalAlloc - before.mem.TotalAlloc
	p.gcPauseNs += after.mem.PauseTotalNs - before.mem.PauseTotalNs
}

// addRep folds one run into the phase: its correctness verdict, its
// end-to-end samples and, when traced, its per-layer samples.
func (p *phase) addRep(r *rep) {
	p.runs++
	w := r.w
	p.attempted += w.steps
	if r.err != nil {
		p.failed += w.steps
		p.problem("run failed: " + r.err.Error())
		return
	}
	p.brokerBytes += r.brokerBytes
	p.steps += w.steps

	var src []*writerLog
	for _, wl := range r.fab.writers {
		if wl.stream == streamSrc {
			src = append(src, wl)
		}
	}
	var termR []*readerLog
	for _, rl := range r.fab.readers {
		if rl.stream == streamMag {
			termR = append(termR, rl)
		}
	}

	// Per step: the last producer rank's publish and the last terminal
	// rank's release, and how often each (step, rank) happened.
	pubEnd := make([]int64, w.steps)
	relEnd := make([]int64, w.steps)
	bad := make([]bool, w.steps)
	firstPub := int64(math.MaxInt64)
	var bytes int64
	for _, wl := range src {
		count := make([]int, w.steps)
		for _, pr := range wl.pubs {
			if pr.step < 0 || pr.step >= w.steps {
				continue
			}
			count[pr.step]++
			pubEnd[pr.step] = max(pubEnd[pr.step], pr.end)
			firstPub = min(firstPub, pr.start)
			bytes += int64(pr.meta + pr.payload)
		}
		p.markBad(bad, count, "source publish")
	}
	for _, rl := range termR {
		count := make([]int, w.steps)
		for _, rr := range rl.steps {
			if rr.step < 0 || rr.step >= w.steps {
				continue
			}
			count[rr.step] += rr.releases
			relEnd[rr.step] = max(relEnd[rr.step], rr.relEnd)
		}
		p.markBad(bad, count, "terminal delivery")
	}
	if len(src) == 0 || len(termR) == 0 {
		for s := range bad {
			bad[s] = true
		}
		p.problem("source or terminal stream never attached")
	}

	// Outputs: every step's histogram against the reference.
	got := r.set.hist.Results()
	p.lastHist = got
	byStep := map[int]int{}
	for i, h := range got {
		if _, dup := byStep[h.Step]; dup || h.Step < 0 || h.Step >= w.steps {
			p.problem("duplicate or stray histogram step")
			continue
		}
		byStep[h.Step] = i
	}
	for s := 0; s < w.steps; s++ {
		i, ok := byStep[s]
		if !ok || !sameHistogram(got[i], w.ref[s]) {
			bad[s] = true
			p.problem("histogram mismatch at step " + strconv.Itoa(s))
		}
	}
	if c := r.catchup; c != nil {
		if c.err != nil {
			p.problem("catch-up reader: " + c.err.Error())
		}
		for s := 0; s < w.steps; s++ {
			if c.seen[s] != 1 || c.mismatch[s] {
				bad[s] = true
				p.problem("catch-up step " + strconv.Itoa(s) + " missing, repeated or altered")
			}
		}
	}
	for _, b := range bad {
		if b {
			p.failed++
		}
	}

	// End-to-end samples of this run.
	for _, wl := range src {
		for i, pr := range wl.pubs {
			p.publishes = append(p.publishes, ms(pr.end-pr.start))
			if i > 0 {
				p.periods = append(p.periods, ms(pr.start-wl.pubs[i-1].start))
			}
		}
	}
	last := int64(0)
	for s := 0; s < w.steps; s++ {
		if relEnd[s] > 0 && pubEnd[s] > 0 {
			p.latencies = append(p.latencies, ms(relEnd[s]-pubEnd[s]))
		}
		if s > 0 && relEnd[s] > 0 && relEnd[s-1] > 0 {
			p.intervals = append(p.intervals, ms(relEnd[s]-relEnd[s-1]))
		}
		last = max(last, relEnd[s])
	}
	if last > firstPub {
		p.perRun["throughput_mb_s"] = append(p.perRun["throughput_mb_s"], float64(bytes)/1e6/(float64(last-firstPub)/1e9))
	}
	setupEnd := int64(0)
	for _, a := range r.fab.attaches {
		setupEnd = max(setupEnd, a.end)
	}
	p.perRun["setup_s"] = append(p.perRun["setup_s"], float64(setupEnd-r.start)/1e9)
	p.perRun["peak_heap_mb"] = append(p.perRun["peak_heap_mb"], float64(r.peakHeap)/mib)

	if r.traced {
		p.addLayers(r)
	}
}

// markBad flags every step not seen exactly once.
func (p *phase) markBad(bad []bool, count []int, what string) {
	for s, n := range count {
		if n != 1 {
			bad[s] = true
			p.problem(what + " of step " + strconv.Itoa(s) + " seen " + strconv.Itoa(n) + " times")
		}
	}
}

// problem records a correctness failure; the first few are printed.
func (p *phase) problem(msg string) {
	if len(p.problems) < 8 {
		p.problems = append(p.problems, msg)
	}
}

// addLayers folds one traced run into the per-layer accumulators.
func (p *phase) addLayers(r *rep) {
	w := r.w
	pubDur := map[string]map[[2]int]int64{} // stream -> (step, rank) -> ns
	var metaBytes, payloadBytes int64
	for _, wl := range r.fab.writers {
		m := pubDur[wl.stream]
		if m == nil {
			m = map[[2]int]int64{}
			pubDur[wl.stream] = m
		}
		for i, pr := range wl.pubs {
			m[[2]int{pr.step, wl.rank}] += pr.end - pr.start
			p.add("flexpath.publish_ms."+wl.stream, ms(pr.end-pr.start))
			metaBytes += int64(pr.meta)
			payloadBytes += int64(pr.payload)
			if wl.stream == streamSrc && i > 0 {
				p.add("sim.compute_ms", ms(pr.start-wl.pubs[i-1].end))
			}
		}
	}
	p.add("adios.meta_bytes_per_step", float64(metaBytes)/float64(w.steps))
	p.add("adios.payload_bytes_per_step", float64(payloadBytes)/float64(w.steps))

	var fetched int64
	for _, rl := range r.fab.readers {
		if rl.stream == "catchup" {
			for _, rr := range rl.steps {
				p.add("streamlog.catchup_fetch_ms", ms(rr.fetchNs))
			}
			continue
		}
		for _, rr := range rl.steps {
			p.add("flexpath.meta_wait_ms."+rl.stream, ms(rr.metaEnd-rr.metaStart))
			p.add("flexpath.fetch_ms."+rl.stream, ms(rr.fetchNs))
			p.add("flexpath.release_ms."+rl.stream, ms(rr.relEnd-rr.relStart))
			fetched += rr.fetchBytes
		}
	}
	p.add("flexpath.bytes_fetched_per_step", float64(fetched)/float64(w.steps))
	for _, a := range r.fab.attaches {
		p.add("flexpath.attach_ms", ms(a.ns()))
	}

	// Stage self time: from StepMeta return to ReleaseStep return on the
	// stage's input, minus its fetches and its publish downstream.
	for _, st := range r.set.stages {
		for _, rl := range r.fab.readers {
			if rl.stream != st.in {
				continue
			}
			for _, rr := range rl.steps {
				self := rr.relEnd - rr.metaEnd - rr.fetchNs - pubDur[st.out][[2]int{rr.step, rl.rank}]
				p.add("stage.self_ms."+st.name, ms(self))
			}
		}
		if k := r.set.kernels[st.name]; k != nil && k.calls > 0 {
			p.add("kernel.transform_ms."+st.name, ms(k.ns)/float64(k.calls))
		}
	}
	for name, q := range r.queued {
		p.add("flexpath.queued_steps."+name, q)
	}
	if r.catchup != nil {
		p.add("streamlog.bytes_per_step", float64(r.logBytes)/float64(w.steps))
		p.add("streamlog.segments", float64(r.logSegments))
		p.add("streamlog.flush_ms", ms(r.flushNs))
		if r.catchup.lagN > 0 {
			p.add("streamlog.catchup_lag_steps", r.catchup.lagSum/float64(r.catchup.lagN))
		}
	}
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// interquartileMean is the mean of the samples between the first and
// third quartile, so a few steps stalled by outside load do not move it.
func interquartileMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quantile is the nearest-rank quantile of the samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (p *phase) stepMs() float64 { return interquartileMean(p.intervals) }

// endToEnd returns the end-to-end metrics in the benchmark's order.
// latency_ms_p90 is printed but not gated (see METRICS.md).
func (p *phase) endToEnd() (gated, info []metric) {
	steps := strconv.Itoa(len(p.latencies)) + " steps"
	runs := "median of " + strconv.Itoa(p.runs) + " runs"
	stall := 0.0
	if period := interquartileMean(p.periods); period > 0 {
		stall = 100 * interquartileMean(p.publishes) / period
	}
	gated = []metric{
		{"step_ms", p.stepMs(), "ms", "interquartile mean of " + strconv.Itoa(len(p.intervals)) + " intervals"},
		{"throughput_mb_s", median(p.perRun["throughput_mb_s"]), "MB/s", runs},
		{"latency_ms_p50", quantile(p.latencies, 0.5), "ms", steps},
		{"producer_stall_pct", stall, "%", "interquartile mean publish over producer step period"},
		{"setup_s", median(p.perRun["setup_s"]), "s", runs},
		{"peak_heap_mb", median(p.perRun["peak_heap_mb"]), "MB", runs},
	}
	info = []metric{{"latency_ms_p90", quantile(p.latencies, 0.9), "ms", steps + ", not gated"}}
	return gated, info
}

// perLayer returns the per-layer metrics in the benchmark's order; a
// metric that does not apply to the workload reads 0.
func (p *phase) perLayer(untracedStepMs float64) []metric {
	var out []metric
	get := func(name, unit string) {
		out = append(out, metric{name: name, value: p.layer[name].mean(), unit: unit})
	}
	get("sim.compute_ms", "ms")
	for _, kind := range []string{"publish_ms", "meta_wait_ms", "fetch_ms", "release_ms"} {
		for _, s := range allStreams {
			get("flexpath."+kind+"."+s, "ms")
		}
	}
	for _, s := range allStreams {
		get("flexpath.queued_steps."+s, "steps")
	}
	get("flexpath.attach_ms", "ms")
	get("flexpath.bytes_fetched_per_step", "bytes")
	for _, st := range allStages {
		get("stage.self_ms."+st, "ms")
	}
	for _, st := range mapStages {
		get("kernel.transform_ms."+st, "ms")
	}
	for _, st := range mapStages {
		self, kern := p.layer["stage.self_ms."+st].mean(), p.layer["kernel.transform_ms."+st].mean()
		out = append(out, metric{name: "adios.codec_ms." + st, value: self - kern, unit: "ms"})
	}
	get("adios.meta_bytes_per_step", "bytes")
	get("adios.payload_bytes_per_step", "bytes")
	get("streamlog.bytes_per_step", "bytes")
	get("streamlog.segments", "count")
	get("streamlog.flush_ms", "ms")
	get("streamlog.catchup_fetch_ms", "ms")
	get("streamlog.catchup_lag_steps", "steps")
	reuse := 0.0
	if p.poolGets > 0 {
		reuse = float64(p.poolGets-p.poolNews) / float64(p.poolGets)
	}
	out = append(out,
		metric{name: "pool.reuse_ratio", value: reuse, unit: "ratio"},
		metric{name: "runtime.alloc_mb_per_step", value: float64(p.allocBytes) / mib / float64(max(p.steps, 1)), unit: "MB"},
		metric{name: "runtime.gc_pause_ms", value: float64(p.gcPauseNs) / 1e6 / float64(max(p.steps, 1)), unit: "ms"},
	)
	overhead := 0.0
	if untracedStepMs > 0 {
		overhead = 100 * (p.stepMs() - untracedStepMs) / untracedStepMs
	}
	out = append(out, metric{name: "bench.trace_overhead_pct", value: overhead, unit: "%"})
	return out
}
