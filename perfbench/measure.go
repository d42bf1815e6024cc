package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/adios"
	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/workflow"
)

var bgCtx = context.Background()

// repTimeout bounds one workflow run, so a wedged run fails the
// benchmark well inside its time limit instead of hanging it.
const repTimeout = 60 * time.Second

// rep is one complete workflow run and everything measured about it.
type rep struct {
	w      *workload
	traced bool
	start  int64 // before the fabric was built: the origin of setup_s
	fab    *timedFabric
	set    *stageSet
	err    error

	peakHeap uint64
	queued   map[string]float64 // mean sampled backlog per stream (traced)

	brokerBytes int64 // Broker.Stats().BytesPublished after the run
	flushNs     int64 // Broker.FlushLog after the run (shm workload)
	logBytes    int64
	logSegments int
	catchup     *catchupResult
}

// runRep builds a fresh fabric, runs the workload's workflow over it
// and collects the samples. dir holds the shm workload's socket,
// segment and log, removed afterwards.
func runRep(w *workload, traced bool, dir string) *rep {
	r := &rep{w: w, traced: traced, set: w.build(traced)}
	r.start = now()
	fab, err := w.openFabric(dir)
	if err != nil {
		r.err = fmt.Errorf("opening fabric: %w", err)
		return r
	}
	defer fab.cleanup()
	if traced {
		r.fab = newTimedFabric(fab.t, false)
	} else {
		// End-to-end runs time only the producer's and the terminal stream.
		r.fab = newTimedFabric(fab.t, true, streamSrc, streamMag)
	}
	ctx, cancel := context.WithTimeout(bgCtx, repTimeout)
	defer cancel()

	smp := startSampler(fab.broker, traced)
	var catchWG sync.WaitGroup
	if fab.replay != nil {
		r.catchup = &catchupResult{}
		catchWG.Add(1)
		go func() {
			defer catchWG.Done()
			r.catchup.run(ctx, r, fab)
		}()
	}
	_, err = workflow.Run(ctx, r.fab, r.set.spec, workflow.Options{})
	if err != nil {
		cancel() // a failed run never ends the source stream
	}
	catchWG.Wait()
	r.peakHeap, r.queued = smp.finish()
	if err != nil {
		r.err = err
		return r
	}
	r.brokerBytes = fab.broker.Stats().BytesPublished
	if fab.store != nil {
		start := now()
		if err := fab.broker.FlushLog(ctx); err != nil {
			r.err = fmt.Errorf("flushing log: %w", err)
			return r
		}
		r.flushNs = now() - start
		r.logBytes, r.logSegments = fab.store.Bytes(), fab.store.Segments()
	}
	return r
}

// sampler polls, every samplePeriod, the heap size (runtime/metrics,
// no stop-the-world) and, in a traced run, each stream's broker backlog.
type sampler struct {
	broker *flexpath.Broker
	queues bool
	stop   chan struct{}
	done   chan struct{}

	peak  uint64
	qsum  map[string]float64
	polls int
}

const samplePeriod = 10 * time.Millisecond

func startSampler(b *flexpath.Broker, queues bool) *sampler {
	s := &sampler{broker: b, queues: queues, stop: make(chan struct{}), done: make(chan struct{}), qsum: map[string]float64{}}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		metrics.Read(heap)
		if v := heap[0].Value.Uint64(); v > s.peak {
			s.peak = v
		}
		if s.queues {
			for _, st := range s.broker.StreamStats() {
				s.qsum[st.Name] += float64(st.QueuedSteps)
			}
			s.polls++
		}
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampler and returns the peak heap and the mean
// backlog per stream.
func (s *sampler) finish() (uint64, map[string]float64) {
	close(s.stop)
	<-s.done
	mean := map[string]float64{}
	for name, sum := range s.qsum {
		mean[name] = sum / float64(s.polls)
	}
	return s.peak, mean
}

// catchupResult is what the shm workload's catch-up reader saw.
type catchupResult struct {
	seen     []int // deliveries per step
	mismatch []bool
	lagSum   float64
	lagN     int
	err      error
}

// run waits until a quarter of the source stream is published, then
// replays it from step 0 while the workflow is live, checking each
// step's values against the generated input bitwise.
func (c *catchupResult) run(ctx context.Context, r *rep, fab *fabric) {
	w := r.w
	c.seen = make([]int, w.steps)
	c.mismatch = make([]bool, w.steps)
	for published(fab.broker) < w.steps/4 {
		select {
		case <-ctx.Done():
			c.err = ctx.Err()
			return
		case <-time.After(200 * time.Microsecond):
		}
	}
	h, err := fab.replay.OpenReaderFrom(streamSrc, 0)
	if err != nil {
		c.err = err
		return
	}
	rd := adios.NewReader(r.fab.wrapReader("catchup", 0, h))
	defer rd.Close()
	for {
		info, err := rd.BeginStep(ctx)
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			c.err = err
			return
		}
		c.lagSum += float64(published(fab.broker) - info.Step)
		c.lagN++
		arr, err := rd.ReadAll(ctx, "atoms")
		if err != nil {
			c.err = err
			return
		}
		if s := info.Step; s >= 0 && s < w.steps {
			c.seen[s]++
			c.mismatch[s] = !sameBits(arr.Data(), w.inputs[s])
		}
		if err := rd.EndStep(); err != nil {
			c.err = err
			return
		}
	}
}

// published returns how many steps the source stream has completed.
func published(b *flexpath.Broker) int {
	for _, st := range b.StreamStats() {
		if st.Name == streamSrc {
			return st.StepsPublished
		}
	}
	return 0
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameHistogram(a, b components.StepHistogram) bool {
	if a.Step != b.Step || a.Total != b.Total || len(a.Counts) != len(b.Counts) ||
		math.Float64bits(a.Min) != math.Float64bits(b.Min) || math.Float64bits(a.Max) != math.Float64bits(b.Max) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

// repDir names one run's directory for the shm workload's files.
func repDir(root string, i int) string { return filepath.Join(root, fmt.Sprintf("r%d", i)) }
