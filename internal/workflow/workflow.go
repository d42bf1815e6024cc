// Package workflow assembles and launches SmartBlock workflows: a set of
// components (simulation drivers included) that are "launched
// simultaneously using a script" (§V-A) and wired together purely by
// stream and array names. Each stage runs as its own MPI world — the
// paper's one-executable-per-component model — over a shared stream
// transport, and FlexPath's blocking rendezvous makes the launch order
// irrelevant.
package workflow

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/components"
	"repro/internal/flexpath"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sb"
)

// Stage is one aprun line of a workflow: a component kind, its run-time
// arguments, and the number of processes to allocate to it.
type Stage struct {
	// Component is the registered component name ("select", "histogram",
	// "lammps", …). Ignored if Instance is set.
	Component string
	// Args are the component's positional run-time arguments.
	Args []string
	// Procs is the number of ranks in the component's communicator.
	Procs int
	// QueueDepth overrides the writer-side stream buffering for streams
	// this stage publishes (0 = transport default).
	QueueDepth int
	// Instance, when non-nil, is a pre-built component to run instead of
	// instantiating Component/Args from the registry — used by callers
	// that need a handle on the component afterwards (e.g. to collect
	// Histogram results).
	Instance sb.Component
}

// TransportSpec selects the stream-fabric backend a workflow runs
// over: one of the flexpath.Kind* constants plus the backend address
// (host:port for tcp, socket path for uds, ignored for inproc). The
// zero value means inproc. Launch scripts set it with a `transport`
// directive; sbrun's -transport flag overrides it.
type TransportSpec struct {
	Kind string
	Addr string
}

// Validate checks the spec names a known backend with the address it
// requires.
func (ts TransportSpec) Validate() error {
	switch ts.Kind {
	case "", flexpath.KindInproc, flexpath.KindAuto:
		// auto without an address legitimately resolves to inproc, so no
		// address requirement here.
		return nil
	case flexpath.KindTCP, flexpath.KindUDS, flexpath.KindShm:
		if ts.Addr == "" {
			return fmt.Errorf("transport %q requires an address", ts.Kind)
		}
		return nil
	default:
		return fmt.Errorf("unknown transport kind %q (want %s, %s, %s, %s, or %s)",
			ts.Kind, flexpath.KindInproc, flexpath.KindTCP, flexpath.KindUDS,
			flexpath.KindShm, flexpath.KindAuto)
	}
}

// Resolve maps the spec to the concrete backend the runner opens: the
// zero kind is inproc, and auto picks by the address shape
// (flexpath.ResolveAuto) — no broker address means every stage is
// co-process, so inproc; a filesystem path names a same-node broker,
// where the shared-memory ring wins; a host:port may cross nodes, so
// tcp. Deterministic: the same spec always resolves the same way.
func (ts TransportSpec) Resolve() TransportSpec {
	switch ts.Kind {
	case "":
		return TransportSpec{Kind: flexpath.KindInproc, Addr: ts.Addr}
	case flexpath.KindAuto:
		return TransportSpec{Kind: flexpath.ResolveAuto(ts.Addr), Addr: ts.Addr}
	default:
		return ts
	}
}

// Spec is a complete workflow: a name, its stages, and the stream
// fabric they meet on.
type Spec struct {
	Name   string
	Stages []Stage
	// Transport is the backend the workflow's streams live on. Zero
	// value = in-process broker. Components never see this — they attach
	// through whatever sb.Transport the runner builds from it, which is
	// exactly the re-wiring-without-recompilation property the transport
	// contract exists for.
	Transport TransportSpec
	// EdgeTransports overrides the fabric per stream: stream name →
	// transport carrying that edge; streams not listed ride Transport.
	// Launch scripts add entries with `transport <kind> [addr]
	// stream=<name>` directives, and the runner opens each distinct
	// backend once and routes attachments by stream (flexpath.Router) —
	// components stay oblivious, exactly as with the global spec.
	EdgeTransports map[string]TransportSpec
	// Fuse asks the runner to apply the stage-fusion pass before
	// launching: eligible adjacent stages collapse into single fused
	// stages (see Plan.Fuse). Launch scripts set it with a `fuse`
	// directive; sbrun's -fuse flag forces it on.
	Fuse bool
	// LogDir, when set, mounts a durable stream log rooted at this
	// directory on the workflow's broker: every fully published step is
	// journaled before it may retire, the broker can rebuild stream
	// state from the directory after a crash, and catch-up readers can
	// replay history (flexpath.OpenReaderFrom). Only meaningful for
	// backends whose broker this process owns (inproc; sbbroker has its
	// own -log-dir for the remote backends). Launch scripts set it with
	// a `log <dir>` directive; sbrun's -log-dir flag overrides it.
	LogDir string
	// ReplayDir, when set, names a recorded log directory this workflow
	// can be re-run against offline: sbreplay opens it read-only as the
	// stream source instead of a live fabric and drives any stage (or
	// stage subset) over the recording. Purely declarative for a live
	// run — the runner ignores it. Launch scripts set it with a
	// `replay <dir>` directive; sbreplay's -log-dir flag overrides it.
	ReplayDir string
}

// Validate performs static checks on a spec.
func (s Spec) Validate() error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("workflow %q has no stages", s.Name)
	}
	if err := s.Transport.Validate(); err != nil {
		return fmt.Errorf("workflow %q: %v", s.Name, err)
	}
	streams := make([]string, 0, len(s.EdgeTransports))
	for stream := range s.EdgeTransports {
		streams = append(streams, stream)
	}
	sort.Strings(streams) // deterministic first error
	for _, stream := range streams {
		if err := s.EdgeTransports[stream].Validate(); err != nil {
			return fmt.Errorf("workflow %q stream %q: %v", s.Name, stream, err)
		}
	}
	for i, st := range s.Stages {
		if st.Procs <= 0 {
			return fmt.Errorf("workflow %q stage %d: procs must be positive, got %d", s.Name, i, st.Procs)
		}
		if st.Instance == nil && st.Component == "" {
			return fmt.Errorf("workflow %q stage %d: no component", s.Name, i)
		}
	}
	return nil
}

// StageResult is the outcome of one stage.
type StageResult struct {
	Stage     Stage
	Component sb.Component
	Metrics   *sb.Metrics
	// SubMetrics holds the per-component collectors of a fused stage, in
	// chain order — fusion changes where a component runs, not whether it
	// reports. Nil for ordinary stages (whose collector is Metrics).
	SubMetrics []*sb.Metrics
	// Restarts counts supervised restarts this stage consumed; a stage
	// that succeeded after recovery reports Err == nil, Restarts > 0.
	Restarts int
	// Rescales counts elastic rank-count changes applied to this stage
	// (see RescalePolicy); Stage.Procs reflects the final size.
	Rescales int
	Err      error

	// ctl is the rescale channel when this stage is rescalable under the
	// run's policy; nil otherwise.
	ctl *stageCtl
}

// Result is the outcome of a workflow run.
type Result struct {
	Spec    Spec
	Elapsed time.Duration // start of launch to last stage finished
	Stages  []StageResult
	// Registry is the metrics registry the run was wired to (nil when
	// Options.Registry was nil); Report renders its fabric counters.
	Registry *obs.Registry
}

// Metrics returns the metrics collector of the first stage running the
// named component kind, or nil. Components inside a fused stage are
// found under their own names — callers need not know whether fusion
// happened.
func (r *Result) Metrics(component string) *sb.Metrics {
	for _, st := range r.Stages {
		if st.Metrics.Component() == component {
			return st.Metrics
		}
		for _, m := range st.SubMetrics {
			if m.Component() == component {
				return m
			}
		}
	}
	return nil
}

// Err returns the most informative stage error, or nil. When one stage
// fails, the run context is cancelled and every other stage reports
// cancellation fallout; Err prefers the root cause over that fallout.
func (r *Result) Err() error {
	var fallback error
	for _, st := range r.Stages {
		if st.Err == nil {
			continue
		}
		wrapped := fmt.Errorf("workflow %q stage %q: %w", r.Spec.Name, st.Stage.Component, st.Err)
		if errors.Is(st.Err, context.Canceled) || errors.Is(st.Err, mpi.ErrAborted) {
			if fallback == nil {
				fallback = wrapped
			}
			continue
		}
		return wrapped
	}
	return fallback
}

// TotalProcs sums the process allocation across stages — the divisor of
// the paper's end-to-end per-process throughput (Table I).
func (r *Result) TotalProcs() int {
	n := 0
	for _, st := range r.Stages {
		n += st.Stage.Procs
	}
	return n
}

// RestartPolicy governs how the per-stage supervisor reacts to failures.
// The zero value disables both restarts and step deadlines — the
// unsupervised behavior.
type RestartPolicy struct {
	// MaxRestarts bounds supervised restarts per stage. A stage whose
	// component fails with a retryable error (see Retryable) is detached
	// from its streams and re-launched, re-attaching at the current step;
	// once the budget is exhausted the failure is terminal.
	MaxRestarts int
	// Backoff is the delay before the first restart; it doubles per
	// consecutive restart of the stage, capped at 2s. Zero selects 50ms.
	Backoff time.Duration
	// StepTimeout, when positive, bounds every blocking stream operation
	// of the stage's components, so a stalled peer surfaces as a
	// retryable context.DeadlineExceeded instead of an eternal hang.
	StepTimeout time.Duration
}

// Options tune a workflow run.
type Options struct {
	// Logf receives diagnostic messages from components; nil silences them.
	Logf func(format string, args ...any)
	// Restart is the per-stage supervision policy.
	Restart RestartPolicy
	// Tracer, when non-nil, receives spans from every layer the run's
	// timesteps cross (stage, kernel, fabric). Nil disables tracing.
	Tracer *obs.Tracer
	// Registry, when non-nil, is the metrics registry stage collectors
	// bind to; it is also recorded on the Result so reports can render a
	// fabric footer. Nil disables the mirroring.
	Registry *obs.Registry
	// Rescale is the elastic stage-rescaling policy (see rescale.go);
	// the zero value disables it.
	Rescale RescalePolicy
}

// Retryable classifies an error from a stage run: true if a supervised
// restart has a chance of helping (transient transport faults, injected
// chaos, timeouts from stalled peers, connection-level failures), false
// for deterministic failures (usage errors), cancellation fallout, and
// failures the fabric has already declared permanent (ErrWriterLost — the
// stream is failed; re-attaching cannot succeed).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	// Terminal classes first: some transient-looking chains wrap these.
	if errors.Is(err, context.Canceled) || errors.Is(err, mpi.ErrAborted) ||
		errors.Is(err, flexpath.ErrWriterLost) || errors.Is(err, flexpath.ErrClosed) {
		return false
	}
	// Self-declared transient errors (e.g. the fault injector's).
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	// Step deadline: the wait was bounded precisely so it could be retried.
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	// Connection-level failures a broker restart or reconnect can heal.
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return false
}

// Run launches every stage of the workflow concurrently over the given
// transport and waits for all of them to finish. The first stage error
// cancels the whole run (unblocking components waiting on streams) but
// all stages are still awaited so the returned Result is complete.
func Run(ctx context.Context, transport sb.Transport, spec Spec, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	res := &Result{Spec: spec, Stages: make([]StageResult, len(spec.Stages)), Registry: opts.Registry}
	// Instantiate everything before launching anything, so argument
	// errors surface synchronously rather than as a wedged workflow.
	for i, st := range spec.Stages {
		comp := st.Instance
		if comp == nil {
			var err error
			comp, err = components.New(st.Component, st.Args)
			if err != nil {
				return nil, fmt.Errorf("workflow %q stage %d: %w", spec.Name, i, err)
			}
		}
		res.Stages[i] = StageResult{Stage: st, Component: comp}
		if f, ok := comp.(*sb.Fused); ok {
			// A fused stage reports one collector per original component,
			// not one for the composite — fusion must not change what
			// comp.<name>.* series exist.
			res.Stages[i].SubMetrics = f.BindMetrics(opts.Registry)
		} else {
			m := sb.NewMetrics(comp.Name())
			m.BindRegistry(opts.Registry)
			res.Stages[i].Metrics = m
		}
	}

	// Elastic rescaling: a lag monitor plus per-stage control channels,
	// active only when the policy, registry, and transport capability
	// line up (newRescaler documents the conditions).
	rs, resizer := newRescaler(transport, res, &opts)
	var monitorStop chan struct{}
	if rs != nil {
		monitorStop = make(chan struct{})
		go rs.run(monitorStop)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := range res.Stages {
		wg.Add(1)
		go func(sr *StageResult) {
			defer wg.Done()
			superviseStage(runCtx, cancel, transport, sr, opts, resizer)
		}(&res.Stages[i])
	}
	wg.Wait()
	if monitorStop != nil {
		close(monitorStop)
	}
	res.Elapsed = time.Since(start)
	return res, res.Err()
}

// maxStageBackoff caps the supervisor's doubling restart delay.
const maxStageBackoff = 2 * time.Second

// superviseStage runs one stage to completion under the restart policy:
// launch, and on a retryable failure detach the stage's stream handles
// (freeing its group slots without ending or failing the streams), back
// off, and re-launch — the re-attached handles resume at the transport's
// current step. A terminal failure (non-retryable, restart budget
// exhausted, or run already cancelled) crashes the surviving writer
// handles — downstream readers get ErrWriterLost, not a truncated EOF —
// records the stage error, and cancels the run.
func superviseStage(runCtx context.Context, cancel context.CancelFunc, transport sb.Transport, sr *StageResult, opts Options, resizer flexpath.GroupResizer) {
	policy := opts.Restart
	backoff := policy.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	name := sr.Stage.Component
	if name == "" && sr.Component != nil {
		name = sr.Component.Name()
	}
	tr := opts.Tracer
	restarts := opts.Registry.Counter("workflow.restarts")
	var interrupt func() error
	if sr.ctl != nil {
		interrupt = sr.ctl.interrupt
	}
	for attempt := 0; ; attempt++ {
		var attStart int64
		if tr.Enabled() {
			attStart = tr.Now()
		}
		handles := sb.NewHandleSet()
		err := mpi.RunCtx(runCtx, sr.Stage.Procs, func(comm *mpi.Comm) error {
			env := &sb.Env{
				Comm:        comm,
				Transport:   transport,
				Args:        sr.Stage.Args,
				QueueDepth:  sr.Stage.QueueDepth,
				Metrics:     sr.Metrics,
				Logf:        opts.Logf,
				Handles:     handles,
				StepTimeout: policy.StepTimeout,
				Tracer:      opts.Tracer,
				Registry:    opts.Registry,
				Epoch:       attempt,
				Interrupt:   interrupt,
			}
			runErr := sr.Component.Run(env)
			// A succeeded rank's readers close immediately (they stop gating
			// retirement for slower peers; its writers wait for Finish); a
			// failed rank poisons the set, deferring settlement to the
			// supervisor below.
			handles.FinishRank(env, runErr)
			return runErr
		})
		if tr.Enabled() {
			span := obs.Span{Kind: obs.KindStageAttempt, Note: name,
				Rank: -1, Peer: -1, Epoch: attempt, Start: attStart}
			if err != nil {
				span.Err = err.Error()
			}
			tr.Emit(span)
		}
		if err == nil {
			handles.Finish(sb.FinishClose, nil)
			return
		}
		// Elastic rescale: ErrRescale is a control signal, not a failure —
		// every rank stopped at a step boundary. Detach the handles (the
		// restart resume path), resize the stage's stream groups, and
		// relaunch at the new size without consuming restart budget.
		if sr.ctl != nil && errors.Is(err, sb.ErrRescale) && runCtx.Err() == nil {
			handles.Finish(sb.FinishDetach, err)
			old := sr.Stage.Procs
			target := sr.ctl.take()
			if target > 0 && target != old && resizer != nil {
				if rerr := resizeStageStreams(resizer, sr.Component, old, target); rerr != nil {
					if opts.Logf != nil {
						opts.Logf("workflow: stage %q rescale to %d ranks failed (%v); relaunching at %d",
							name, target, rerr, old)
					}
					continue
				}
				sr.Stage.Procs = target
				sr.Rescales++
				sr.ctl.setProcs(target)
				opts.Registry.Counter("workflow.rescales").Inc()
				if tr.Enabled() {
					tr.Emit(obs.Span{Kind: obs.KindStageRescale, Note: name,
						Rank: old, Peer: target, Epoch: attempt + 1})
				}
				if opts.Logf != nil {
					opts.Logf("workflow: stage %q rescaled %d -> %d ranks at step boundary", name, old, target)
				}
			}
			continue
		}
		if Retryable(err) && attempt < policy.MaxRestarts && runCtx.Err() == nil {
			handles.Finish(sb.FinishDetach, err)
			sr.Restarts++
			restarts.Inc()
			if tr.Enabled() {
				tr.Emit(obs.Span{Kind: obs.KindStageRestart, Note: name,
					Rank: -1, Peer: -1, Epoch: attempt + 1, Err: err.Error()})
			}
			if opts.Logf != nil {
				opts.Logf("workflow: stage %q failed (%v); restart %d/%d in %s",
					name, err, sr.Restarts, policy.MaxRestarts, backoff)
			}
			select {
			case <-runCtx.Done():
				// The run died while we were backing off; report our original
				// error rather than silently swallowing it.
			case <-time.After(backoff):
				if backoff *= 2; backoff > maxStageBackoff {
					backoff = maxStageBackoff
				}
				continue
			}
		}
		if errors.Is(err, sb.ErrRescale) && runCtx.Err() != nil {
			// A rescale request overtaken by run cancellation: the control
			// signal is not this stage's failure.
			err = runCtx.Err()
		}
		handles.Finish(sb.FinishCrash, err)
		sr.Err = err
		cancel() // release stages blocked on streams this one owned
		return
	}
}
