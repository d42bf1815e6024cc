package workflow

import (
	"sync"
	"time"

	"repro/internal/flexpath"
	"repro/internal/sb"
)

// This file is elastic rescaling: a supervisor hook that watches live registry deltas for a stage falling
// behind its peers and re-scales its rank count at a step boundary,
// reusing the detach/re-attach restart machinery so exactly-once
// results are preserved (see Broker.ResizeGroups for the broker-side
// argument). The rescale path is: monitor detects lag → stageCtl
// records a target → every rank's Env.Interrupt returns sb.ErrRescale
// at its next step boundary → the supervisor detaches the handles,
// resizes the stage's stream groups, and relaunches at the new size.

// RescalePolicy governs the elastic-rescale monitor. The zero value
// disables it.
type RescalePolicy struct {
	// Enable turns the monitor on. It also needs Options.Registry (the
	// lag signal is registry step counters) and a transport whose broker
	// supports group resizing (flexpath.GroupResizer); otherwise it
	// stays off silently.
	Enable bool
	// CheckEvery is the monitor period (0 = 150ms).
	CheckEvery time.Duration
	// LagSteps is how many completed steps behind the workflow's leader
	// a stage must be to count as lagging (0 = 2).
	LagSteps int
	// MaxProcs caps the rank count a rescale may grow a stage to (0 = 8).
	MaxProcs int
	// MaxRescales bounds rescales per stage per run (0 = 1).
	MaxRescales int
	// Stages, when non-empty, limits rescaling to these component names.
	Stages []string
}

func (p RescalePolicy) withDefaults() RescalePolicy {
	if p.CheckEvery <= 0 {
		p.CheckEvery = 150 * time.Millisecond
	}
	if p.LagSteps <= 0 {
		p.LagSteps = 2
	}
	if p.MaxProcs <= 0 {
		p.MaxProcs = 8
	}
	if p.MaxRescales <= 0 {
		p.MaxRescales = 1
	}
	return p
}

// stageCtl is the rescale channel between the monitor (which requests)
// and the stage's supervisor goroutine (which applies). One per
// rescalable stage.
type stageCtl struct {
	mu       sync.Mutex
	procs    int // current rank count
	target   int // pending requested rank count, 0 = none
	rescales int // requests made, bounded by MaxRescales
}

// interrupt is installed as Env.Interrupt on every rank: a pending
// target turns the next step boundary into a clean detach.
func (c *stageCtl) interrupt() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.target > 0 && c.target != c.procs {
		return sb.ErrRescale
	}
	return nil
}

// maybeRequest records a grow-by-doubling rescale request if the policy
// budget allows one. Reports whether a request was recorded.
func (c *stageCtl) maybeRequest(policy RescalePolicy) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.target > 0 || c.rescales >= policy.MaxRescales {
		return false
	}
	target := c.procs * 2
	if target > policy.MaxProcs {
		target = policy.MaxProcs
	}
	if target <= c.procs {
		return false
	}
	c.target = target
	c.rescales++
	return true
}

// take consumes the pending target (0 when none).
func (c *stageCtl) take() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.target
	c.target = 0
	return t
}

func (c *stageCtl) setProcs(n int) {
	c.mu.Lock()
	c.procs = n
	c.mu.Unlock()
}

func (c *stageCtl) currentProcs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.procs
}

// rescaleWatch is one stage the monitor tracks: every stage contributes
// to the leader estimate; only stages with a ctl can be rescaled.
type rescaleWatch struct {
	name  string
	procs func() int
	ctl   *stageCtl
}

// rescaler is the lag monitor. It reads comp.<name>.step_samples from
// the registry — the sb.Metrics mirror every stage bumps once per
// rank-step — and normalizes by rank count to per-stage completed steps.
type rescaler struct {
	policy  RescalePolicy
	opts    *Options
	watches []rescaleWatch
}

// newRescaler wires the monitor for a run, returning nil (monitor off)
// when the policy, registry, or transport capability is missing.
// Rescalable stages are those whose component exposes the kernel seam
// (sb.Fusable — its partitioning derives from the incoming shape, not
// its arguments, so its rank count can change mid-run) and that pass the policy's name filter.
func newRescaler(transport sb.Transport, res *Result, opts *Options) (*rescaler, flexpath.GroupResizer) {
	policy := opts.Rescale
	if !policy.Enable || opts.Registry == nil {
		return nil, nil
	}
	resizer := resizerOf(transport)
	if resizer == nil {
		return nil, nil
	}
	policy = policy.withDefaults()
	allowed := func(name string) bool {
		if len(policy.Stages) == 0 {
			return true
		}
		for _, s := range policy.Stages {
			if s == name {
				return true
			}
		}
		return false
	}
	rs := &rescaler{policy: policy, opts: opts}
	seen := map[string]bool{}
	for i := range res.Stages {
		sr := &res.Stages[i]
		name := sr.Component.Name()
		if seen[name] {
			continue // duplicate component names: lag signal is ambiguous
		}
		seen[name] = true
		w := rescaleWatch{name: name, procs: func() int { return sr.Stage.Procs }}
		_, fusable := sr.Component.(sb.Fusable)
		if fusable && allowed(name) {
			if _, _, ok := portsOf(sr.Component); ok {
				ctl := &stageCtl{procs: sr.Stage.Procs}
				sr.ctl = ctl
				w.ctl = ctl
				w.procs = ctl.currentProcs
			}
		}
		rs.watches = append(rs.watches, w)
	}
	return rs, resizer
}

// resizerOf unwraps the run transport down to a broker that supports
// group resizing, or nil.
func resizerOf(transport sb.Transport) flexpath.GroupResizer {
	fab, ok := transport.(sb.Fabric)
	if !ok {
		return nil
	}
	gr, ok := fab.T.(flexpath.GroupResizer)
	if !ok {
		return nil
	}
	return gr
}

// run ticks the lag check until stop closes.
func (rs *rescaler) run(stop <-chan struct{}) {
	t := time.NewTicker(rs.policy.CheckEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rs.check()
		}
	}
}

// check compares per-stage completed steps (registry step samples over
// rank count) and requests a rescale for any rescalable stage at least
// LagSteps behind the leader.
func (rs *rescaler) check() {
	snap := rs.opts.Registry.Snapshot()
	completed := make([]float64, len(rs.watches))
	var leader float64
	for i, w := range rs.watches {
		procs := w.procs()
		if procs <= 0 {
			continue
		}
		completed[i] = float64(snap["comp."+w.name+".step_samples"]) / float64(procs)
		if completed[i] > leader {
			leader = completed[i]
		}
	}
	for i, w := range rs.watches {
		if w.ctl == nil {
			continue
		}
		if leader-completed[i] < float64(rs.policy.LagSteps) {
			continue
		}
		if w.ctl.maybeRequest(rs.policy) && rs.opts.Logf != nil {
			rs.opts.Logf("workflow: stage %q lagging %.0f steps behind leader; requesting rescale",
				w.name, leader-completed[i])
		}
	}
}

// resizeStageStreams applies a stage's new rank count to every stream
// it touches: the stage is the reader group of its input edges and the
// writer group of its output edges. Caller has detached all handles.
// On a mid-sequence failure the already-resized streams are resized
// back to old, so the stage can relaunch at its previous size against
// consistent groups.
func resizeStageStreams(resizer flexpath.GroupResizer, comp sb.Component, old, target int) error {
	ins, outs, ok := portsOf(comp)
	if !ok {
		return nil
	}
	var doneIns, doneOuts []string
	rollback := func() {
		for _, s := range doneIns {
			resizer.ResizeGroups(s, 0, old)
		}
		for _, s := range doneOuts {
			resizer.ResizeGroups(s, old, 0)
		}
	}
	for _, in := range ins {
		if err := resizer.ResizeGroups(in.Stream, 0, target); err != nil {
			rollback()
			return err
		}
		doneIns = append(doneIns, in.Stream)
	}
	for _, out := range outs {
		if err := resizer.ResizeGroups(out.Stream, target, 0); err != nil {
			rollback()
			return err
		}
		doneOuts = append(doneOuts, out.Stream)
	}
	return nil
}
