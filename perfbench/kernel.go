package main

import (
	"sync"

	"repro/internal/sb"
)

// kernelLog accumulates one map stage's kernel time across its ranks.
type kernelLog struct {
	mu    sync.Mutex
	ns    int64
	calls int
}

// timedMap runs a map component's own MapSpec kernel through sb.RunMap,
// exactly as the component's Run does, with Transform timed.
type timedMap struct {
	name   string
	cfg    sb.MapConfig
	kernel sb.MapKernel
	log    *kernelLog
}

func newTimedMap(c sb.Fusable) *timedMap {
	cfg, k := c.MapSpec()
	return &timedMap{name: c.Name(), cfg: cfg, kernel: k, log: &kernelLog{}}
}

func (t *timedMap) Name() string { return t.name }

func (t *timedMap) Run(env *sb.Env) error {
	return sb.RunMap(env, t.cfg, timedKernel{MapKernel: t.kernel, log: t.log})
}

type timedKernel struct {
	sb.MapKernel
	log *kernelLog
}

func (k timedKernel) Transform(in *sb.StepInput) (*sb.StepOutput, error) {
	start := now()
	out, err := k.MapKernel.Transform(in)
	d := now() - start
	k.log.mu.Lock()
	k.log.ns += d
	k.log.calls++
	k.log.mu.Unlock()
	return out, err
}
