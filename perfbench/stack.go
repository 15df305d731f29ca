package main

import (
	"fmt"
	"sync"
	"time"

	"tcb/internal/batch"
	"tcb/internal/cluster"
	"tcb/internal/engine"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/sched"
	"tcb/internal/serve"
)

// The serving stack every workload runs on: tcb-serve's model geometry and
// server shape with every serving feature on.
const (
	vocabSize   = 256
	weightsSeed = 42
	rowsB       = 8
	rowLenL     = 100
	replicasN   = 2
)

var modelCfg = model.Config{
	VocabSize: vocabSize, DModel: 64, NumHeads: 4, DFF: 128,
	EncLayers: 2, DecLayers: 2, MaxLen: 512, Eps: 1e-5,
}

// newEngine builds a cached-decode engine whose outputs are capped at the
// input length and at maxNew.
func newEngine(maxNew int) *engine.Engine {
	eng := engine.New(model.New(modelCfg, weightsSeed), maxNew)
	eng.UseCache = true
	eng.OutputCap = func(n int) int { return min(n, maxNew) }
	return eng
}

// replica is one server with the ledgers the correctness gate balances.
type replica struct {
	idx       int
	srv       *serve.Server
	engMem    *gpu.MemoryManager // the engine's activation ledger
	prefixMem *gpu.MemoryManager // the prefix cache's own ledger
	cache     *prefixcache.Cache
}

// submitter is the front the load generator submits to: one server, or
// the cluster.
type submitter interface {
	SubmitOpts(tokens []int, deadline time.Duration, opt serve.SubmitOptions) (<-chan serve.Response, error)
}

// stack is one built serving stack.
type stack struct {
	front   submitter
	cluster *cluster.Cluster // nil for single-server workloads

	mu       sync.Mutex
	replicas []*replica // every replica generation ever spawned
	drain    func()
}

// buildStack builds the model, engine(s) and server(s) for w and starts
// them. tr, when non-nil, wraps each replica's engine, refill hook and
// scheduler with tracing shims.
func buildStack(w *workloadDef, tr *tracer) (*stack, error) {
	st := &stack{}
	newReplica := func(idx int) (*serve.Server, error) {
		eng := newEngine(w.maxNew)
		r := &replica{idx: idx, engMem: gpu.NewMemoryManager(0), prefixMem: gpu.NewMemoryManager(0)}
		eng.Mem = r.engMem
		r.cache = prefixcache.New(0, r.prefixMem)
		eng.PrefixCache = r.cache
		var runner serve.Runner = eng
		var scheduler sched.Scheduler = sched.NewDAS()
		if tr != nil {
			runner = tr.wrapEngine(idx, eng)
			scheduler = tr.wrapScheduler(idx, scheduler)
		}
		srv, err := serve.New(serve.Config{
			Engine: runner, Scheduler: scheduler, Scheme: batch.Concat,
			B: rowsB, L: rowLenL,
			Pipeline: true, Refill: true, Fair: true,
			PrefixCache:  r.cache,
			DrainTimeout: 30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		r.srv = srv
		st.mu.Lock()
		st.replicas = append(st.replicas, r)
		st.mu.Unlock()
		return srv, nil
	}
	if !w.cluster {
		srv, err := newReplica(0)
		if err != nil {
			return nil, err
		}
		srv.Start()
		st.front = srv
		st.drain = srv.Drain
		return st, nil
	}
	c, err := cluster.New(cluster.Config{
		Replicas: replicasN,
		Spawn: func(i int) (*serve.Server, func(), error) {
			srv, err := newReplica(i)
			return srv, nil, err
		},
		Policy: cluster.LeastLoaded,
		MaxLen: rowLenL,
	})
	if err != nil {
		return nil, err
	}
	c.Start()
	st.front, st.cluster, st.drain = c, c, c.Drain
	return st, nil
}

// current returns the live replica of each index (the last generation).
func (st *stack) current() []*replica {
	st.mu.Lock()
	defer st.mu.Unlock()
	byIdx := map[int]*replica{}
	for _, r := range st.replicas {
		byIdx[r.idx] = r
	}
	out := make([]*replica, 0, len(byIdx))
	for _, r := range byIdx {
		out = append(out, r)
	}
	return out
}

// checkLedgers reports any engine or prefix-cache ledger that does not
// balance to zero; call it after drain.
func (st *stack) checkLedgers() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, r := range st.replicas {
		if r.engMem.Used() != 0 || r.engMem.Outstanding() != 0 {
			return fmt.Errorf("replica %d: engine ledger holds %d bytes in %d allocations after drain",
				r.idx, r.engMem.Used(), r.engMem.Outstanding())
		}
		if r.prefixMem.Used() != 0 || r.prefixMem.Outstanding() != 0 {
			return fmt.Errorf("replica %d: prefix-cache ledger holds %d bytes in %d allocations after drain",
				r.idx, r.prefixMem.Used(), r.prefixMem.Outstanding())
		}
	}
	return nil
}
