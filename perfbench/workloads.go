package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"tcb/internal/rng"
	"tcb/internal/sched"
	"tcb/internal/vocab"
	"tcb/internal/workload"
)

// request is one generated submission. The server sees only tokens,
// deadline, tenant and the declared prefix length.
type request struct {
	due      time.Duration // offset from the phase start (open loop only)
	tokens   []int
	deadline time.Duration
	tenant   string
	prefix   int  // declared shared-prefix length (0 = none)
	inShare  bool // counts toward the end-to-end metrics (false for the flooder)
}

// workloadDef is one traffic mix and the fixed rates it is measured at.
// The rates are absolute. Against the median sat_rps of the proof sets in
// README.md (a 2-core linux/amd64 box) they sit at lo ≈ 30%, hi ≈ 40–45%
// and rungs ≈ 60%, 75–80%, 95%. hi sits below the 70% first intended
// because that box's CPU speed swings by ±20% over seconds, and at 65–70%
// load queueing amplified that into ±45% on hi.p99_ms. For tenant-flood
// every rate is the in-share tenants' combined rate; the flooder adds 10/3
// of it on top.
type workloadDef struct {
	name    string
	maxNew  int
	cluster bool
	loRPS   float64
	hiRPS   float64
	ladder  []float64 // slo rungs above hi, ascending
	// satOutstanding is the closed loop's fixed number of requests in flight.
	satOutstanding int
	// gen draws a Poisson trace at rate req/s over dur seconds.
	gen func(rate, dur float64, seed uint64) ([]*sched.Request, error)
}

const (
	prefixPool  = 4
	prefixReuse = 0.75
	prefixLen   = 48
	floodFactor = 10 // flooder rate over one in-share tenant's rate
	setupLen    = 20 // tokens in each set-up request: the paper traffic's mean
	inShareN    = 3  // in-share tenants in tenant-flood
)

var workloads = []*workloadDef{
	{
		// The paper's §6.2.1 traffic: packing, DAS, encode and decode all
		// work; the prefix cache, WFQ and the cluster sit idle.
		name:   "paper-mix",
		maxNew: 32,
		loRPS:  120, hiRPS: 190, ladder: []float64{235, 280, 325},
		satOutstanding: 64,
		gen: func(rate, dur float64, seed uint64) ([]*sched.Request, error) {
			return workload.Generate(workload.PaperSpec(rate, dur, seed))
		},
	},
	{
		// Encoder and prefix cache dominate; decode and refill do little.
		name:   "shared-prompt",
		maxNew: 4,
		loRPS:  235, hiRPS: 370, ladder: []float64{500, 650, 800},
		satOutstanding: 64,
		gen: func(rate, dur float64, seed uint64) ([]*sched.Request, error) {
			sp := workload.PaperSpec(rate, dur, seed)
			sp.PrefixPool, sp.PrefixReuse, sp.PrefixLen = prefixPool, prefixReuse, prefixLen
			return workload.Generate(sp)
		},
	},
	{
		// Length skew with outputs as long as inputs: cached decode and
		// refill admission dominate.
		name:   "long-tail",
		maxNew: 64,
		loRPS:  150, hiRPS: 230, ladder: []float64{290, 340, 390},
		satOutstanding: 64,
		gen: func(rate, dur float64, seed uint64) ([]*sched.Request, error) {
			sp := workload.PaperSpec(rate, dur, seed)
			return workload.GenerateWithDist(sp, workload.BimodalLengths{
				Low:          workload.NormalLengths{Mean: 6, Variance: 4, Min: 3, Max: 100},
				High:         workload.NormalLengths{Mean: 60, Variance: 100, Min: 3, Max: 100},
				HighFraction: 0.15,
			})
		},
	},
	{
		// The only mix in which WFQ ordering and cluster routing decide
		// who is served.
		name:    "tenant-flood",
		maxNew:  32,
		cluster: true,
		loRPS:   45, hiRPS: 65, ladder: []float64{95, 125, 155},
		satOutstanding: 64,
		gen: func(rate, dur float64, seed uint64) ([]*sched.Request, error) {
			per := rate / inShareN
			return workload.GenerateMix(workload.AdversarialMix(per, dur, seed, inShareN, floodFactor))
		},
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// materialize turns a generated trace into submissions with tokens drawn
// from seed. Every request owns a fresh token slice: the tracer identifies
// a request inside the server by the address of its first token.
func materialize(trace []*sched.Request, seed uint64) []*request {
	src := rng.New(seed ^ 0x5EED0F70CE45)
	pool := make([][]int, prefixPool+1)
	for i := 1; i <= prefixPool; i++ {
		pool[i] = randTokens(src, prefixLen)
	}
	out := make([]*request, len(trace))
	for i, r := range trace {
		toks := make([]int, 0, r.Len)
		if r.PrefixID > 0 {
			toks = append(toks, pool[r.PrefixID][:r.PrefixLen]...)
		}
		toks = append(toks, randTokens(src, r.Len-len(toks))...)
		out[i] = &request{
			due:      time.Duration(r.Arrival * float64(time.Second)),
			tokens:   toks,
			deadline: time.Duration((r.Deadline - r.Arrival) * float64(time.Second)),
			tenant:   r.Tenant,
			prefix:   r.PrefixLen,
			inShare:  r.Tenant != "flooder",
		}
	}
	return out
}

func randTokens(src *rng.Source, n int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = src.IntRange(vocab.FirstWordID, vocabSize-1)
	}
	return t
}

// hashRequests fingerprints a request sequence: equal hashes prove two runs
// submitted identical inputs in identical order.
func hashRequests(h io.Writer, reqs []*request) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, r := range reqs {
		put(int64(r.due))
		put(int64(r.deadline))
		put(int64(r.prefix))
		h.Write([]byte(r.tenant))
		put(int64(len(r.tokens)))
		for _, t := range r.tokens {
			put(int64(t))
		}
	}
}

// plan holds every phase's generated inputs for one run.
type plan struct {
	setup               []*request // one per set-up build
	warmup, lo, hi, sat []*request
	ladder              [][]*request
	hash                string
}

// phaseSeconds splits the measured time: lo, hi, each ladder rung and sat.
type phaseSeconds struct {
	warmup, lo, hi, rung, sat float64
}

func splitSeconds(total float64, rungs int) phaseSeconds {
	// lo 22.5%, hi 30%, the ladder 25%, sat 22.5%; warmup is extra and
	// short. hi gets the most time: its P99 needs the most samples.
	return phaseSeconds{
		warmup: 1,
		lo:     0.225 * total,
		hi:     0.30 * total,
		rung:   0.25 * total / float64(rungs),
		sat:    0.225 * total,
	}
}

func buildPlan(w *workloadDef, seed uint64, ps phaseSeconds) (*plan, error) {
	mk := func(phase uint64, rate, dur float64) ([]*request, error) {
		s := seed*1_000_003 + phase
		tr, err := w.gen(rate, dur, s)
		if err != nil {
			return nil, err
		}
		return materialize(tr, s), nil
	}
	p := &plan{}
	var err error
	if p.warmup, err = mk(1, w.loRPS, ps.warmup); err != nil {
		return nil, err
	}
	if p.lo, err = mk(2, w.loRPS, ps.lo); err != nil {
		return nil, err
	}
	if p.hi, err = mk(3, w.hiRPS, ps.hi); err != nil {
		return nil, err
	}
	for i, r := range w.ladder {
		reqs, err := mk(10+uint64(i), r, ps.rung)
		if err != nil {
			return nil, err
		}
		p.ladder = append(p.ladder, reqs)
	}
	// The closed loop draws from a trace long enough never to run dry at
	// several times the highest rung.
	if p.sat, err = mk(4, w.ladder[len(w.ladder)-1], 4*ps.sat); err != nil {
		return nil, err
	}
	// Each set-up build serves one request of the same length, due at
	// once, so that every build does the same work and set-up time is the
	// program's, not the generator's wait for a Poisson arrival.
	src := rng.New(seed ^ 0x5E70F5E7)
	for i := 0; i < setupBuilds(w); i++ {
		r := *p.warmup[i%len(p.warmup)] // tenant and deadline
		r.due, r.prefix, r.tokens = 0, 0, randTokens(src, setupLen)
		p.setup = append(p.setup, &r)
	}
	h := sha256.New()
	for _, ph := range append([][]*request{p.setup, p.warmup, p.lo, p.hi, p.sat}, p.ladder...) {
		hashRequests(h, ph)
	}
	p.hash = hex.EncodeToString(h.Sum(nil))[:16]
	return p, nil
}
