package main

import (
	"errors"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcb/internal/serve"
)

// outcome is one submission's record.
type outcome struct {
	req       *request
	due       time.Time // when the request was due (closed loop: when sent)
	sent      time.Time // when SubmitOpts was called
	submitDur time.Duration
	recv      time.Time // when the response was received
	ch        <-chan serve.Response
	resp      serve.Response
	refused   error // non-nil when SubmitOpts refused the request
	// inWindow marks a closed-loop response received inside the window.
	inWindow bool
}

func (o *outcome) delivered() bool { return o.refused == nil && o.resp.Err == nil }

// failed reports a refusal or an error other than deadline expiry.
func (o *outcome) failed() bool {
	return o.refused != nil || (o.resp.Err != nil && !errors.Is(o.resp.Err, serve.ErrDeadlineExceeded))
}

// latency is the time from the due time to receipt.
func (o *outcome) latency() time.Duration { return o.recv.Sub(o.due) }

// good reports delivery within the request's own deadline, counted from its
// due time.
func (o *outcome) good() bool { return o.delivered() && o.latency() <= o.req.deadline }

// submit sends r and starts a waiter that stamps the response's receipt and
// hands the finished record to done.
func submit(front submitter, r *request, due time.Time, wg *sync.WaitGroup, done func(*outcome)) *outcome {
	o := &outcome{req: r, due: due, sent: time.Now()}
	ch, err := front.SubmitOpts(r.tokens, r.deadline, serve.SubmitOptions{Tenant: r.tenant, PrefixLen: r.prefix})
	o.submitDur = time.Since(o.sent)
	if err != nil {
		o.refused, o.recv = err, o.sent
		done(o)
		return o
	}
	o.ch = ch
	wg.Add(1)
	go func() {
		defer wg.Done()
		o.resp = <-ch
		o.recv = time.Now()
		done(o)
	}()
	return o
}

// openResult is one open-loop phase's raw record.
type openResult struct {
	outs []*outcome
	// backlog samples the number of outstanding requests at each send.
	backlog []int
}

// openLoop submits reqs at their due times from one generator goroutine (the
// caller) and returns once every response is in. Latency counts from the due
// time, so a generator stall shows up as latency rather than vanishing.
func openLoop(front submitter, reqs []*request) *openResult {
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	done := func(*outcome) { outstanding.Add(-1) }
	res := &openResult{outs: make([]*outcome, len(reqs)), backlog: make([]int, len(reqs))}
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.backlog[i] = int(outstanding.Add(1))
		res.outs[i] = submit(front, r, due, &wg, done)
	}
	wg.Wait()
	return res
}

// closedResult is the closed loop's raw record.
type closedResult struct {
	outs       []*outcome
	start, end time.Time
}

// closedLoop keeps n requests outstanding for dur, drawing requests in order
// from reqs, then waits for the stragglers. Only responses received inside
// the window count toward throughput.
func closedLoop(front submitter, reqs []*request, n int, dur time.Duration) *closedResult {
	var next atomic.Int64
	var mu sync.Mutex
	res := &closedResult{start: time.Now()}
	res.end = res.start.Add(dur)
	var clients, waiters sync.WaitGroup
	for c := 0; c < n; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for time.Now().Before(res.end) {
				i := next.Add(1) - 1
				if int(i) >= len(reqs) {
					return
				}
				got := make(chan struct{})
				o := submit(front, reqs[i], time.Now(), &waiters, func(*outcome) { close(got) })
				mu.Lock()
				res.outs = append(res.outs, o)
				mu.Unlock()
				<-got
			}
		}()
	}
	clients.Wait()
	waiters.Wait()
	for _, o := range res.outs {
		o.inWindow = !o.recv.After(res.end)
	}
	return res
}

// percentile returns the p-th percentile (nearest rank) of xs; 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(p/100*float64(len(s))+0.5) - 1
	return s[max(0, min(k, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stealTicks reads the host's cumulative steal and total CPU ticks from
// /proc/stat; ok is false where the file is missing or unreadable.
func stealTicks() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
