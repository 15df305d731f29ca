package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// checkDrained is the part of the correctness gate that needs no oracle:
// call it after the stack drained. Every accepted request got exactly one
// response, the program's own terminal counters agree, and every ledger
// balances to zero.
func checkDrained(st *stack, outs []*outcome) error {
	for _, o := range outs {
		if o.refused != nil {
			continue
		}
		select {
		case extra := <-o.ch:
			return fmt.Errorf("request got a second outcome (err=%v)", extra.Err)
		default:
		}
	}
	if st.cluster != nil {
		cs := st.cluster.Stats()
		if cs.Submitted != cs.Delivered {
			return fmt.Errorf("cluster accepted %d requests but delivered %d outcomes", cs.Submitted, cs.Delivered)
		}
	} else {
		s := st.replicas[len(st.replicas)-1].srv.Stats()
		if s.Submitted != s.Served+s.Missed+s.Failed+s.Shed {
			return fmt.Errorf("server accepted %d requests but ended %d served + %d missed + %d failed + %d shed",
				s.Submitted, s.Served, s.Missed, s.Failed, s.Shed)
		}
	}
	return st.checkLedgers()
}

// checkOutputs compares every delivered output with the single-request
// oracle, engine.RunSingle on fresh engines, one per CPU.
func checkOutputs(w *workloadDef, outs []*outcome) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oracle := newEngine(w.maxNew)
			for i := k; i < len(outs) && errs[k] == nil; i += workers {
				o := outs[i]
				if !o.delivered() {
					continue
				}
				want, err := oracle.RunSingle(1, o.req.tokens)
				if err != nil {
					errs[k] = fmt.Errorf("oracle: %w", err)
				} else if !slices.Equal(o.resp.Output, want.Output) {
					errs[k] = fmt.Errorf("output mismatch for request %v (prefix %d): got %v, want %v",
						o.req.tokens, o.req.prefix, o.resp.Output, want.Output)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
