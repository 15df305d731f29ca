package main

import (
	"slices"
	"testing"
	"time"
)

// TestTracedPassThrough serves the same short open-loop trace on a traced
// and an untraced stack: every request must get the same output from both,
// equal to the single-request oracle, and the tracer must have seen every
// request reach the engine.
func TestTracedPassThrough(t *testing.T) {
	for _, name := range []string{"paper-mix", "shared-prompt", "tenant-flood"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := buildPlan(w, 7, splitSeconds(2, len(w.ladder)))
			if err != nil {
				t.Fatal(err)
			}
			// Generous deadlines: the test checks what is delivered, not
			// when, and must pass under the race detector's slowdown.
			for _, r := range p.lo {
				r.deadline = time.Minute
			}
			serveOnce := func(tr *tracer) []*outcome {
				st, err := buildStack(w, tr)
				if err != nil {
					t.Fatal(err)
				}
				outs := openLoop(st.front, p.lo).outs
				st.drain()
				if err := checkDrained(st, outs); err != nil {
					t.Fatal(err)
				}
				return outs
			}
			tr := newTracer()
			traced, plain := serveOnce(tr), serveOnce(nil)
			if err := checkOutputs(w, traced); err != nil {
				t.Fatal(err)
			}
			for i := range plain {
				a, b := traced[i], plain[i]
				if !a.delivered() || !b.delivered() {
					t.Fatalf("request %d not delivered: traced err %v, untraced err %v", i, a.resp.Err, b.resp.Err)
				}
				if !slices.Equal(a.resp.Output, b.resp.Output) {
					t.Fatalf("request %d: traced output %v, untraced %v", i, a.resp.Output, b.resp.Output)
				}
				if _, ok := tr.first[&a.req.tokens[0]]; !ok {
					t.Fatalf("request %d never seen by the traced engine", i)
				}
			}
			if len(tr.spansOf("engine.run", phSetup)) == 0 {
				t.Fatal("no engine spans recorded")
			}
		})
	}
}
