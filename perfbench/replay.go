package main

import (
	"fmt"
	"time"

	"tcb/internal/batch"
	"tcb/internal/gpu"
	"tcb/internal/prefixcache"
)

// replayCost is the model layer's cost per token, measured by replaying
// captured launches through a fresh engine's Run on the drained process.
type replayCost struct {
	rowEncodeNs float64 // packed row encode, per resident token
	admEncodeNs float64 // one-item admission-shaped encode, per token
	decodeNs    float64 // cached decode, per generated token
}

// replay runs each captured launch three ways: as launched, with MaxNew 0
// (encode only), and as one-item admission-shaped batches with MaxNew 0.
// Launches holding prefix-cache hits replay against a cache warmed with the
// same prefixes, pinned for the replay like the server pins them.
func replay(maxNew int, caps []launchCapture) (replayCost, error) {
	var rc replayCost
	eng := newEngine(maxNew)
	cache := prefixcache.New(0, gpu.NewMemoryManager(0))
	eng.PrefixCache = cache
	defer cache.Clear()
	one := func(it batch.Item) *batch.Batch {
		return &batch.Batch{Scheme: batch.Concat, Rows: []batch.Row{{Items: []batch.Item{it}, PadTo: it.Len}}}
	}
	timed := func(b *batch.Batch, tokens map[int64][]int) (time.Duration, int, error) {
		start := time.Now()
		rep, err := eng.Run(b, tokens)
		if err != nil {
			return 0, 0, err
		}
		gen := 0
		for _, r := range rep.Results {
			gen += len(r.Output)
		}
		return time.Since(start), gen, nil
	}
	var full, enc, adm time.Duration
	var rowTok, admTok, genTok int
	for _, c := range caps {
		var pins []prefixcache.Handle
		for _, it := range c.b.Items() {
			if it.CachedLen == 0 {
				continue
			}
			toks := c.tokens[it.ID]
			if !cache.Contains(toks, it.CachedLen) {
				cold := batch.Item{ID: it.ID, Len: len(toks), PrefixLen: it.PrefixLen}
				if _, err := eng.Run(one(cold), map[int64][]int{it.ID: toks}); err != nil {
					return rc, fmt.Errorf("replay: warm prefix: %w", err)
				}
			}
			h := cache.Acquire(toks, it.CachedLen)
			if !h.Valid() {
				return rc, fmt.Errorf("replay: prefix of item %d not resident after warming", it.ID)
			}
			pins = append(pins, h)
		}
		d, gen, err := timed(c.b, c.tokens)
		if err != nil {
			return rc, fmt.Errorf("replay: %w", err)
		}
		full += d
		genTok += gen
		eng.MaxNew = 0
		d, _, err = timed(c.b, c.tokens)
		if err != nil {
			return rc, fmt.Errorf("replay encode: %w", err)
		}
		enc += d
		rowTok += c.b.UsedTokens()
		for _, it := range c.b.Items() {
			d, _, err := timed(one(it), map[int64][]int{it.ID: c.tokens[it.ID]})
			if err != nil {
				return rc, fmt.Errorf("replay admission: %w", err)
			}
			adm += d
			admTok += it.Len
		}
		eng.MaxNew = maxNew
		for i := range pins {
			pins[i].Release()
		}
	}
	if rowTok > 0 {
		rc.rowEncodeNs = float64(enc) / float64(rowTok)
		rc.admEncodeNs = float64(adm) / float64(admTok)
	}
	if genTok > 0 {
		rc.decodeNs = float64(full-enc) / float64(genTok)
	}
	return rc, nil
}
