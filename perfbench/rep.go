package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consistency"
	"repro/internal/types"
	"repro/store"
)

// repTimeout bounds one repetition, whose healthy length is seconds: an
// op still pending at the deadline fails, and so do the ops after it.
const repTimeout = time.Minute

// record is one completed operation of a repetition.
type record struct {
	start, end int64 // consistency.Clock stamps
	// call and ret are nanoseconds since the repetition's base instant,
	// taken around the call into the store.
	call, ret int64
	ts        types.TS
	// val is the read's value: a plan value index, bottom for ⊥, or
	// unknown for bytes the plan never generated.
	val    int32
	client int
	err    bool
}

const (
	bottom  int32 = -1
	unknown int32 = -2
)

// repResult is what one repetition measured.
type repResult struct {
	setup   time.Duration
	elapsed time.Duration // the timed phase
	ops     int
	heapMB  float64
	readLat []time.Duration
	wrLat   []time.Duration
	failed  int // errored ops plus reads that fail the semantics check
	metrics store.Metrics
	// Allocation counts and GC cycles over the timed phase.
	mallocs, allocBytes uint64
	gcs                 uint32
	// violations holds the first few check failures, for the report.
	violations []string
}

// repetition opens a fresh store, sets it up, replays the plan's op list
// with the given number of closed-loop clients, measures, and checks
// every key's history. A non-nil tr traces the timed phase.
func repetition(w workload, p *plan, clients int, tr *tracer) (*repResult, error) {
	var clock consistency.Clock
	setupRecs := make([]record, 2*len(p.keys))
	recs := make([]record, len(p.ops))
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()

	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)

	t0 := time.Now()
	s, err := store.Open(w.storeOptions())
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()
	for i, key := range p.keys {
		setupRecs[i] = doOp(ctx, s, &clock, t0, op{key: int32(i), val: int32(i)}, key, p, 0)
		setupRecs[len(p.keys)+i] = doOp(ctx, s, &clock, t0, op{read: true, key: int32(i)}, key, p, 0)
	}
	res := &repResult{setup: time.Since(t0), ops: len(p.ops)}
	for _, r := range setupRecs {
		if r.err {
			return nil, fmt.Errorf("setup op failed")
		}
	}

	if tr != nil {
		tr.arm(s, t0, len(p.ops))
	}
	// Every timed phase starts from a collected heap, so repetitions do
	// not differ by where the setup left the GC cycle.
	runtime.GC()
	m0 := s.Metrics()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(p.ops)) {
					return
				}
				o := p.ops[i]
				recs[i] = doOp(ctx, s, &clock, t0, o, p.keys[o.key], p, c)
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	m1 := s.Metrics()
	res.metrics = store.Metrics{
		Writes: m1.Writes - m0.Writes, WriteRounds: m1.WriteRounds - m0.WriteRounds,
		Reads: m1.Reads - m0.Reads, ReadRounds: m1.ReadRounds - m0.ReadRounds,
		FastReads: m1.FastReads - m0.FastReads,
	}
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcs = ms1.NumGC - ms0.NumGC

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.heapMB = (float64(after.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20)

	if tr != nil {
		tr.observe(s, w)
	}
	closed = true
	if err := s.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	for i, r := range recs {
		if r.err {
			res.failed++
			continue
		}
		lat := time.Duration(r.ret - r.call)
		if p.ops[i].read {
			res.readLat = append(res.readLat, lat)
		} else {
			res.wrLat = append(res.wrLat, lat)
		}
	}
	bad, viol := check(w, p, setupRecs, recs)
	res.failed += bad
	res.violations = viol
	if tr != nil {
		if err := tr.analyze(w, p, s, recs, res.metrics); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// doOp issues one operation and records it.
func doOp(ctx context.Context, s *store.Store, clock *consistency.Clock, t0 time.Time, o op, key string, p *plan, client int) record {
	r := record{client: client}
	r.start = clock.Now()
	r.call = int64(time.Since(t0))
	if o.read {
		tv, err := s.Read(ctx, key)
		r.ret = int64(time.Since(t0))
		r.err = err != nil
		r.ts = tv.TS
		switch id, ok := p.valID[string(tv.Val)]; {
		case tv.Val.IsBottom():
			r.val = bottom
		case ok:
			r.val = id
		default:
			r.val = unknown
		}
	} else {
		ts, err := s.WriteTS(ctx, key, types.Value(p.value(o.val)))
		r.ret = int64(time.Since(t0))
		r.err = err != nil
		r.ts = ts
		r.val = o.val
	}
	r.end = clock.Now()
	return r
}

// check verifies every key's history against the store's semantics:
// regularity for regular registers, safety for safe ones (a safe read
// concurrent with a write may return ⊥, which regularity forbids). It
// returns the number of failing reads and the first few violations.
func check(w workload, p *plan, setup, recs []record) (int, []string) {
	hist := make([][]consistency.Op, len(p.keys))
	add := func(key int32, read bool, r record) {
		if r.err {
			return
		}
		c := consistency.Op{Kind: consistency.KindWrite, Start: r.start, End: r.end, TS: r.ts}
		if read {
			c.Kind = consistency.KindRead
			c.Reader = types.ReaderID(r.client)
		}
		switch r.val {
		case bottom:
		case unknown:
			c.Val = types.Value("value never generated")
		default:
			c.Val = types.Value(p.value(r.val))
		}
		hist[key] = append(hist[key], c)
	}
	n := len(p.keys)
	for i := 0; i < n; i++ {
		add(int32(i), false, setup[i])
		add(int32(i), true, setup[n+i])
	}
	for i, r := range recs {
		add(p.ops[i].key, p.ops[i].read, r)
	}
	bad := 0
	var out []string
	for k, ops := range hist {
		var viol []consistency.Violation
		if w.opts.Semantics == store.Safe {
			viol = consistency.CheckSafety(ops)
		} else {
			viol = consistency.CheckRegularity(ops)
		}
		bad += len(viol)
		for _, v := range viol {
			if len(out) < 5 {
				out = append(out, fmt.Sprintf("%s: %v", p.keys[k], v))
			}
		}
	}
	return bad, out
}
