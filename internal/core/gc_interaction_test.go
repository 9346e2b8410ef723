package core_test

// Interaction of history garbage collection with mixed reader kinds.
// GC prunes below the *minimum* cache watermark across all readers, so
// an unoptimized reader (which always sends CacheTS 0) pins the
// watermark at 0 and effectively disables pruning — the invariant that
// makes enabling GC safe regardless of reader configuration.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/types"
)

func TestGCDisabledByUnoptimizedReader(t *testing.T) {
	c := newRegularCluster(t, 1, 1, 2, nil, true) // GC on, 2 readers
	w := c.writer()
	opt := c.regularReader(0, true)
	unopt := c.regularReader(1, false)

	for i := 1; i <= 20; i++ {
		if err := w.Write(ctx(t), types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		// Both readers advance; only reader 0 reports a cache watermark.
		if _, err := opt.Read(ctx(t)); err != nil {
			t.Fatal(err)
		}
		if _, err := unopt.Read(ctx(t)); err != nil {
			t.Fatal(err)
		}
	}
	// The unoptimized reader pinned the watermark at 0: full histories
	// must survive. An object outside the last rounds' quorums may still
	// have PW/W messages in flight, so wait for it to catch up; a pruned
	// object never gets back to 21 entries, since PW only re-adds ts′
	// and ts′−1.
	deadline := time.Now().Add(5 * time.Second)
	for i, obj := range c.reg {
		if obj == nil {
			continue
		}
		got := obj.HistoryLen()
		for got != 21 && time.Now().Before(deadline) { // ts 0..20
			time.Sleep(time.Millisecond)
			got = obj.HistoryLen()
		}
		if got != 21 {
			t.Fatalf("object %d pruned to %d entries despite an unoptimized reader", i, got)
		}
	}
}

func TestGCPrunesOnceAllReadersOptimized(t *testing.T) {
	c := newRegularCluster(t, 1, 1, 2, nil, true)
	w := c.writer()
	r0 := c.regularReader(0, true)
	r1 := c.regularReader(1, true)

	for i := 1; i <= 20; i++ {
		if err := w.Write(ctx(t), types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Both readers read twice: the first read returns ts 20 and caches
	// it; the second advertises CacheTS 20 to the objects, letting them
	// prune everything below.
	for pass := 0; pass < 2; pass++ {
		if _, err := r0.Read(ctx(t)); err != nil {
			t.Fatal(err)
		}
		if _, err := r1.Read(ctx(t)); err != nil {
			t.Fatal(err)
		}
	}
	pruned := 0
	for _, obj := range c.reg {
		if obj == nil {
			continue
		}
		if obj.HistoryLen() <= 2 {
			pruned++
		}
	}
	// Every object both readers reached has pruned; allow the straggler
	// the round quorum may skip.
	if pruned < c.cfg.RoundQuorum() {
		t.Fatalf("only %d objects pruned, want ≥ %d", pruned, c.cfg.RoundQuorum())
	}
	// Reads still work after pruning.
	got, err := r0.Read(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Val.Equal(types.Value("v20")) {
		t.Fatalf("post-GC read = %v", got)
	}
}

func TestGCThenNewWritesStillReadable(t *testing.T) {
	c := newRegularCluster(t, 1, 1, 1, nil, true)
	w := c.writer()
	r := c.regularReader(0, true)
	for i := 1; i <= 10; i++ {
		if err := w.Write(ctx(t), types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(ctx(t)); err != nil {
			t.Fatal(err)
		}
	}
	// Histories are pruned; continue writing and reading.
	for i := 11; i <= 15; i++ {
		val := types.Value(fmt.Sprintf("v%d", i))
		if err := w.Write(ctx(t), val); err != nil {
			t.Fatal(err)
		}
		got, err := r.Read(ctx(t))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Val.Equal(val) {
			t.Fatalf("read %d = %v", i, got)
		}
	}
}
