// Black-box tests of the public store API: Open/Write/Read round-trips
// over the batched TCP hot path, under Byzantine base objects, and the
// context behaviour when every reader slot is occupied.
package store_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/store"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func TestOpenZeroValueRoundTrip(t *testing.T) {
	s, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)
	if err := s.Write(ctx, "a", types.Value("1")); err != nil {
		t.Fatal(err)
	}
	tv, err := s.Read(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !tv.Val.Equal(types.Value("1")) {
		t.Fatalf("read back %v", tv)
	}
	// A never-written register reads as the initial ⟨0,⊥⟩.
	tv, err = s.Read(ctx, "never-written")
	if err != nil {
		t.Fatal(err)
	}
	if tv.TS != 0 || !tv.Val.IsBottom() {
		t.Fatalf("unwritten register returned %v, want ⟨0,⊥⟩", tv)
	}
}

func TestBatchedTCPRoundTrips(t *testing.T) {
	s, err := store.Open(store.Options{
		T: 1, B: 1,
		Shards:          2,
		ReadersPerShard: 4,
		TCP:             true,
		Batching:        &store.BatchOptions{FlushWindow: 100 * time.Microsecond, MaxBatch: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)

	const keys = 24
	var wg sync.WaitGroup
	errs := make(chan error, keys)
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("tcp/%02d", i)
			for v := 0; v < 3; v++ {
				want := types.Value(fmt.Sprintf("%s=v%d", key, v))
				if err := s.Write(ctx, key, want); err != nil {
					errs <- fmt.Errorf("write %s: %w", key, err)
					return
				}
				tv, err := s.Read(ctx, key)
				if err != nil {
					errs <- fmt.Errorf("read %s: %w", key, err)
					return
				}
				if !tv.Val.Equal(want) {
					errs <- fmt.Errorf("%s: read %q after writing %q", key, tv.Val, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Writes != keys*3 || m.Reads != keys*3 {
		t.Fatalf("metrics miscounted: %+v", m)
	}
	if m.RoundsPerWrite() > 2 || m.RoundsPerRead() > 2 {
		t.Fatalf("rounds exceed the paper's 2-round bound: %+v", m)
	}
}

func TestByzantineObjectsDoNotCorruptReads(t *testing.T) {
	s, err := store.Open(store.Options{
		T: 1, B: 1,
		Shards:          2,
		ReadersPerShard: 2,
		ByzPerShard:     1,
		Batching:        &store.BatchOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("byz/%02d", i)
		want := types.Value(key)
		if err := s.Write(ctx, key, want); err != nil {
			t.Fatal(err)
		}
		tv, err := s.Read(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if !tv.Val.Equal(want) {
			t.Fatalf("%s: Byzantine object corrupted the read: got %q", key, tv.Val)
		}
	}
}

// TestAPIBoundaryCopies: messages are shared, not copied, inside the
// store, so the only copies on the data path are at the API boundary:
// Write copies the caller's value before it is sent, and Read returns a
// copy of what the protocol decided. Editing either slice afterwards
// must not change what the next Read returns, whichever protocol ran
// and whichever read path (one round or two) decided.
func TestAPIBoundaryCopies(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts store.Options
	}{
		{"safe", store.Options{Semantics: store.Safe}},
		{"regular-opt", store.Options{}},
		{"regular-opt-fast", store.Options{FastRead: true, ByzPerShard: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := store.Open(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := testCtx(t)
			val := types.Value("written")
			if err := s.Write(ctx, "k", val); err != nil {
				t.Fatal(err)
			}
			val[0] = 'X' // the caller reuses its buffer after Write returns
			for i := 0; i < 3; i++ {
				tv, err := s.Read(ctx, "k")
				if err != nil {
					t.Fatal(err)
				}
				if !tv.Val.Equal(types.Value("written")) {
					t.Fatalf("read %d returned %q, want %q", i, tv.Val, "written")
				}
				tv.Val[0] = 'Y' // the caller edits what Read returned
			}
		})
	}
}

// TestReadContextWhileAllSlotsBusy occupies the single reader slot of a
// deployment with a read that cannot complete (a manual partition holds
// the shard below quorum), then verifies that further reads respect
// their contexts while queued for a slot — and that the stalled read
// completes once the partition heals.
func TestReadContextWhileAllSlotsBusy(t *testing.T) {
	s, err := store.Open(store.Options{
		T: 1, B: 0, // S = 3, quorum 2
		Shards:          1,
		ReadersPerShard: 1,
		Faults:          &store.FaultPlan{}, // no injected noise: manual control only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)
	if err := s.Write(ctx, "k", types.Value("v")); err != nil {
		t.Fatal(err)
	}

	// Cut two of the three objects: one reachable object < quorum, so the
	// next read stalls while holding the only reader slot.
	fn := s.FaultNet(0)
	if fn == nil {
		t.Fatal("FaultNet must be available when Options.Faults is set")
	}
	fn.PartitionObject(transport.Object(1))
	fn.PartitionObject(transport.Object(2))

	stalled := make(chan error, 1)
	go func() {
		_, err := s.Read(ctx, "k")
		stalled <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the read claim the slot

	short, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := s.Read(short, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued read returned %v, want context.DeadlineExceeded", err)
	}

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := s.Read(pre, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("read with cancelled context returned %v, want context.Canceled", err)
	}

	fn.HealObject(transport.Object(1))
	fn.HealObject(transport.Object(2))
	select {
	case err := <-stalled:
		if err != nil {
			t.Fatalf("stalled read failed after heal: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stalled read never completed after the partition healed")
	}
	if _, err := s.Read(ctx, "k"); err != nil {
		t.Fatalf("slot not returned after the stall: %v", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := store.Open(store.Options{T: 1, B: 1, ByzPerShard: 2}); err == nil {
		t.Fatal("ByzPerShard > B must be rejected")
	}
	if _, err := store.Open(store.Options{T: 1, B: 1, ByzPerShard: 1, Faults: &store.FaultPlan{Faulty: 1}}); err == nil {
		t.Fatal("Faulty + ByzPerShard > T must be rejected: Byzantine failures count against t")
	}
	if _, err := store.Open(store.Options{Faults: &store.FaultPlan{Drop: 2}}); err == nil {
		t.Fatal("invalid fault plan must be rejected")
	}
	s, err := store.Open(store.Options{T: 2, B: 1, ByzPerShard: 1, Faults: &store.FaultPlan{Faulty: 1}})
	if err != nil {
		t.Fatalf("budget-respecting faulty+byz deployment rejected: %v", err)
	}
	s.Close()
}

// TestFaultyDeploymentStaysCorrect is the smallest chaos check at the
// public API: one crash-faulty object per shard dropping a third of its
// traffic plus global jitter/duplication, and every round-trip must
// still return the value just written.
func TestFaultyDeploymentStaysCorrect(t *testing.T) {
	s, err := store.Open(store.Options{
		T: 1, B: 0,
		Shards:          2,
		ReadersPerShard: 2,
		Batching:        &store.BatchOptions{},
		Faults: &store.FaultPlan{
			Seed:      7,
			Faulty:    1,
			Drop:      0.33,
			Jitter:    500 * time.Microsecond,
			Duplicate: 0.1,
			Reorder:   0.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("chaos/%02d", i)
		want := types.Value(fmt.Sprintf("v%d", i))
		if err := s.Write(ctx, key, want); err != nil {
			t.Fatal(err)
		}
		tv, err := s.Read(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if !tv.Val.Equal(want) {
			t.Fatalf("%s: got %q want %q", key, tv.Val, want)
		}
	}
	if s.FaultStats() == (store.FaultStats{}) {
		t.Fatal("fault layer injected nothing")
	}
}
