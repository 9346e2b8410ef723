package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/byzantine"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/types"
)

// cluster bundles a memnet network with an optimally resilient set of
// base objects and clients for tests.
type cluster struct {
	t    *testing.T
	cfg  quorum.Config
	net  *memnet.Net
	safe []*object.Safe
	reg  []*object.Regular
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return c
}

// newSafeCluster builds S=2t+b+1 safe objects, replacing the objects
// whose index appears in byz with the given handlers.
func newSafeCluster(t *testing.T, tt, b, readers int, byz map[int]transport.Handler) *cluster {
	t.Helper()
	cfg := quorum.Optimal(tt, b, readers)
	c := &cluster{t: t, cfg: cfg, net: memnet.New()}
	t.Cleanup(func() { c.net.Close() })
	for i := 0; i < cfg.S; i++ {
		if h, ok := byz[i]; ok {
			if err := c.net.Serve(transport.Object(types.ObjectID(i)), h); err != nil {
				t.Fatalf("serve byz object %d: %v", i, err)
			}
			c.safe = append(c.safe, nil)
			continue
		}
		obj := object.NewSafe(types.ObjectID(i), readers)
		c.safe = append(c.safe, obj)
		if err := c.net.Serve(transport.Object(types.ObjectID(i)), obj); err != nil {
			t.Fatalf("serve object %d: %v", i, err)
		}
	}
	return c
}

// newRegularCluster is the regular-protocol analogue of newSafeCluster.
func newRegularCluster(t *testing.T, tt, b, readers int, byz map[int]transport.Handler, gc bool) *cluster {
	t.Helper()
	cfg := quorum.Optimal(tt, b, readers)
	c := &cluster{t: t, cfg: cfg, net: memnet.New()}
	t.Cleanup(func() { c.net.Close() })
	for i := 0; i < cfg.S; i++ {
		if h, ok := byz[i]; ok {
			if err := c.net.Serve(transport.Object(types.ObjectID(i)), h); err != nil {
				t.Fatalf("serve byz object %d: %v", i, err)
			}
			c.reg = append(c.reg, nil)
			continue
		}
		obj := object.NewRegular(types.ObjectID(i), readers)
		if gc {
			obj.EnableGC()
		}
		c.reg = append(c.reg, obj)
		if err := c.net.Serve(transport.Object(types.ObjectID(i)), obj); err != nil {
			t.Fatalf("serve object %d: %v", i, err)
		}
	}
	return c
}

func (c *cluster) writer() *core.Writer {
	c.t.Helper()
	conn, err := c.net.Register(transport.Writer())
	if err != nil {
		c.t.Fatalf("register writer: %v", err)
	}
	w, err := core.NewWriter(c.cfg, conn)
	if err != nil {
		c.t.Fatalf("new writer: %v", err)
	}
	return w
}

func (c *cluster) safeReader(j int) *core.Reader {
	c.t.Helper()
	conn, err := c.net.Register(transport.Reader(types.ReaderID(j)))
	if err != nil {
		c.t.Fatalf("register reader %d: %v", j, err)
	}
	r, err := core.NewSafeReader(c.cfg, conn, types.ReaderID(j))
	if err != nil {
		c.t.Fatalf("new safe reader: %v", err)
	}
	return r
}

func (c *cluster) regularReader(j int, optimized bool) *core.Reader {
	c.t.Helper()
	conn, err := c.net.Register(transport.Reader(types.ReaderID(j)))
	if err != nil {
		c.t.Fatalf("register reader %d: %v", j, err)
	}
	r, err := core.NewRegularReader(c.cfg, conn, types.ReaderID(j), optimized)
	if err != nil {
		c.t.Fatalf("new regular reader: %v", err)
	}
	return r
}

func TestSafeWriteThenRead(t *testing.T) {
	for _, tc := range []struct{ t, b int }{{1, 1}, {2, 1}, {2, 2}, {3, 1}, {3, 3}} {
		t.Run(fmt.Sprintf("t=%d,b=%d", tc.t, tc.b), func(t *testing.T) {
			c := newSafeCluster(t, tc.t, tc.b, 1, nil)
			w := c.writer()
			r := c.safeReader(0)
			for i := 1; i <= 5; i++ {
				val := types.Value(fmt.Sprintf("v%d", i))
				if err := w.Write(ctx(t), val); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				got, err := r.Read(ctx(t))
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !got.Val.Equal(val) || got.TS != types.TS(i) {
					t.Fatalf("read %d: got %v, want ⟨%d,%q⟩", i, got, i, val)
				}
			}
		})
	}
}

func TestSafeReadBeforeAnyWrite(t *testing.T) {
	c := newSafeCluster(t, 2, 1, 1, nil)
	r := c.safeReader(0)
	got, err := r.Read(ctx(t))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !got.Val.IsBottom() || got.TS != 0 {
		t.Fatalf("fresh register read = %v, want ⟨0,⊥⟩", got)
	}
}

func TestSafeOperationsTakeTwoRounds(t *testing.T) {
	c := newSafeCluster(t, 2, 2, 1, nil)
	w := c.writer()
	r := c.safeReader(0)
	if err := w.Write(ctx(t), types.Value("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := w.LastStats().Rounds; got != 2 {
		t.Errorf("WRITE rounds = %d, want 2", got)
	}
	if _, err := r.Read(ctx(t)); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := r.LastStats().Rounds; got != 2 {
		t.Errorf("READ rounds = %d, want 2", got)
	}
	if got, want := w.LastStats().Sent, 2*c.cfg.S; got != want {
		t.Errorf("WRITE sent %d messages, want %d", got, want)
	}
}

func TestSafeWithCrashFailures(t *testing.T) {
	// Crash t objects before any operation: everything must still work.
	c := newSafeCluster(t, 2, 1, 1, nil)
	c.net.Crash(transport.Object(0))
	c.net.Crash(transport.Object(3))
	w := c.writer()
	r := c.safeReader(0)
	if err := w.Write(ctx(t), types.Value("survives")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := r.Read(ctx(t))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !got.Val.Equal(types.Value("survives")) {
		t.Fatalf("read = %v, want survives", got)
	}
}

func TestSafeWithByzantineStrategies(t *testing.T) {
	// With b Byzantine objects running each strategy, non-concurrent
	// reads must still return the last written value.
	strategies := map[string]func(id types.ObjectID, readers int) transport.Handler{
		"mute": func(types.ObjectID, int) transport.Handler { return byzantine.Mute{} },
		"high-forger": func(id types.ObjectID, r int) transport.Handler {
			return byzantine.NewSafeHighForger(id, r, 100, types.Value("forged"), nil)
		},
		"equivocator": func(id types.ObjectID, r int) transport.Handler {
			return byzantine.NewSafeEquivocator(id, r, 50, types.Value("equiv"))
		},
		"stale": func(id types.ObjectID, r int) transport.Handler {
			return byzantine.NewSafeStale(id, r)
		},
		"accuser": func(id types.ObjectID, r int) transport.Handler {
			return byzantine.NewSafeAccuser(id, r, []types.ObjectID{1, 2, 3})
		},
	}
	for name, mk := range strategies {
		t.Run(name, func(t *testing.T) {
			tt, b := 2, 2
			byz := map[int]transport.Handler{
				0: mk(0, 1),
				5: mk(5, 1),
			}
			c := newSafeCluster(t, tt, b, 1, byz)
			w := c.writer()
			r := c.safeReader(0)
			for i := 1; i <= 3; i++ {
				val := types.Value(fmt.Sprintf("v%d", i))
				if err := w.Write(ctx(t), val); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				got, err := r.Read(ctx(t))
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !got.Val.Equal(val) {
					t.Fatalf("read %d under %s: got %v, want %q", i, name, got, val)
				}
				if rounds := r.LastStats().Rounds; rounds != 2 {
					t.Errorf("read %d rounds = %d, want 2", i, rounds)
				}
			}
		})
	}
}

func TestRegularWriteThenRead(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		t.Run(fmt.Sprintf("optimized=%v", optimized), func(t *testing.T) {
			c := newRegularCluster(t, 2, 1, 1, nil, optimized)
			w := c.writer()
			r := c.regularReader(0, optimized)
			for i := 1; i <= 5; i++ {
				val := types.Value(fmt.Sprintf("v%d", i))
				if err := w.Write(ctx(t), val); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				got, err := r.Read(ctx(t))
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !got.Val.Equal(val) || got.TS != types.TS(i) {
					t.Fatalf("read %d: got %v, want ⟨%d,%q⟩", i, got, i, val)
				}
			}
		})
	}
}

func TestRegularReadBeforeAnyWrite(t *testing.T) {
	c := newRegularCluster(t, 1, 1, 1, nil, false)
	r := c.regularReader(0, false)
	got, err := r.Read(ctx(t))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !got.Val.IsBottom() {
		t.Fatalf("fresh register read = %v, want ⊥", got)
	}
}

func TestRegularWithByzantineStrategies(t *testing.T) {
	strategies := map[string]func(id types.ObjectID, readers int) transport.Handler{
		"mute": func(types.ObjectID, int) transport.Handler { return byzantine.Mute{} },
		"high-forger": func(id types.ObjectID, r int) transport.Handler {
			return byzantine.NewRegularHighForger(id, r, 100, types.Value("forged"))
		},
		"equivocator": func(id types.ObjectID, r int) transport.Handler {
			return byzantine.NewRegularEquivocator(id, r, 50, types.Value("equiv"))
		},
		"stale": func(id types.ObjectID, r int) transport.Handler {
			return byzantine.NewRegularStale(id, r)
		},
		"omitter": func(id types.ObjectID, r int) transport.Handler {
			return byzantine.NewRegularOmitter(id, r, 2)
		},
	}
	for name, mk := range strategies {
		for _, optimized := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/optimized=%v", name, optimized), func(t *testing.T) {
				tt, b := 2, 2
				byz := map[int]transport.Handler{
					1: mk(1, 1),
					4: mk(4, 1),
				}
				c := newRegularCluster(t, tt, b, 1, byz, false)
				w := c.writer()
				r := c.regularReader(0, optimized)
				for i := 1; i <= 3; i++ {
					val := types.Value(fmt.Sprintf("v%d", i))
					if err := w.Write(ctx(t), val); err != nil {
						t.Fatalf("write %d: %v", i, err)
					}
					got, err := r.Read(ctx(t))
					if err != nil {
						t.Fatalf("read %d: %v", i, err)
					}
					if !got.Val.Equal(val) {
						t.Fatalf("read %d under %s: got %v, want %q", i, name, got, val)
					}
				}
			})
		}
	}
}

func TestMultipleReaders(t *testing.T) {
	const readers = 3
	c := newSafeCluster(t, 2, 1, readers, nil)
	w := c.writer()
	if err := w.Write(ctx(t), types.Value("shared")); err != nil {
		t.Fatalf("write: %v", err)
	}
	done := make(chan error, readers)
	for j := 0; j < readers; j++ {
		r := c.safeReader(j)
		go func() {
			got, err := r.Read(ctx(t))
			if err == nil && !got.Val.Equal(types.Value("shared")) {
				err = fmt.Errorf("got %v, want shared", got)
			}
			done <- err
		}()
	}
	for j := 0; j < readers; j++ {
		if err := <-done; err != nil {
			t.Fatalf("reader failed: %v", err)
		}
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	// Reads concurrent with writes must return either the previous or
	// one of the concurrent values for the regular protocol.
	c := newRegularCluster(t, 2, 1, 1, nil, false)
	w := c.writer()
	r := c.regularReader(0, false)

	const writes = 20
	writeDone := make(chan error, 1)
	go func() {
		for i := 1; i <= writes; i++ {
			if err := w.Write(ctx(t), types.Value(fmt.Sprintf("v%d", i))); err != nil {
				writeDone <- err
				return
			}
		}
		writeDone <- nil
	}()

	var lastTS types.TS
	for i := 0; i < 10; i++ {
		got, err := r.Read(ctx(t))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.TS < 0 || got.TS > writes {
			t.Fatalf("read %d returned timestamp %d outside [0,%d]", i, got.TS, writes)
		}
		if got.TS > 0 {
			want := types.Value(fmt.Sprintf("v%d", got.TS))
			if !got.Val.Equal(want) {
				t.Fatalf("read %d: ts %d carries %q, want %q (never-written value!)", i, got.TS, got.Val, want)
			}
		}
		lastTS = got.TS
	}
	_ = lastTS
	if err := <-writeDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
}
