package batch

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// fakeConn records sent frames and feeds queued messages to Recv.
type fakeConn struct {
	id transport.NodeID

	mu    sync.Mutex
	sent  []sentFrame
	inbox chan transport.Message
}

type sentFrame struct {
	to      transport.NodeID
	payload wire.Msg
}

func newFakeConn() *fakeConn {
	return &fakeConn{id: transport.Reader(0), inbox: make(chan transport.Message, 64)}
}

func (f *fakeConn) ID() transport.NodeID { return f.id }

func (f *fakeConn) Send(to transport.NodeID, payload wire.Msg) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, sentFrame{to, payload})
}

func (f *fakeConn) Recv(ctx context.Context) (transport.Message, error) {
	select {
	case m := <-f.inbox:
		return m, nil
	case <-ctx.Done():
		return transport.Message{}, ctx.Err()
	}
}

func (f *fakeConn) Close() error { return nil }

func (f *fakeConn) frames() []sentFrame {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]sentFrame(nil), f.sent...)
}

func TestCoalescesConcurrentOpsToOneObject(t *testing.T) {
	inner := newFakeConn()
	c := NewConn(inner, Options{FlushWindow: 5 * time.Millisecond, MaxBatch: 64, ActivationOps: AlwaysCoalesce})
	obj := transport.Object(0)
	const n = 16
	for i := 0; i < n; i++ {
		c.Send(obj, wire.BaselineReadReq{Attempt: i})
	}
	time.Sleep(20 * time.Millisecond)
	frames := inner.frames()
	if len(frames) != 1 {
		t.Fatalf("want 1 coalesced frame for %d ops, got %d", n, len(frames))
	}
	b, ok := frames[0].payload.(wire.Batch)
	if !ok {
		t.Fatalf("frame is %T, want wire.Batch", frames[0].payload)
	}
	if len(b.Ops) != n {
		t.Fatalf("batch carries %d ops, want %d", len(b.Ops), n)
	}
	for i, op := range b.Ops {
		if op.(wire.BaselineReadReq).Attempt != i {
			t.Fatalf("op %d out of order: %+v", i, op)
		}
	}
}

func TestMaxBatchFlushesEagerly(t *testing.T) {
	inner := newFakeConn()
	c := NewConn(inner, Options{FlushWindow: time.Hour, MaxBatch: 4, ActivationOps: AlwaysCoalesce})
	obj := transport.Object(1)
	for i := 0; i < 8; i++ {
		c.Send(obj, wire.BaselineReadReq{Attempt: i})
	}
	frames := inner.frames()
	if len(frames) != 2 {
		t.Fatalf("8 ops at MaxBatch=4 must ship as 2 frames, got %d", len(frames))
	}
	for _, f := range frames {
		if got := len(f.payload.(wire.Batch).Ops); got != 4 {
			t.Fatalf("frame carries %d ops, want 4", got)
		}
	}
}

func TestLoneOpTravelsBare(t *testing.T) {
	inner := newFakeConn()
	c := NewConn(inner, Options{FlushWindow: time.Millisecond, MaxBatch: 64})
	c.Send(transport.Object(2), wire.BaselineReadReq{Attempt: 7})
	time.Sleep(10 * time.Millisecond)
	frames := inner.frames()
	if len(frames) != 1 {
		t.Fatalf("want 1 frame, got %d", len(frames))
	}
	if _, isBatch := frames[0].payload.(wire.Batch); isBatch {
		t.Fatal("a lone op must not pay the batch envelope")
	}
}

func TestNonObjectTrafficPassesThrough(t *testing.T) {
	inner := newFakeConn()
	c := NewConn(inner, Options{FlushWindow: time.Hour, MaxBatch: 64})
	c.Send(transport.Writer(), wire.SubscribeReq{Reader: 0, Seq: 1})
	frames := inner.frames()
	if len(frames) != 1 {
		t.Fatalf("non-object send must pass through immediately, got %d frames", len(frames))
	}
}

func TestRecvUnpacksBatchInOrder(t *testing.T) {
	inner := newFakeConn()
	c := NewConn(inner, Options{})
	from := transport.Object(3)
	inner.inbox <- transport.Message{From: from, Payload: wire.Batch{Ops: []wire.Msg{
		wire.BaselineReadAck{ObjectID: 3, Attempt: 0},
		wire.BaselineReadAck{ObjectID: 3, Attempt: 1},
	}}}
	inner.inbox <- transport.Message{From: from, Payload: wire.WAck{ObjectID: 3, TS: 5}}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		m, err := c.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.From != from {
			t.Fatalf("unpacked op lost its sender: %v", m.From)
		}
		if got := m.Payload.(wire.BaselineReadAck).Attempt; got != i {
			t.Fatalf("op %d delivered out of order: got attempt %d", i, got)
		}
	}
	m, err := c.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Payload.(wire.WAck); !ok {
		t.Fatalf("bare message mangled: %T", m.Payload)
	}
}

func TestWrapHandlerAppliesOpsInOrder(t *testing.T) {
	var handled []int
	h := WrapHandler(transport.HandlerFunc(func(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
		r := req.(wire.BaselineReadReq)
		handled = append(handled, r.Attempt)
		if r.Attempt%2 == 1 {
			return nil, false // odd ops produce no reply, like a failed guard
		}
		return wire.BaselineReadAck{ObjectID: 0, Attempt: r.Attempt}, true
	}))
	req := wire.Batch{Ops: []wire.Msg{
		wire.BaselineReadReq{Attempt: 0},
		wire.BaselineReadReq{Attempt: 1},
		wire.BaselineReadReq{Attempt: 2},
	}}
	reply, ok := h.Handle(transport.Reader(0), req)
	if !ok {
		t.Fatal("batch with replying ops must produce a reply")
	}
	b := reply.(wire.Batch)
	if len(b.Ops) != 2 {
		t.Fatalf("want 2 replies (op 1 is silent), got %d", len(b.Ops))
	}
	if len(handled) != 3 || handled[0] != 0 || handled[2] != 2 {
		t.Fatalf("ops applied out of order: %v", handled)
	}
}

func TestWrapHandlerSingleReplyTravelsBare(t *testing.T) {
	h := WrapHandler(transport.HandlerFunc(func(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
		r, ok := req.(wire.BaselineReadReq)
		if !ok || r.Attempt != 0 {
			return nil, false
		}
		return wire.BaselineReadAck{Attempt: 0}, true
	}))
	reply, ok := h.Handle(transport.Reader(0), wire.Batch{Ops: []wire.Msg{
		wire.BaselineReadReq{Attempt: 0},
		wire.BaselineReadReq{Attempt: 1},
	}})
	if !ok {
		t.Fatal("want a reply")
	}
	if _, isBatch := reply.(wire.Batch); isBatch {
		t.Fatal("single reply must not pay the batch envelope")
	}
	if reply.(wire.BaselineReadAck).Attempt != 0 {
		t.Fatalf("wrong reply: %+v", reply)
	}
	if _, ok := h.Handle(transport.Reader(0), wire.Batch{Ops: []wire.Msg{wire.BaselineReadReq{Attempt: 9}}}); ok {
		t.Fatal("all-silent batch must produce no reply")
	}
}

func TestFlushShipsPendingImmediately(t *testing.T) {
	inner := newFakeConn()
	c := NewConn(inner, Options{FlushWindow: time.Hour, MaxBatch: 64, ActivationOps: AlwaysCoalesce})
	c.Send(transport.Object(0), wire.BaselineReadReq{Attempt: 0})
	c.Send(transport.Object(1), wire.BaselineReadReq{Attempt: 1})
	if len(inner.frames()) != 0 {
		t.Fatal("nothing should ship before the window")
	}
	c.Flush()
	if got := len(inner.frames()); got != 2 {
		t.Fatalf("Flush must ship both destinations, got %d frames", got)
	}
}

func TestTimestampedProtocolValuesSurviveBatching(t *testing.T) {
	// End-to-end shape check: a PW round op batched alongside reads keeps
	// its payload intact through batch + encode + decode + unpack.
	w := types.WTuple{TSVal: types.TSVal{TS: 3, Val: types.Value("v3")}, TSR: types.NewTSRMatrix()}
	orig := wire.PWReq{TS: 3, PW: w.TSVal, W: w}
	frame, err := wire.EncodeCompact(wire.Batch{Ops: []wire.Msg{orig, wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.DecodeCompact(frame)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(wire.Batch).Ops[0].(wire.PWReq)
	if got.TS != orig.TS || !got.PW.Equal(orig.PW) || !got.W.Equal(orig.W) {
		t.Fatalf("batched op mangled: %+v", got)
	}
}
