package memnet_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/byzantine"
	"repro/internal/object"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/types"
	"repro/internal/wire"
)

type echo struct{ id types.ObjectID }

func (h echo) Handle(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	if m, ok := req.(wire.BaselineReadReq); ok {
		return wire.BaselineReadAck{ObjectID: h.id, Attempt: m.Attempt}, true
	}
	return nil, false
}

// silent never replies (exercises the no-reply handler path).
type silent struct{}

func (silent) Handle(transport.NodeID, wire.Msg) (wire.Msg, bool) { return nil, false }

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestRequestReply(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	if err := net.Serve(transport.Object(0), echo{0}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Register(transport.Reader(0))
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(transport.Object(0), wire.BaselineReadReq{Attempt: 1})
	m, err := conn.Recv(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.From != transport.Object(0) {
		t.Errorf("From = %v", m.From)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	if _, err := net.Register(transport.Reader(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register(transport.Reader(0)); err == nil {
		t.Error("duplicate Register must fail")
	}
	if err := net.Serve(transport.Object(0), echo{0}); err != nil {
		t.Fatal(err)
	}
	if err := net.Serve(transport.Object(0), echo{0}); err == nil {
		t.Error("duplicate Serve must fail")
	}
}

func TestBlockUnblockOrderPreserved(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	net.Serve(transport.Object(0), echo{0})
	conn, _ := net.Register(transport.Reader(0))
	net.Block(transport.Reader(0), transport.Object(0))
	for i := 1; i <= 5; i++ {
		conn.Send(transport.Object(0), wire.BaselineReadReq{Attempt: i})
	}
	// Nothing should arrive while blocked.
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := conn.Recv(short); err == nil {
		t.Fatal("received through a blocked link")
	}
	net.Unblock(transport.Reader(0), transport.Object(0))
	for i := 1; i <= 5; i++ {
		m, err := conn.Recv(ctx(t))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Payload.(wire.BaselineReadAck).Attempt; got != i {
			t.Fatalf("delivery %d has attempt %d: order not preserved", i, got)
		}
	}
}

func TestDropNext(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	net.Serve(transport.Object(0), echo{0})
	conn, _ := net.Register(transport.Reader(0))
	net.DropNext(transport.Reader(0), transport.Object(0), 2)
	for i := 1; i <= 3; i++ {
		conn.Send(transport.Object(0), wire.BaselineReadReq{Attempt: i})
	}
	m, err := conn.Recv(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Payload.(wire.BaselineReadAck).Attempt; got != 3 {
		t.Errorf("survivor attempt = %d, want 3", got)
	}
}

func TestCrashSilencesObject(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	net.Serve(transport.Object(0), echo{0})
	net.Serve(transport.Object(1), echo{1})
	conn, _ := net.Register(transport.Reader(0))
	net.Crash(transport.Object(0))
	if !net.Crashed(transport.Object(0)) {
		t.Error("Crashed must report true")
	}
	conn.Send(transport.Object(0), wire.BaselineReadReq{Attempt: 1})
	conn.Send(transport.Object(1), wire.BaselineReadReq{Attempt: 1})
	m, err := conn.Recv(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.From != transport.Object(1) {
		t.Errorf("reply from %v, want object1", m.From)
	}
}

func TestDelayDelivers(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	net.Serve(transport.Object(0), echo{0})
	net.SetDelay(func(_, _ transport.NodeID) time.Duration { return 5 * time.Millisecond })
	conn, _ := net.Register(transport.Reader(0))
	start := time.Now()
	conn.Send(transport.Object(0), wire.BaselineReadReq{Attempt: 1})
	if _, err := conn.Recv(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 10*time.Millisecond {
		t.Errorf("round trip %v, want ≥ 10ms (two delayed hops)", e)
	}
}

func TestTapSeesAllTraffic(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	var mu sync.Mutex
	count := 0
	net.AddTap(transport.TapFunc(func(_, _ transport.NodeID, _ wire.Msg) {
		mu.Lock()
		count++
		mu.Unlock()
	}))
	net.Serve(transport.Object(0), echo{0})
	conn, _ := net.Register(transport.Reader(0))
	conn.Send(transport.Object(0), wire.BaselineReadReq{Attempt: 1})
	if _, err := conn.Recv(ctx(t)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 2 { // request + reply
		t.Errorf("tap saw %d messages, want 2", count)
	}
}

func TestNoReplyHandler(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	net.Serve(transport.Object(0), silent{})
	conn, _ := net.Register(transport.Reader(0))
	conn.Send(transport.Object(0), wire.BaselineReadReq{Attempt: 1})
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := conn.Recv(short); err == nil {
		t.Error("silent handler must produce no reply")
	}
}

func TestRecvAfterClose(t *testing.T) {
	net := memnet.New()
	conn, _ := net.Register(transport.Reader(0))
	net.Close()
	if _, err := conn.Recv(context.Background()); err == nil {
		t.Error("Recv after Close must error")
	}
	// Sends after close are silently dropped (no panic).
	conn.Send(transport.Object(0), wire.BaselineReadReq{})
}

// TestSharedPayloadSurvivesByzantineReceiver: delivery does not copy,
// so one PWReq broadcast to S objects is the same value in all S
// handlers, one of them a Byzantine forger, and the history entries
// built from it are shared again by every read ack. Under the message
// contract nobody writes through any of it: concurrent readers see the
// honest entry intact everywhere, the forger's lie stays in its own
// replies, and the sender's request is unchanged. Run it with -race to
// catch a handler writing through the shared value.
func TestSharedPayloadSurvivesByzantineReceiver(t *testing.T) {
	const S, R = 4, 3
	const forger = S - 1
	net := memnet.New()
	defer net.Close()
	for i := 0; i < forger; i++ {
		net.Serve(transport.Object(types.ObjectID(i)), object.NewRegular(types.ObjectID(i), R))
	}
	net.Serve(transport.Object(forger), byzantine.NewRegularHighForger(forger, R, 100, types.Value("forged")))

	w, _ := net.Register(transport.Writer())
	prev := types.WTuple{TSVal: types.TSVal{TS: 0}, TSR: types.TSRMatrix{0: {0, 0, 0}}}
	req := wire.PWReq{TS: 1, PW: types.TSVal{TS: 1, Val: types.Value("v1")}, W: prev}
	for i := 0; i < S; i++ {
		w.Send(transport.Object(types.ObjectID(i)), req)
	}
	for i := 0; i < S; i++ {
		if _, err := w.Recv(ctx(t)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for j := 0; j < R; j++ {
		conn, err := net.Register(transport.Reader(types.ReaderID(j)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(j int, conn transport.Conn) {
			defer wg.Done()
			for i := 0; i < S; i++ {
				conn.Send(transport.Object(types.ObjectID(i)), wire.ReadReq{Round: wire.Round1, Reader: types.ReaderID(j), TSR: 1})
			}
			for n := 0; n < S; n++ {
				msg, err := conn.Recv(ctx(t))
				if err != nil {
					t.Error(err)
					return
				}
				ack := msg.Payload.(wire.ReadAckHist)
				if e := ack.History[1]; !e.PW.Equal(req.PW) {
					t.Errorf("reader %d: object %d shipped pw %v at ts 1, want %v", j, ack.ObjectID, e.PW, req.PW)
				}
				if e := ack.History[0]; e.W == nil || !e.W.Equal(prev) {
					t.Errorf("reader %d: object %d shipped w %v at ts 0, want %v", j, ack.ObjectID, e.W, prev)
				}
				forged := ack.History.MaxTS() > 1
				if forged != (ack.ObjectID == forger) {
					t.Errorf("reader %d: object %d forged=%v", j, ack.ObjectID, forged)
				}
			}
		}(j, conn)
	}
	wg.Wait()

	if !req.PW.Val.Equal(types.Value("v1")) || !req.W.TSR.Equal(types.TSRMatrix{0: {0, 0, 0}}) || len(req.W.TSR) != 1 {
		t.Errorf("sender's request changed in transit: %+v", req)
	}
}

func TestManyConcurrentClients(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	for i := 0; i < 4; i++ {
		net.Serve(transport.Object(types.ObjectID(i)), echo{types.ObjectID(i)})
	}
	var wg sync.WaitGroup
	for j := 0; j < 16; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			conn, err := net.Register(transport.Reader(types.ReaderID(j)))
			if err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < 50; k++ {
				conn.Send(transport.Object(types.ObjectID(k%4)), wire.BaselineReadReq{Attempt: k})
				if _, err := conn.Recv(ctx(t)); err != nil {
					t.Error(err)
					return
				}
			}
		}(j)
	}
	wg.Wait()
}
