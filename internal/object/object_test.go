package object

import (
	"reflect"
	"testing"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

func pw(ts types.TS, v string, w types.WTuple) wire.PWReq {
	return wire.PWReq{TS: ts, PW: types.TSVal{TS: ts, Val: types.Value(v)}, W: w}
}

func wreq(ts types.TS, v string, m types.TSRMatrix) wire.WReq {
	pair := types.TSVal{TS: ts, Val: types.Value(v)}
	return wire.WReq{TS: ts, PW: pair, W: types.WTuple{TSVal: pair, TSR: m}}
}

var anyNode = transport.Writer()

func TestSafeAdoptsNewerPW(t *testing.T) {
	o := NewSafe(0, 1)
	reply, ok := o.Handle(anyNode, pw(1, "a", types.InitWTuple()))
	if !ok {
		t.Fatal("fresh PW must be acknowledged")
	}
	ack := reply.(wire.PWAck)
	if ack.TS != 1 || len(ack.TSR) != 1 || ack.TSR[0] != 0 {
		t.Errorf("PW ack = %+v", ack)
	}
	snap := o.Snapshot()
	if snap.TS != 1 || !snap.PW.Val.Equal(types.Value("a")) {
		t.Errorf("state after PW: %+v", snap)
	}
}

func TestSafeRejectsStalePW(t *testing.T) {
	o := NewSafe(0, 1)
	o.Handle(anyNode, pw(5, "new", types.InitWTuple()))
	if _, ok := o.Handle(anyNode, pw(3, "old", types.InitWTuple())); ok {
		t.Error("stale PW (ts′ ≤ ts) must be silently ignored per Fig. 3")
	}
	if snap := o.Snapshot(); snap.TS != 5 {
		t.Errorf("state regressed to %d", snap.TS)
	}
}

func TestSafeWAcceptsEqualTS(t *testing.T) {
	// Fig. 3: W uses ts′ ≥ ts (the same write's W follows its PW).
	o := NewSafe(0, 1)
	o.Handle(anyNode, pw(2, "v", types.InitWTuple()))
	if _, ok := o.Handle(anyNode, wreq(2, "v", types.NewTSRMatrix())); !ok {
		t.Error("W with ts′ = ts must be accepted")
	}
	if _, ok := o.Handle(anyNode, wreq(1, "old", types.NewTSRMatrix())); ok {
		t.Error("W with ts′ < ts must be ignored")
	}
}

func TestSafeReadStoresReaderTimestamp(t *testing.T) {
	o := NewSafe(0, 2)
	reply, ok := o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 1, TSR: 7})
	if !ok {
		t.Fatal("fresh READ must be acknowledged")
	}
	ack := reply.(wire.ReadAck)
	if ack.TSR != 7 || ack.Round != wire.Round1 {
		t.Errorf("ack = %+v", ack)
	}
	if snap := o.Snapshot(); snap.TSR[1] != 7 || snap.TSR[0] != 0 {
		t.Errorf("tsr = %v", snap.TSR)
	}
	// Stale and duplicate reader timestamps are ignored.
	if _, ok := o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 1, TSR: 7}); ok {
		t.Error("equal tsr must be ignored (tsr′ > tsr[j] guard)")
	}
	if _, ok := o.Handle(anyNode, wire.ReadReq{Round: wire.Round2, Reader: 1, TSR: 5}); ok {
		t.Error("lower tsr must be ignored")
	}
	// Out-of-range reader IDs are Byzantine payloads: no reply.
	if _, ok := o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 9, TSR: 1}); ok {
		t.Error("out-of-range reader must be ignored")
	}
}

// TestSafeAcksShareTuplesCopyTSR pins the object side of the message
// contract: installed tuples are the request's own (no copy on install,
// none on the read ack), while the PW ack's tsr vector is a copy,
// because reads keep writing tsr in place after the ack has left.
func TestSafeAcksShareTuplesCopyTSR(t *testing.T) {
	o := NewSafe(0, 1)
	req := pw(1, "abc", types.WTuple{TSVal: types.TSVal{TS: 0}, TSR: types.TSRMatrix{0: {0}}})
	reply, _ := o.Handle(anyNode, req)
	pwAck := reply.(wire.PWAck)
	reply, _ = o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 5})
	ack := reply.(wire.ReadAck)
	if &ack.PW.Val[0] != &req.PW.Val[0] {
		t.Error("read ack must carry the installed pw as it is, not a copy")
	}
	if reflect.ValueOf(ack.W.TSR).Pointer() != reflect.ValueOf(req.W.TSR).Pointer() {
		t.Error("read ack must carry the installed w as it is, not a copy")
	}
	if pwAck.TSR[0] != 0 {
		t.Errorf("PW ack tsr changed to %v by a later read: it must be a copy", pwAck.TSR)
	}
}

func TestSafeSnapshotRestore(t *testing.T) {
	o := NewSafe(0, 1)
	o.Handle(anyNode, pw(3, "x", types.InitWTuple()))
	snap := o.Snapshot()
	o.Handle(anyNode, pw(9, "y", types.InitWTuple()))
	o.Restore(snap)
	if got := o.Snapshot(); got.TS != 3 || !got.PW.Val.Equal(types.Value("x")) {
		t.Errorf("restore failed: %+v", got)
	}
}

func TestRegularBuildsHistory(t *testing.T) {
	o := NewRegular(0, 1)
	// Write 1: PW then W.
	o.Handle(anyNode, pw(1, "a", types.InitWTuple()))
	m1 := types.TSRMatrix{0: types.TSRVector{0}}
	o.Handle(anyNode, wreq(1, "a", m1))
	// Write 2: PW carries write 1's complete tuple.
	w1 := types.WTuple{TSVal: types.TSVal{TS: 1, Val: types.Value("a")}, TSR: m1}
	o.Handle(anyNode, wire.PWReq{TS: 2, PW: types.TSVal{TS: 2, Val: types.Value("b")}, W: w1})

	snap := o.Snapshot()
	if len(snap.History) != 3 { // ts 0, 1, 2
		t.Fatalf("history has %d entries, want 3: %v", len(snap.History), snap.History.Timestamps())
	}
	e1 := snap.History[1]
	if e1.W == nil || !e1.W.Equal(w1) {
		t.Errorf("history[1].w = %v, want the complete tuple", e1.W)
	}
	e2 := snap.History[2]
	if e2.W != nil || !e2.PW.Val.Equal(types.Value("b")) {
		t.Errorf("history[2] = %+v, want ⟨pw2, nil⟩ until the W round", e2)
	}
}

func TestRegularPWFillsSkippedSlot(t *testing.T) {
	// An object that missed write 1 entirely learns its tuple from
	// write 2's PW message (the §5 prose behaviour).
	o := NewRegular(0, 1)
	w1 := types.WTuple{TSVal: types.TSVal{TS: 1, Val: types.Value("a")}, TSR: types.NewTSRMatrix()}
	o.Handle(anyNode, wire.PWReq{TS: 2, PW: types.TSVal{TS: 2, Val: types.Value("b")}, W: w1})
	snap := o.Snapshot()
	if e, ok := snap.History[1]; !ok || e.W == nil || !e.W.Equal(w1) {
		t.Errorf("history[1] not backfilled: %+v", snap.History)
	}
}

func TestRegularReadShipsSuffix(t *testing.T) {
	o := NewRegular(0, 1)
	for ts := types.TS(1); ts <= 5; ts++ {
		o.Handle(anyNode, pw(ts, "v", types.InitWTuple()))
		o.Handle(anyNode, wreq(ts, "v", types.NewTSRMatrix()))
	}
	reply, ok := o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1, CacheTS: 3})
	if !ok {
		t.Fatal("read must be acknowledged")
	}
	h := reply.(wire.ReadAckHist).History
	if _, has2 := h[2]; has2 {
		t.Error("suffix must omit entries below CacheTS")
	}
	for ts := types.TS(3); ts <= 5; ts++ {
		if _, ok := h[ts]; !ok {
			t.Errorf("suffix missing ts %d", ts)
		}
	}
}

func TestRegularGCPrunesBelowWatermark(t *testing.T) {
	o := NewRegular(0, 2)
	o.EnableGC()
	for ts := types.TS(1); ts <= 10; ts++ {
		o.Handle(anyNode, pw(ts, "v", types.InitWTuple()))
		o.Handle(anyNode, wreq(ts, "v", types.NewTSRMatrix()))
	}
	// Reader 0 acknowledges cache ts 8; reader 1 is still at 0 — no
	// pruning below the minimum.
	o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1, CacheTS: 8})
	if got := o.HistoryLen(); got != 11 {
		t.Fatalf("history pruned below the min watermark: %d entries", got)
	}
	// Reader 1 catches up: everything below 8 can go.
	o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 1, TSR: 1, CacheTS: 8})
	if got := o.HistoryLen(); got != 3 { // ts 8, 9, 10
		t.Fatalf("history after GC = %d entries, want 3", got)
	}
	// The newest entry always survives, even above every watermark.
	o.Handle(anyNode, wire.ReadReq{Round: wire.Round2, Reader: 0, TSR: 2, CacheTS: 99})
	o.Handle(anyNode, wire.ReadReq{Round: wire.Round2, Reader: 1, TSR: 2, CacheTS: 99})
	if got := o.HistoryLen(); got != 1 {
		t.Fatalf("history = %d entries, want just the newest", got)
	}
}

func TestRegularNoGCByDefault(t *testing.T) {
	o := NewRegular(0, 1)
	for ts := types.TS(1); ts <= 10; ts++ {
		o.Handle(anyNode, pw(ts, "v", types.InitWTuple()))
		o.Handle(anyNode, wreq(ts, "v", types.NewTSRMatrix()))
	}
	o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1, CacheTS: 9})
	if got := o.HistoryLen(); got != 11 {
		t.Errorf("history = %d entries, want 11 (GC off)", got)
	}
}

func TestRegularStaleWriterTraffic(t *testing.T) {
	o := NewRegular(0, 1)
	o.Handle(anyNode, pw(5, "new", types.InitWTuple()))
	if _, ok := o.Handle(anyNode, pw(3, "old", types.InitWTuple())); ok {
		t.Error("stale PW must be ignored")
	}
	if _, ok := o.Handle(anyNode, wreq(4, "old", types.NewTSRMatrix())); ok {
		t.Error("stale W must be ignored")
	}
	if _, ok := o.Handle(anyNode, wreq(5, "new", types.NewTSRMatrix())); !ok {
		t.Error("W with equal ts must be accepted")
	}
}
