package wire

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// sampleMsgs returns one well-formed instance of every message type.
func sampleMsgs() []Msg {
	w := types.WTuple{
		TSVal: types.TSVal{TS: 7, Val: types.Value("v7")},
		TSR:   types.TSRMatrix{0: types.TSRVector{1, 2}, 3: types.TSRVector{0, 5}},
	}
	h := types.NewHistory()
	h[7] = types.HistEntry{PW: w.TSVal.Clone(), W: &w}
	return []Msg{
		PWReq{TS: 7, PW: w.TSVal, W: w},
		PWAck{ObjectID: 2, TS: 7, TSR: types.TSRVector{3, 4}},
		WReq{TS: 7, PW: w.TSVal, W: w},
		WAck{ObjectID: 1, TS: 7},
		ReadReq{Round: Round2, Reader: 1, TSR: 9, CacheTS: 3, Repair: &w},
		ReadAck{ObjectID: 0, Round: Round1, TSR: 9, PW: w.TSVal, W: w},
		ReadAckHist{ObjectID: 4, Round: Round2, TSR: 10, History: h},
		BaselineWriteReq{TS: 3, Val: types.Value("x"), Sig: []byte{1, 2}},
		BaselineWriteAck{ObjectID: 5, TS: 3},
		BaselineReadReq{Attempt: 2, Reader: 0},
		BaselineReadAck{ObjectID: 5, Attempt: 2, TS: 3, Val: types.Value("x"), Sig: []byte{9}},
		PairsReadAck{ObjectID: 6, Attempt: 1, PW: w.TSVal, W: w.TSVal},
		SubscribeReq{Reader: 0, Seq: 11},
		PushState{ObjectID: 2, Seq: 11, TS: 7, Val: types.Value("p"), Echo: true},
		RegOp{Reg: "users/42", Op: 91, Msg: WAck{ObjectID: 1, TS: 7}},
		Batch{Ops: []Msg{
			RegOp{Reg: "a", Op: 92, Msg: PWReq{TS: 7, PW: w.TSVal, W: w}},
			RegOp{Reg: "b", Msg: ReadReq{Round: Round1, Reader: 1, TSR: 9}},
			WAck{ObjectID: 1, TS: 7},
		}},
		Epoch{Inc: 3, Msg: RegOp{Reg: "users/42", Op: 93, Msg: WAck{ObjectID: 1, TS: 7}}},
		Busy{Msg: Batch{Ops: []Msg{
			RegOp{Reg: "a", Op: 94, Msg: PWReq{TS: 7, PW: w.TSVal, W: w}},
			RegOp{Reg: "b", Msg: ReadReq{Round: Round1, Reader: 1, TSR: 9}},
		}}},
		StateReq{Seq: 12, Requester: 2},
		StateResp{ObjectID: 3, Seq: 12, Incarnation: 2, Regs: []RegState{
			{Reg: "users/42", TS: 7, History: h, TSR: types.TSRVector{1, 0}},
			{Reg: "empty", History: types.NewHistory(), TSR: types.NewTSRVector(2)},
		}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		data, err := EncodeCompact(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		back, err := DecodeCompact(data)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if reflect.TypeOf(back) != reflect.TypeOf(m) {
			t.Fatalf("round-trip changed type: %T → %T", m, back)
		}
	}
}

func TestRoundTripPreservesPayloads(t *testing.T) {
	orig := sampleMsgs()[5].(ReadAck)
	data, err := EncodeCompact(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCompact(data)
	if err != nil {
		t.Fatal(err)
	}
	got := back.(ReadAck)
	if got.ObjectID != orig.ObjectID || got.Round != orig.Round || got.TSR != orig.TSR {
		t.Errorf("scalar fields changed: %+v vs %+v", got, orig)
	}
	if !got.PW.Equal(orig.PW) || !got.W.Equal(orig.W) {
		t.Errorf("payload fields changed: %+v vs %+v", got, orig)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeCompact([]byte("not a frame")); err == nil {
		t.Error("garbage must not decode")
	}
	if _, err := DecodeCompact(nil); err == nil {
		t.Error("empty input must not decode")
	}
}

func TestEncodedSizePositive(t *testing.T) {
	for _, m := range sampleMsgs() {
		if n := CompactSize(m); n <= 0 || n == math.MaxInt {
			t.Errorf("CompactSize(%T) = %d, want a positive size", m, n)
		}
	}
}

func TestEncodedSizeGrowsWithHistory(t *testing.T) {
	small := types.NewHistory()
	big := types.NewHistory()
	for ts := types.TS(1); ts <= 50; ts++ {
		w := types.WTuple{TSVal: types.TSVal{TS: ts, Val: types.Value("12345678")}, TSR: types.NewTSRMatrix()}
		big[ts] = types.HistEntry{PW: w.TSVal, W: &w}
	}
	a := CompactSize(ReadAckHist{History: small})
	b := CompactSize(ReadAckHist{History: big})
	if b <= a {
		t.Errorf("50-entry history (%dB) must encode larger than initial (%dB)", b, a)
	}
}

func TestQuickBaselineRoundTrip(t *testing.T) {
	f := func(ts int64, val []byte, sig []byte, id uint8) bool {
		m := BaselineReadAck{
			ObjectID: types.ObjectID(id % 16),
			TS:       types.TS(ts),
			Val:      append(types.Value(nil), val...),
			Sig:      append([]byte(nil), sig...),
		}
		data, err := EncodeCompact(m)
		if err != nil {
			return false
		}
		back, err := DecodeCompact(data)
		if err != nil {
			return false
		}
		got, ok := back.(BaselineReadAck)
		if !ok || got.ObjectID != m.ObjectID || got.TS != m.TS {
			return false
		}
		return got.Val.Equal(m.Val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickReadReqRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		m := ReadReq{
			Round:   Round(1 + rng.Intn(2)),
			Reader:  types.ReaderID(rng.Intn(8)),
			TSR:     types.ReaderTS(rng.Int63n(1 << 40)),
			CacheTS: types.TS(rng.Int63n(1 << 40)),
		}
		data, err := EncodeCompact(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeCompact(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.(ReadReq) != m {
			t.Fatalf("round-trip mismatch: %+v vs %+v", back, m)
		}
	}
}
