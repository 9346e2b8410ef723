package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/types"
)

func configFixtures() []Msg {
	return []Msg{
		ConfigEpoch{Epoch: 3, Msg: RegOp{Reg: "users/42", Msg: WReq{TS: 7, PW: types.TSVal{TS: 7, Val: types.Value("v")}, W: types.InitWTuple()}}},
		ConfigEpoch{Epoch: 0, Msg: Epoch{Inc: 2, Msg: RegOp{Reg: "r", Msg: WAck{ObjectID: 1, TS: 7}}}},
		ConfigUpdate{Shard: 1, Epoch: 4, Members: []int64{0, 9, 2, 3}, Sig: []byte{0xde, 0xad, 0xbe, 0xef}},
		ConfigUpdate{}, // zero value round-trips too
	}
}

// TestConfigFramesRoundTripBothCodecs: the membership frames survive
// the compact codec, both its allocating and its appending encoder,
// byte-for-byte.
func TestConfigFramesRoundTripBothCodecs(t *testing.T) {
	for _, m := range configFixtures() {
		compact, err := EncodeCompact(m)
		if err != nil {
			t.Fatalf("compact encode %T: %v", m, err)
		}
		appended, err := AppendCompact([]byte{0xAB}, m)
		if err != nil {
			t.Fatalf("compact append %T: %v", m, err)
		}
		if !bytes.Equal(appended[1:], compact) {
			t.Fatalf("%T: AppendCompact wrote % x, EncodeCompact % x", m, appended[1:], compact)
		}
		back, err := DecodeCompact(compact)
		if err != nil {
			t.Fatalf("compact decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(back)) {
			t.Fatalf("compact round trip of %#v yielded %#v", m, back)
		}
	}
}

// normalize maps nil and empty slices onto one form: the codecs may
// decode an absent list as empty rather than nil, which is semantically
// identical for these frames.
func normalize(m Msg) Msg {
	cu, ok := m.(ConfigUpdate)
	if !ok {
		return m
	}
	if len(cu.Members) == 0 {
		cu.Members = nil
	}
	if len(cu.Sig) == 0 {
		cu.Sig = nil
	}
	return cu
}

// TestConfigFrameClone: ConfigUpdate.Clone shares no backing arrays,
// so the membership layer can hand a redirect out and keep its own.
func TestConfigFrameClone(t *testing.T) {
	cu := ConfigUpdate{Shard: 0, Epoch: 1, Members: []int64{0, 5, 2}, Sig: []byte{1, 2, 3}}
	cloned := cu.Clone()
	cloned.Members[0] = 99
	cloned.Sig[0] = 99
	if cu.Members[0] == 99 || cu.Sig[0] == 99 {
		t.Fatal("Clone aliased the update's slices")
	}
}

// TestConfigEpochFullReplyNesting: the deepest legitimate frame — a
// Batch of config-stamped, incarnation-stamped register acks — decodes
// within the nesting cap on the compact codec.
func TestConfigEpochFullReplyNesting(t *testing.T) {
	reply := Batch{Ops: []Msg{
		ConfigEpoch{Epoch: 1, Msg: Epoch{Inc: 2, Msg: RegOp{Reg: "a", Msg: WAck{ObjectID: 0, TS: 3}}}},
		ConfigEpoch{Epoch: 1, Msg: Epoch{Inc: 2, Msg: RegOp{Reg: "b", Msg: WAck{ObjectID: 0, TS: 4}}}},
	}}
	data, err := EncodeCompact(reply)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCompact(data)
	if err != nil {
		t.Fatalf("full reply nesting rejected: %v", err)
	}
	if !reflect.DeepEqual(reply, back) {
		t.Fatalf("nested reply mutated in flight:\n%#v\n%#v", reply, back)
	}
}

// TestConfigUpdateDecodeRejectsBogusLength: a member-list count larger
// than the remaining frame must be rejected before allocation.
func TestConfigUpdateDecodeRejectsBogusLength(t *testing.T) {
	data, err := EncodeCompact(ConfigUpdate{Epoch: 1, Members: []int64{1}, Sig: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	// Truncate: the declared lengths now exceed the frame.
	for cut := 1; cut < len(data); cut++ {
		if _, err := DecodeCompact(data[:cut]); err == nil {
			t.Fatalf("truncated frame (len %d of %d) decoded", cut, len(data))
		}
	}
}
