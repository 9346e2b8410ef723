// Package good follows the message contract: handlers install request
// parts by reference and replace their own state whole, a forger builds
// a fresh history around the shared entries, and everything a function
// allocates itself is its own to edit.
package good

type Msg interface{ isMsg() }

type TS int64
type Value []byte
type TSRVector []int64
type TSRMatrix map[int]TSRVector

type WTuple struct {
	TS  TS
	Val Value
	TSR TSRMatrix
}

type HistEntry struct {
	PW TS
	W  *WTuple
}

type History map[TS]HistEntry

type PWReq struct {
	TS  TS
	Val Value
	W   WTuple
}

type PWAck struct {
	ID  int
	TSR TSRVector
}

type ReadAckHist struct {
	ID      int
	History History
}

type Batch struct{ Ops []Msg }

func (PWReq) isMsg()       {}
func (PWAck) isMsg()       {}
func (ReadAckHist) isMsg() {}
func (Batch) isMsg()       {}

type Handler interface {
	Handle(req Msg) (Msg, bool)
}

type object struct {
	ts  TS
	w   WTuple
	tsr TSRVector
}

// Handle installs the request's tuple by reference. The object's own
// tsr is edited in place, so the ack carries a copy of it.
func (o *object) Handle(req Msg) (Msg, bool) {
	m, ok := req.(PWReq)
	if !ok {
		return nil, false
	}
	o.ts = m.TS
	o.w = m.W
	o.tsr[0]++
	out := make(TSRVector, len(o.tsr))
	copy(out, o.tsr)
	return PWAck{ID: 1, TSR: out}, true
}

type forger struct{ inner Handler }

// Handle ships a fresh history: the honest entries are shared, the
// map and the forged entry are its own.
func (f *forger) Handle(req Msg) (Msg, bool) {
	reply, ok := f.inner.Handle(req)
	if !ok {
		return reply, ok
	}
	ack := reply.(ReadAckHist)
	h := make(History, len(ack.History)+1)
	for ts, e := range ack.History {
		h[ts] = e
	}
	forged := WTuple{TS: 99, Val: Value("forged"), TSR: TSRMatrix{}}
	forged.TSR[1] = TSRVector{0, 5}
	h[99] = HistEntry{PW: 99, W: &forged}
	ack.History = h
	ack.ID = 3
	return ack, true
}

// literals edits only values it built from scratch.
func literals() Msg {
	vec := make(TSRVector, 3)
	vec[0] = 1
	m := TSRMatrix{}
	m[0] = vec
	b := Batch{}
	b.Ops = append(b.Ops, PWAck{ID: 1, TSR: vec})
	req := PWReq{TS: 1, Val: Value("v"), W: WTuple{TSR: m}}
	req.Val[0] = 'w'
	req.W.TSR[2] = vec
	return req
}

// edited copies a shared vector before changing it.
func edited(ack PWAck) TSRVector {
	v := append(TSRVector(nil), ack.TSR...)
	v[0] = 9
	return v
}

type tally struct {
	entry HistEntry
	n     int
}

// count tallies shared entries in a slice of its own: the slice's
// backing array is fresh, only the entries in it are shared.
func count(acks []ReadAckHist) []tally {
	var out []tally
	for _, a := range acks {
		for _, e := range a.History {
			out = append(out, tally{entry: e, n: 1})
		}
	}
	for i := range out {
		out[i].n++
	}
	return out
}
