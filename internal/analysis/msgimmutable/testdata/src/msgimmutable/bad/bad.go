// Package bad writes through references reachable from messages: a
// handler editing its request, a forger editing the history map of an
// ack its honest inner object built, and helpers that take message parts
// as parameters and edit them in place.
package bad

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

type ReadReq struct {
	Reader int
	Repair *WTuple
}

type ReadAckHist struct {
	ID      int
	History History
}

type Batch struct{ Ops []Msg }

func (PWReq) isMsg()       {}
func (PWAck) isMsg()       {}
func (ReadReq) isMsg()     {}
func (ReadAckHist) isMsg() {}
func (Batch) isMsg()       {}

type Handler interface {
	Handle(req Msg) (Msg, bool)
}

type object struct {
	w   WTuple
	tsr TSRVector
}

// Handle writes into the request's value, TSR map and repair tuple.
func (o *object) Handle(req Msg) (Msg, bool) {
	switch m := req.(type) {
	case PWReq:
		m.Val[0] = 'x'     // want `write to m.Val\[0\] goes through m.Val`
		m.W.TSR[0] = nil   // want `write to m.W.TSR\[0\] goes through m.W.TSR`
		delete(m.W.TSR, 1) // want `delete into m.W.TSR`
		o.w = m.W
		return PWAck{ID: 1, TSR: o.tsr}, true
	case ReadReq:
		m.Repair.TS++ // want `write to m.Repair.TS goes through m.Repair`
	}
	return nil, false
}

type forger struct{ inner Handler }

// Handle splices a forged entry into the history its inner object
// shipped: that map shares entries with the object's own state.
func (f *forger) Handle(req Msg) (Msg, bool) {
	reply, ok := f.inner.Handle(req)
	if !ok {
		return reply, ok
	}
	ack := reply.(ReadAckHist)
	ack.History[99] = HistEntry{PW: 99} // want `write to ack.History\[99\] goes through ack.History`
	h := ack.History
	delete(h, 0) // want `delete into h`
	for _, e := range ack.History {
		e.W.TSR[0][0] = 7 // want `write to e.W.TSR\[0\]\[0\] goes through e.W.TSR\[0\]`
	}
	if e, ok := ack.History[1]; ok {
		e.W.TSR[2] = TSRVector{1} // want `write to e.W.TSR\[2\] goes through e.W.TSR`
	}
	return ack, true
}

func grow(b Batch, m Msg) Batch {
	b.Ops = append(b.Ops, m) // want `append to b.Ops`
	return b
}

func bump(v TSRVector) {
	v[0]++ // want `write to v\[0\] goes through v`
}

func wipe(m TSRMatrix) {
	clear(m) // want `clear into m`
}

func overwrite(ack PWAck, src TSRVector) {
	copy(ack.TSR, src) // want `copy into ack.TSR`
}

func viaPointer(t *WTuple) {
	*t = WTuple{} // want `write to \*t goes through t`
}

// poison collects shared entries into containers of its own, then
// writes through the entries.
func poison(acks []ReadAckHist) {
	var out []HistEntry
	for _, a := range acks {
		for _, e := range a.History {
			out = append(out, e)
		}
	}
	out[0].W.TS = 9 // want `write to out\[0\].W.TS goes through out\[0\].W`
	byTS := make(History)
	for _, a := range acks {
		for ts, e := range a.History {
			byTS[ts] = e
		}
	}
	byTS[0].W.TSR[1] = nil // want `write to byTS\[0\].W.TSR\[1\] goes through byTS\[0\].W.TSR`
}
