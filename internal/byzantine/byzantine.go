// Package byzantine implements malicious base-object behaviours for the
// safe and regular protocols: the state forgers of the Proposition 1
// proof, high-timestamp fabricators, equivocators that present a
// candidate in one round and deny it in the next, stale replayers that
// hide writes, accusers that flood the conflict relation, and mutes.
//
// A malicious object in the data-centric model is just an arbitrary
// request-reply handler; no transport support is needed. Every strategy
// here wraps an honest inner object so it can lie consistently about a
// plausible state — the strongest adversaries know the real protocol
// state and distort it, rather than emitting noise.
package byzantine

import (
	"sync"

	"repro/internal/object"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Mute never replies to anything: a Byzantine object indistinguishable
// from a crashed one.
type Mute struct{}

// Handle drops every request.
func (Mute) Handle(transport.NodeID, wire.Msg) (wire.Msg, bool) { return nil, false }

// ForgeTuple builds a fabricated candidate tuple at the given timestamp
// and value. The accuse map seeds the embedded tsrarray: for each
// accused object index, the matrix claims that object reported reader
// timestamp tsr for reader j — the forgery the conflict predicate is
// designed to catch.
func ForgeTuple(ts types.TS, val types.Value, readers int, j types.ReaderID, tsr types.ReaderTS, accuse []types.ObjectID) types.WTuple {
	m := types.NewTSRMatrix()
	for _, id := range accuse {
		vec := make(types.TSRVector, readers)
		for k := range vec {
			vec[k] = 0
		}
		if int(j) >= 0 && int(j) < readers {
			vec[j] = tsr
		}
		m[id] = vec
	}
	return types.WTuple{TSVal: types.TSVal{TS: ts, Val: val.Clone()}, TSR: m}
}

// SafeHighForger runs the honest safe-object protocol for writer
// traffic, but answers every READ with a fabricated tuple at a
// timestamp far above anything written, trying to make the reader
// return a never-written value. Optionally it accuses objects in the
// forged matrix to poison the conflict graph.
type SafeHighForger struct {
	mu     sync.Mutex
	inner  *object.Safe
	id     types.ObjectID
	boost  types.TS
	val    types.Value
	accuse []types.ObjectID
	rdrs   int
}

// NewSafeHighForger wraps object id with readers reader slots; forged
// candidates sit boost timestamps above the object's real state and
// carry val.
func NewSafeHighForger(id types.ObjectID, readers int, boost types.TS, val types.Value, accuse []types.ObjectID) *SafeHighForger {
	return &SafeHighForger{
		inner:  object.NewSafe(id, readers),
		id:     id,
		boost:  boost,
		val:    val.Clone(),
		accuse: append([]types.ObjectID(nil), accuse...),
		rdrs:   readers,
	}
}

// Handle forwards writer traffic to the honest automaton and forges
// read replies.
func (f *SafeHighForger) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, isRead := req.(wire.ReadReq)
	if !isRead {
		return f.inner.Handle(from, req)
	}
	// Let the honest automaton update tsr[j] so later rounds still get
	// replies, then distort the payload.
	reply, ok := f.inner.Handle(from, req)
	if !ok {
		return nil, false
	}
	ack := reply.(wire.ReadAck)
	forged := ForgeTuple(ack.W.TSVal.TS+f.boost, f.val, f.rdrs, m.Reader, m.TSR+1, f.accuse)
	ack.W = forged
	ack.PW = forged.TSVal
	return ack, true
}

// SafeEquivocator reports a forged candidate in the first read round
// and its honest state in the second: the pattern that makes naive
// candidate counting unsound and that the RespondedWO/safe counting
// rules neutralize.
type SafeEquivocator struct {
	mu    sync.Mutex
	inner *object.Safe
	id    types.ObjectID
	boost types.TS
	val   types.Value
	rdrs  int
}

// NewSafeEquivocator wraps object id.
func NewSafeEquivocator(id types.ObjectID, readers int, boost types.TS, val types.Value) *SafeEquivocator {
	return &SafeEquivocator{inner: object.NewSafe(id, readers), id: id, boost: boost, val: val.Clone(), rdrs: readers}
}

// Handle lies in round 1, tells the truth otherwise.
func (f *SafeEquivocator) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, isRead := req.(wire.ReadReq)
	reply, ok := f.inner.Handle(from, req)
	if !isRead || !ok {
		return reply, ok
	}
	if m.Round != wire.Round1 {
		return reply, ok
	}
	ack := reply.(wire.ReadAck)
	forged := ForgeTuple(ack.W.TSVal.TS+f.boost, f.val, f.rdrs, m.Reader, m.TSR+1, nil)
	ack.W = forged
	ack.PW = forged.TSVal
	return ack, true
}

// SafeStale applies writer traffic honestly (and acks it) but answers
// every READ with the initial state, hiding all writes — the attack
// that bounds how few confirmations a reader may accept.
type SafeStale struct {
	mu    sync.Mutex
	inner *object.Safe
	id    types.ObjectID
}

// NewSafeStale wraps object id.
func NewSafeStale(id types.ObjectID, readers int) *SafeStale {
	return &SafeStale{inner: object.NewSafe(id, readers), id: id}
}

// Handle hides all writes from readers.
func (f *SafeStale) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, isRead := req.(wire.ReadReq)
	reply, ok := f.inner.Handle(from, req)
	if !isRead || !ok {
		return reply, ok
	}
	ack := reply.(wire.ReadAck)
	ack.PW = types.InitTSVal()
	ack.W = types.InitWTuple()
	return ack, true
}

// SafeAccuser answers reads with a forged candidate whose matrix
// accuses the configured objects of having reported an impossibly high
// reader timestamp, poisoning the conflict graph to delay round 1.
type SafeAccuser struct {
	mu     sync.Mutex
	inner  *object.Safe
	id     types.ObjectID
	accuse []types.ObjectID
	rdrs   int
}

// NewSafeAccuser wraps object id; accuse lists the victims.
func NewSafeAccuser(id types.ObjectID, readers int, accuse []types.ObjectID) *SafeAccuser {
	return &SafeAccuser{inner: object.NewSafe(id, readers), id: id, accuse: append([]types.ObjectID(nil), accuse...), rdrs: readers}
}

// Handle forges accusing candidates on round-1 reads.
func (f *SafeAccuser) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, isRead := req.(wire.ReadReq)
	reply, ok := f.inner.Handle(from, req)
	if !isRead || !ok || m.Round != wire.Round1 {
		return reply, ok
	}
	ack := reply.(wire.ReadAck)
	forged := ForgeTuple(ack.W.TSVal.TS, ack.W.TSVal.Val, f.rdrs, m.Reader, m.TSR+1, f.accuse)
	ack.W = forged
	return ack, true
}

// Scripted delegates each request to a user function receiving the
// request index; nil behaviours fall through to the honest automaton.
// It is the general hook for hand-built adversaries such as the
// Proposition 1 runs.
type Scripted struct {
	mu    sync.Mutex
	inner transport.Handler
	fn    func(step int, from transport.NodeID, req wire.Msg, honest transport.Handler) (wire.Msg, bool, bool)
	step  int
}

// NewScripted wraps honest with script fn. fn returns (reply, ok,
// handled); handled=false delegates to the honest automaton.
func NewScripted(honest transport.Handler, fn func(step int, from transport.NodeID, req wire.Msg, honest transport.Handler) (wire.Msg, bool, bool)) *Scripted {
	return &Scripted{inner: honest, fn: fn}
}

// Handle runs the script.
func (s *Scripted) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	step := s.step
	s.step++
	if s.fn != nil {
		if reply, ok, handled := s.fn(step, from, req, s.inner); handled {
			return reply, ok
		}
	}
	return s.inner.Handle(from, req)
}
