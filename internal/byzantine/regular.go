package byzantine

import (
	"sync"

	"repro/internal/object"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// RegularHighForger runs the honest regular-object protocol for writer
// traffic, but splices a fabricated high-timestamp entry into every
// read reply's history, trying to make the reader return a
// never-written value.
type RegularHighForger struct {
	mu    sync.Mutex
	inner *object.Regular
	id    types.ObjectID
	boost types.TS
	val   types.Value
	rdrs  int
}

// NewRegularHighForger wraps object id; forged entries sit boost
// timestamps above the newest real entry and carry val.
func NewRegularHighForger(id types.ObjectID, readers int, boost types.TS, val types.Value) *RegularHighForger {
	return &RegularHighForger{inner: object.NewRegular(id, readers), id: id, boost: boost, val: val.Clone(), rdrs: readers}
}

// Handle forges history entries on reads.
func (f *RegularHighForger) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, isRead := req.(wire.ReadReq)
	reply, ok := f.inner.Handle(from, req)
	if !isRead || !ok {
		return reply, ok
	}
	ack := reply.(wire.ReadAckHist)
	ts := ack.History.MaxTS() + f.boost
	forged := ForgeTuple(ts, f.val, f.rdrs, m.Reader, m.TSR+1, nil)
	ack.History = withEntry(ack.History, ts, types.HistEntry{PW: forged.TSVal, W: &forged})
	return ack, true
}

// RegularEquivocator splices a fabricated entry into round-1 read
// replies only, denying it in round 2.
type RegularEquivocator struct {
	mu    sync.Mutex
	inner *object.Regular
	id    types.ObjectID
	boost types.TS
	val   types.Value
	rdrs  int
}

// NewRegularEquivocator wraps object id.
func NewRegularEquivocator(id types.ObjectID, readers int, boost types.TS, val types.Value) *RegularEquivocator {
	return &RegularEquivocator{inner: object.NewRegular(id, readers), id: id, boost: boost, val: val.Clone(), rdrs: readers}
}

// Handle lies in round 1 only.
func (f *RegularEquivocator) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, isRead := req.(wire.ReadReq)
	reply, ok := f.inner.Handle(from, req)
	if !isRead || !ok || m.Round != wire.Round1 {
		return reply, ok
	}
	ack := reply.(wire.ReadAckHist)
	ts := ack.History.MaxTS() + f.boost
	forged := ForgeTuple(ts, f.val, f.rdrs, m.Reader, m.TSR+1, nil)
	ack.History = withEntry(ack.History, ts, types.HistEntry{PW: forged.TSVal, W: &forged})
	return ack, true
}

// RegularStale acknowledges writer traffic but answers reads with the
// initial history only, hiding every write.
type RegularStale struct {
	mu    sync.Mutex
	inner *object.Regular
	id    types.ObjectID
}

// NewRegularStale wraps object id.
func NewRegularStale(id types.ObjectID, readers int) *RegularStale {
	return &RegularStale{inner: object.NewRegular(id, readers), id: id}
}

// Handle hides all writes from readers.
func (f *RegularStale) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, isRead := req.(wire.ReadReq)
	reply, ok := f.inner.Handle(from, req)
	if !isRead || !ok {
		return reply, ok
	}
	ack := reply.(wire.ReadAckHist)
	ack.History = types.NewHistory()
	return ack, true
}

// RegularOmitter answers reads with a history whose recent entries are
// deleted (the last omit entries), simulating an object that selectively
// un-remembers writes without forging anything.
type RegularOmitter struct {
	mu    sync.Mutex
	inner *object.Regular
	id    types.ObjectID
	omit  int
}

// NewRegularOmitter wraps object id; omit is how many of the newest
// entries to hide from readers.
func NewRegularOmitter(id types.ObjectID, readers, omit int) *RegularOmitter {
	return &RegularOmitter{inner: object.NewRegular(id, readers), id: id, omit: omit}
}

// Handle truncates the history tail in read replies.
func (f *RegularOmitter) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, isRead := req.(wire.ReadReq)
	reply, ok := f.inner.Handle(from, req)
	if !isRead || !ok {
		return reply, ok
	}
	ack := reply.(wire.ReadAckHist)
	tss := ack.History.Timestamps()
	keep := min(len(tss), max(len(tss)-f.omit, 1)) // always show the oldest entry
	h := make(types.History, keep)
	for _, ts := range tss[:keep] {
		h[ts] = ack.History[ts]
	}
	ack.History = h
	return ack, true
}

// withEntry returns a fresh history holding h's entries plus e at ts.
// h is part of a message the honest inner object built, and messages
// are immutable once sent: a forger builds its lie next to it.
func withEntry(h types.History, ts types.TS, e types.HistEntry) types.History {
	out := make(types.History, len(h)+1)
	for k, v := range h {
		out[k] = v
	}
	out[ts] = e
	return out
}
