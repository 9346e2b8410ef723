package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Reader is the two-round reader client of both storages: the safe
// reader of Fig. 4 (NewSafeReader) and the regular reader of Fig. 6
// (NewRegularReader), the latter optionally with the §5.1 cached-suffix
// optimization.
//
// Both run the same two rounds. In round k the reader writes a fresh
// control timestamp into every object (READk⟨++tsr′_j⟩) and collects
// acknowledgements. Round 1 completes once a pairwise conflict-free
// subset of at least S−t responders exists; round 2 completes once some
// highest candidate is safe — vouched for by at least b+1 objects — or
// the candidate set has emptied (possible only under concurrency), in
// which case the initial value ⊥ is returned, which both semantics
// permit. Only the evidence differs: safe objects reply with their pw
// and w fields (safeReadState), regular objects with their write
// history (Fig. 5), or under §5.1 with the suffix at or above the
// reader's cached timestamp (regularReadState).
//
// Reader is not safe for concurrent use; each reader process invokes
// one READ at a time (its identity is baked into the tsr[j] fields).
type Reader struct {
	client
	id types.ReaderID

	regular   bool // Fig. 6 evidence (histories) rather than Fig. 4's
	optimized bool // §5.1: request suffixes above cache.TS, return the cache on an empty C
	fastPath  bool

	tsr   types.ReaderTS // tsr′_j, persists across READs
	cache types.TSVal    // §5.1: last returned pair (⟨0,⊥⟩ initially), shared with the ack it came from
}

// NewSafeReader returns the safe storage's reader client (Fig. 4) with
// identity id.
func NewSafeReader(cfg quorum.Config, conn transport.Conn, id types.ReaderID) (*Reader, error) {
	return newReader(cfg, conn, id, false, false)
}

// NewRegularReader returns the regular storage's reader client (Fig. 6)
// with identity id. With optimized set, READ1/READ2 messages carry the
// reader's cached timestamp and objects reply with history suffixes
// (§5.1); when the candidate set is empty after a full second round the
// cached value is returned.
func NewRegularReader(cfg quorum.Config, conn transport.Conn, id types.ReaderID, optimized bool) (*Reader, error) {
	return newReader(cfg, conn, id, true, optimized)
}

func newReader(cfg quorum.Config, conn transport.Conn, id types.ReaderID, regular, optimized bool) (*Reader, error) {
	c, err := newClient(cfg, conn)
	if err != nil {
		return nil, err
	}
	if int(id) < 0 || int(id) >= cfg.R {
		return nil, fmt.Errorf("%w: reader id %d out of range [0,%d)", ErrBadConfig, id, cfg.R)
	}
	return &Reader{client: c, id: id, regular: regular, optimized: optimized, cache: types.InitTSVal()}, nil
}

// Cache returns the reader's cached pair (§5.1); ⟨0,⊥⟩ unless the
// reader is optimized.
func (r *Reader) Cache() types.TSVal { return r.cache.Clone() }

// SetFastPath enables the contention-free single-round fast path and,
// on the slow path, round-2 read repair. Off by default (the classic
// two-round protocol). See safeReadState.fastDecide and
// regularReadState.fastDecide for the decision predicates and their
// quorum-intersection safety arguments.
func (r *Reader) SetFastPath(on bool) { r.fastPath = on }

// Read performs one READ and returns the timestamp-value pair it
// selected.
func (r *Reader) Read(ctx context.Context) (types.TSVal, error) {
	start := time.Now()
	st := OpStats{Kind: OpRead}
	req := wire.ReadReq{Reader: r.id}
	if r.optimized {
		req.CacheTS = r.cache.TS
	}
	// The READ's bookkeeping is built here and never escapes this
	// frame, so neither it nor its maps go to the heap.
	var s readState
	if r.regular {
		s.reg = newRegularReadState(r.params.Cfg, r.id)
		s.reg.fast, s.reg.cacheTS = r.fastPath, req.CacheTS
	} else {
		s.safe = newSafeReadState(r.params.Cfg, r.id)
	}
	r.trace.OpStart(OpRead)

	if _, err := r.round(ctx, s, wire.Round1, req, &st); err != nil {
		return types.TSVal{}, err
	}
	// Fast path: with all S−t round-1 replies byte-identical,
	// timestamp-dominant, and conflict-free, decide now and skip
	// round 2 entirely (predicates argued at fastDecide).
	if r.fastPath {
		if ret, ok := s.fastDecide(); ok {
			r.trace.Ext(OpRead, EvFastRead, "")
			st.FastPath = true
			return r.finish(ret, st, start), nil
		}
	}
	ret, err := r.round(ctx, s, wire.Round2, req, &st)
	if err != nil {
		return types.TSVal{}, err
	}
	return r.finish(ret, st, start), nil
}

// round runs round k of a READ: send READk⟨++tsr′_j⟩ to every object,
// then absorb acknowledgements until round 1 is done (Fig. 4/6 line 11)
// or round 2 decides (line 14), returning round 2's decision. On the
// fast path's fallback, round 2 piggybacks the dominant b+1-vouched
// tuple when round 1 revealed divergence, so lagging replicas
// converge: read repair.
func (r *Reader) round(ctx context.Context, s readState, k wire.Round, req wire.ReadReq, st *OpStats) (types.TSVal, error) {
	r.tsr++
	r.trace.RoundStart(OpRead, int(k))
	s.base().begin(k, r.tsr)
	req.Round, req.TSR = k, r.tsr
	if k == wire.Round2 && r.fastPath {
		if hint, ok := s.repairHint(); ok {
			req.Repair = &hint
			r.trace.Ext(OpRead, EvRepair, fmt.Sprintf("ts=%d", hint.TSVal.TS))
		}
	}
	st.Sent += r.broadcast(req)
	st.Rounds++
	for {
		if ret, done := s.done(k, r.optimized); done {
			return ret, nil
		}
		msg, err := r.conn.Recv(ctx)
		if err != nil {
			return types.TSVal{}, fmt.Errorf("core: READ round %d (reader %d): %w", k, r.id, err)
		}
		if s.absorb(msg) {
			st.Acks++
			r.traceAck(msg)
		}
	}
}

// finish completes a READ that decided ret. It applies the §5.1 cache
// rule — a newer pair refreshes the cache, anything else (including
// the ⟨0,⊥⟩ of an emptied candidate set) returns the cache — which is a
// no-op unless the reader is optimized, then records the stats and
// traces the decision.
func (r *Reader) finish(ret types.TSVal, st OpStats, start time.Time) types.TSVal {
	if r.optimized {
		if ret.TS > r.cache.TS {
			r.cache = ret
		} else {
			ret = r.cache
		}
	}
	st.Duration = time.Since(start)
	r.stats = st
	r.trace.Decided(OpRead, ret.TS)
	return ret.Clone()
}

// traceAck reports an absorbed acknowledgement to the tracer.
func (r *Reader) traceAck(msg transport.Message) {
	switch ack := msg.Payload.(type) {
	case wire.ReadAck:
		r.trace.AckAccepted(OpRead, int(ack.Round), ack.ObjectID)
	case wire.ReadAckHist:
		r.trace.AckAccepted(OpRead, int(ack.Round), ack.ObjectID)
	}
}

// readState is one READ's bookkeeping: exactly one of safe (Fig. 4)
// and reg (Fig. 6) is set. It dispatches with a nil check rather than
// through an interface so that the concrete state stays on Read's
// stack.
type readState struct {
	safe *safeReadState
	reg  *regularReadState
}

func (s readState) base() *readBase {
	if s.safe != nil {
		return &s.safe.readBase
	}
	return &s.reg.readBase
}

func (s readState) absorb(msg transport.Message) bool {
	if s.safe != nil {
		return s.safe.absorb(msg)
	}
	return s.reg.absorb(msg)
}

func (s readState) fastDecide() (types.TSVal, bool) {
	if s.safe != nil {
		return s.safe.fastDecide()
	}
	return s.reg.fastDecide()
}

func (s readState) repairHint() (types.WTuple, bool) {
	if s.safe != nil {
		return s.safe.repairHint()
	}
	return s.reg.repairHint()
}

// done reports whether round k may end: round 1 once the line 11
// condition of Figs. 4 and 6 holds, round 2 once the line 14 condition
// decides the returned pair.
func (s readState) done(k wire.Round, optimized bool) (types.TSVal, bool) {
	switch {
	case k == wire.Round1 && s.safe != nil:
		return types.TSVal{}, s.safe.round1Done()
	case k == wire.Round1:
		return types.TSVal{}, s.reg.round1Done()
	case s.safe != nil:
		return s.safe.decide()
	default:
		return s.reg.decide(optimized)
	}
}

// readBase is the bookkeeping both readers keep alike: the
// configuration, the reader's identity j, the control timestamps of the
// READ's two rounds, and the round-1 responder set.
type readBase struct {
	cfg quorum.Config
	j   types.ReaderID

	tsrFR types.ReaderTS
	tsrSR types.ReaderTS // 0 until round 2 starts

	respFirst objSet // Resp1
}

// begin records the control timestamp round k sends.
func (b *readBase) begin(k wire.Round, tsr types.ReaderTS) {
	if k == wire.Round1 {
		b.tsrFR = tsr
	} else {
		b.tsrSR = tsr
	}
}

// round1Quorum is the round-1 completion rule of Figs. 4 and 6
// (line 11): among at least S−t round-1 responders, some S−t are
// pairwise conflict-free. conflicts builds the conflict graph over the
// current candidate set; it runs only once enough objects responded.
func (b *readBase) round1Quorum(conflicts func() *conflictGraph) bool {
	quorum := b.cfg.RoundQuorum()
	if len(b.respFirst) < quorum {
		return false
	}
	responders := make([]types.ObjectID, 0, len(b.respFirst))
	for id := range b.respFirst {
		responders = append(responders, id)
	}
	return conflicts().hasConflictFreeSubset(responders, quorum)
}

// acceptHeader is the header check both readers apply before absorbing
// an acknowledgement: the claimed object must be the authenticated
// sender and a valid index, and the echoed control timestamp must be
// this READ's for the ack's round (round 2's only once it started).
func (b *readBase) acceptHeader(from transport.NodeID, obj types.ObjectID, round wire.Round, tsr types.ReaderTS) bool {
	if !(Params{Cfg: b.cfg}).fromObject(from, obj) {
		return false
	}
	switch round {
	case wire.Round1:
		return tsr == b.tsrFR
	case wire.Round2:
		return b.tsrSR != 0 && tsr == b.tsrSR
	}
	return false // stale or mismatched control timestamp
}

// tsvalKey canonically encodes a timestamp-value pair for map keys.
func tsvalKey(tv types.TSVal) string {
	var buf bytes.Buffer
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(tv.TS))
	buf.Write(tmp[:])
	if tv.Val.IsBottom() {
		buf.WriteByte(0)
	} else {
		buf.WriteByte(1)
		buf.Write(tv.Val)
	}
	return buf.String()
}

// objSet is a set of object indices.
type objSet map[types.ObjectID]bool

func (s objSet) add(id types.ObjectID) { s[id] = true }
