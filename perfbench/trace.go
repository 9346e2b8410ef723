package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/store"
)

// tapRec is one captured message. done is set last, so analysis reads
// only records whose fields are complete.
type tapRec struct {
	at       int64 // nanoseconds since the repetition's base instant
	from, to transport.NodeID
	msg      wire.Msg
	done     atomic.Bool
}

// capture is the transport.Tap of one traced repetition: it appends to
// a preallocated buffer and does nothing else on the send path.
type capture struct {
	t0   time.Time
	recs []tapRec
	next atomic.Int64
	lost atomic.Int64
}

// OnMessage implements transport.Tap.
func (c *capture) OnMessage(from, to transport.NodeID, payload wire.Msg) {
	i := c.next.Add(1) - 1
	if i >= int64(len(c.recs)) {
		c.lost.Add(1)
		return
	}
	r := &c.recs[i]
	r.at = int64(time.Since(c.t0))
	r.from, r.to, r.msg = from, to, payload
	r.done.Store(true)
}

// tracer runs the traced repetitions: it arms a capture before each
// timed phase, observes telemetry after it, and folds the capture into
// per-layer sums once the store is closed.
type tracer struct {
	seed uint64
	live *capture
	sum  layerSample
}

// layerSample sums the per-layer counts and times of a run's traced
// repetitions.
type layerSample struct {
	reads, writes int
	metrics       store.Metrics

	preSendNs, preSendN        int64
	quorumNs, quorumN          int64
	decideReadNs, decideWrNs   int64
	matchedReads, matchedWr    int64
	readMsgs, writeMsgs        int64
	readBytes, writeBytes      int64
	histEntries, histReplies   int64
	handleNs, handleReqs       int64
	histLenMax                 int
	encodeNs, decodeNs, codecN int64

	snapshotMs       []float64
	events, eventOps int
}

// maxRoundsPerOp bounds the rounds one op may take when sizing the
// capture buffer (two protocol rounds, with room to spare).
const maxRoundsPerOp = 4

func (tr *tracer) arm(s *store.Store, t0 time.Time, ops int) {
	msgs := ops * maxRoundsPerOp * 2 * s.Config().S
	tr.live = &capture{t0: t0, recs: make([]tapRec, msgs)}
	s.AddTap(tr.live)
}

// observe prices the telemetry plane after the timed phase: the trace
// events recorded per op, and the cost of one registry snapshot.
func (tr *tracer) observe(s *store.Store, w workload) {
	if !w.telemetry {
		return
	}
	ls := &tr.sum
	for i := 0; i < 9; i++ {
		t := time.Now()
		_ = s.Telemetry()
		ls.snapshotMs = append(ls.snapshotMs, float64(time.Since(t))/1e6)
	}
	// The ring keeps the newest events. From the first op-begin it
	// holds, every event belongs to that op or a later one (or to no
	// op), so events over op-begins there is the rate at which ops
	// fill the ring: its length plus its evictions, per op.
	ev := s.Trace()
	for i, e := range ev {
		if e.Kind != obs.EvOpBegin {
			continue
		}
		for _, f := range ev[i:] {
			if f.Kind == obs.EvOpBegin {
				ls.eventOps++
			}
		}
		ls.events += len(ev) - i
		break
	}
}

// Round kinds: the writer's pre-write and write rounds, and a read round.
const (
	roundPW = iota + 1
	roundW
	roundRead
)

// roundKey names one protocol round: the client endpoint and register
// (which together fix the shard), the round kind, and the round's
// sequence number (the write timestamp for writer rounds, the reader
// timestamp for read rounds).
type roundKey struct {
	node transport.NodeID
	reg  string
	kind int
	seq  int64
}

type round struct {
	first   int64 // first request
	reqs    int
	replies []int64
	read    wire.Round
}

// quorumAt returns when the round's q-th reply was sent, or false.
func (r *round) quorumAt(q int) (int64, bool) {
	if r == nil || r.reqs == 0 || len(r.replies) < q {
		return 0, false
	}
	sort.Slice(r.replies, func(i, j int) bool { return r.replies[i] < r.replies[j] })
	return r.replies[q-1], true
}

// readOp is a captured read: its rounds in order.
type readOp struct {
	first  int64
	rounds []*round
}

// analyze folds the capture of one traced repetition into the run's
// per-layer sums. It runs after the store is closed.
func (tr *tracer) analyze(w workload, p *plan, s *store.Store, recs []record, delta store.Metrics) error {
	c := tr.live
	tr.live = nil
	if lost := c.lost.Load(); lost > 0 {
		return fmt.Errorf("trace capture overflowed: %d messages lost", lost)
	}
	msgs := c.recs[:c.next.Load()]
	ls := &tr.sum
	ls.metrics.Writes += delta.Writes
	ls.metrics.WriteRounds += delta.WriteRounds
	ls.metrics.Reads += delta.Reads
	ls.metrics.ReadRounds += delta.ReadRounds
	ls.metrics.FastReads += delta.FastReads
	cfg := s.Config()
	q := cfg.S - cfg.T

	// Group messages into rounds.
	rounds := make(map[roundKey]*round)
	for i := range msgs {
		m := &msgs[i]
		if !m.done.Load() {
			continue
		}
		ro, ok := m.msg.(wire.RegOp)
		if !ok {
			continue
		}
		req := m.to.Kind == transport.KindObject
		k := roundKey{node: m.from, reg: ro.Reg}
		if !req {
			k.node = m.to
		}
		var rr wire.Round
		switch x := ro.Msg.(type) {
		case wire.PWReq:
			k.kind, k.seq = roundPW, int64(x.TS)
		case wire.PWAck:
			k.kind, k.seq = roundPW, int64(x.TS)
		case wire.WReq:
			k.kind, k.seq = roundW, int64(x.TS)
		case wire.WAck:
			k.kind, k.seq = roundW, int64(x.TS)
		case wire.ReadReq:
			k.kind, k.seq, rr = roundRead, int64(x.TSR), x.Round
		case wire.ReadAck:
			k.kind, k.seq = roundRead, int64(x.TSR)
		case wire.ReadAckHist:
			k.kind, k.seq = roundRead, int64(x.TSR)
			ls.histEntries += int64(len(x.History))
			ls.histReplies++
		default:
			continue
		}
		size := int64(wire.CompactSize(m.msg))
		if k.kind == roundRead {
			ls.readMsgs++
			ls.readBytes += size
		} else {
			ls.writeMsgs++
			ls.writeBytes += size
		}
		r := rounds[k]
		if r == nil {
			r = &round{}
			rounds[k] = r
		}
		if req {
			if r.reqs == 0 || m.at < r.first {
				r.first = m.at
			}
			r.reqs++
			if rr != 0 {
				r.read = rr
			}
		} else {
			r.replies = append(r.replies, m.at)
		}
	}

	// span accounts one round that ended at end (the next send, or the
	// op's return) and returns its decide time. A round that ended
	// before its (S−t)-th reply (both readers may decide round 2 from
	// round-1 replies, right after sending it) waited until end, so the
	// op's latency splits exactly into pre-send, quorum waits and
	// decide times.
	span := func(r *round, end int64) (decide int64) {
		qt, ok := r.quorumAt(q)
		if !ok || qt > end {
			qt = end
		}
		ls.quorumNs += qt - r.first
		ls.quorumN++
		return end - qt
	}

	// Writes: the timestamp the store returned names the op's rounds.
	readsByKey := make(map[string][]int)
	for i, rec := range recs {
		o := p.ops[i]
		if rec.err {
			continue
		}
		key := p.keys[o.key]
		if o.read {
			ls.reads++
			readsByKey[key] = append(readsByKey[key], i)
			continue
		}
		ls.writes++
		pw := rounds[roundKey{node: transport.Writer(), reg: key, kind: roundPW, seq: int64(rec.ts)}]
		wr := rounds[roundKey{node: transport.Writer(), reg: key, kind: roundW, seq: int64(rec.ts)}]
		if pw == nil || wr == nil || pw.reqs == 0 || wr.reqs == 0 {
			continue
		}
		ls.matchedWr++
		ls.preSendNs += pw.first - rec.call
		ls.preSendN++
		ls.decideWrNs += span(pw, wr.first) + span(wr, rec.ret)
	}

	// Reads: a reader slot's rounds on one register, in reader
	// timestamp order, form its reads (round 2 follows its round 1 at
	// the next timestamp). Captured reads are matched to the
	// benchmark's calls on the same key by time.
	type slotReg struct {
		node transport.NodeID
		reg  string
	}
	bySlot := make(map[slotReg][]roundKey)
	for k, r := range rounds {
		if k.kind == roundRead && r.reqs > 0 {
			sr := slotReg{k.node, k.reg}
			bySlot[sr] = append(bySlot[sr], k)
		}
	}
	capturedByKey := make(map[string][]*readOp)
	for sr, keys := range bySlot {
		sort.Slice(keys, func(i, j int) bool { return keys[i].seq < keys[j].seq })
		var cur *readOp
		var prev int64
		for _, k := range keys {
			r := rounds[k]
			if r.read == wire.Round2 && cur != nil && len(cur.rounds) == 1 && k.seq == prev+1 {
				cur.rounds = append(cur.rounds, r)
			} else {
				cur = &readOp{first: r.first, rounds: []*round{r}}
				capturedByKey[sr.reg] = append(capturedByKey[sr.reg], cur)
			}
			prev = k.seq
		}
	}
	for key, idx := range readsByKey {
		caps := capturedByKey[key]
		sort.Slice(caps, func(i, j int) bool { return caps[i].first < caps[j].first })
		sort.Slice(idx, func(i, j int) bool { return recs[idx[i]].call < recs[idx[j]].call })
		j := 0
		for _, i := range idx {
			rec := recs[i]
			for j < len(caps) && caps[j].first < rec.call {
				j++
			}
			if j == len(caps) || caps[j].first > rec.ret {
				continue
			}
			op := caps[j]
			j++
			ls.matchedReads++
			ls.preSendNs += op.first - rec.call
			ls.preSendN++
			for k, r := range op.rounds {
				end := rec.ret
				if k+1 < len(op.rounds) {
					end = op.rounds[k+1].first
				}
				ls.decideReadNs += span(r, end)
			}
		}
	}

	if err := replayCodec(msgs, ls); err != nil {
		return err
	}
	replayObjects(w, p, tr.seed, cfg.R, msgs, ls)
	return nil
}

// codecChunk bounds the encoded bytes held at once by the codec replay.
const codecChunk = 4096

// replayCodec sends every captured message through wire.AppendCompact
// and wire.DecodeCompact, timing each pass, and fails if a decoded
// message differs from the captured one.
func replayCodec(msgs []tapRec, ls *layerSample) error {
	var buf []byte
	ends := make([]int, 0, codecChunk)
	batch := make([]wire.Msg, 0, codecChunk)
	flush := func() error {
		buf, ends = buf[:0], ends[:0]
		var err error
		t := time.Now()
		for _, m := range batch {
			if buf, err = wire.AppendCompact(buf, m); err != nil {
				return fmt.Errorf("wire replay: encode %T: %w", m, err)
			}
			ends = append(ends, len(buf))
		}
		ls.encodeNs += int64(time.Since(t))
		decoded := make([]wire.Msg, len(batch))
		t = time.Now()
		from := 0
		for i, end := range ends {
			if decoded[i], err = wire.DecodeCompact(buf[from:end]); err != nil {
				return fmt.Errorf("wire replay: decode %T: %w", batch[i], err)
			}
			from = end
		}
		ls.decodeNs += int64(time.Since(t))
		for i, m := range batch {
			if !msgEqual(m, decoded[i]) {
				return fmt.Errorf("wire replay: %T decoded as %#v, captured %#v", m, decoded[i], m)
			}
		}
		ls.codecN += int64(len(batch))
		batch = batch[:0]
		return nil
	}
	for i := range msgs {
		if !msgs[i].done.Load() {
			continue
		}
		batch = append(batch, msgs[i].msg)
		if len(batch) == codecChunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// replaySample is how many registers the object replay covers.
const replaySample = 64

// replayObjects sends the captured requests of a seeded sample of
// registers, in captured order, through a fresh base object of the
// workload's semantics, and times its Handle.
func replayObjects(w workload, p *plan, seed uint64, readers int, msgs []tapRec, ls *layerSample) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	sample := make(map[string]bool)
	for _, i := range rng.Perm(len(p.keys))[:min(replaySample, len(p.keys))] {
		sample[p.keys[i]] = true
	}
	reqs := make(map[string][]*tapRec)
	target := transport.Object(0)
	for i := range msgs {
		m := &msgs[i]
		if !m.done.Load() || m.to != target {
			continue
		}
		if ro, ok := m.msg.(wire.RegOp); ok && sample[ro.Reg] {
			reqs[ro.Reg] = append(reqs[ro.Reg], m)
		}
	}
	for _, list := range reqs {
		var h transport.Handler
		var reg *object.Regular
		if w.opts.Semantics == store.Safe {
			h = object.NewSafe(0, readers)
		} else {
			reg = object.NewRegular(0, readers)
			h = reg
		}
		t := time.Now()
		for _, m := range list {
			h.Handle(m.from, m.msg.(wire.RegOp).Msg)
		}
		ls.handleNs += int64(time.Since(t))
		ls.handleReqs += int64(len(list))
		if reg != nil {
			ls.histLenMax = max(ls.histLenMax, reg.HistoryLen())
		}
	}
}

// msgEqual compares a decoded message with the captured one by the
// payload types' own equality (the codec may turn an empty map into
// nil); message types the store's default traffic never carries are
// compared by their re-encoding.
func msgEqual(a, b wire.Msg) bool {
	switch x := a.(type) {
	case wire.RegOp:
		y, ok := b.(wire.RegOp)
		return ok && x.Reg == y.Reg && x.Op == y.Op && msgEqual(x.Msg, y.Msg)
	case wire.PWReq:
		y, ok := b.(wire.PWReq)
		return ok && x.TS == y.TS && x.PW.Equal(y.PW) && x.W.Equal(y.W)
	case wire.PWAck:
		y, ok := b.(wire.PWAck)
		return ok && x.ObjectID == y.ObjectID && x.TS == y.TS && x.TSR.Equal(y.TSR)
	case wire.WReq:
		y, ok := b.(wire.WReq)
		return ok && x.TS == y.TS && x.PW.Equal(y.PW) && x.W.Equal(y.W)
	case wire.WAck:
		y, ok := b.(wire.WAck)
		return ok && x == y
	case wire.ReadReq:
		y, ok := b.(wire.ReadReq)
		if !ok || x.Round != y.Round || x.Reader != y.Reader || x.TSR != y.TSR || x.CacheTS != y.CacheTS ||
			(x.Repair == nil) != (y.Repair == nil) {
			return false
		}
		return x.Repair == nil || x.Repair.Equal(*y.Repair)
	case wire.ReadAck:
		y, ok := b.(wire.ReadAck)
		return ok && x.ObjectID == y.ObjectID && x.Round == y.Round && x.TSR == y.TSR &&
			x.PW.Equal(y.PW) && x.W.Equal(y.W)
	case wire.ReadAckHist:
		y, ok := b.(wire.ReadAckHist)
		if !ok || x.ObjectID != y.ObjectID || x.Round != y.Round || x.TSR != y.TSR || len(x.History) != len(y.History) {
			return false
		}
		for ts, e := range x.History {
			if f, ok := y.History[ts]; !ok || !e.Equal(f) {
				return false
			}
		}
		return true
	default:
		ea, errA := wire.EncodeCompact(a)
		eb, errB := wire.EncodeCompact(b)
		return errA == nil && errB == nil && bytes.Equal(ea, eb)
	}
}
