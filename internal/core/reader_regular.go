package core

import (
	"bytes"
	"encoding/binary"

	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// regularReadState carries the per-READ bookkeeping of Fig. 6. Base
// objects keep the full write history (Fig. 5) and ship it — or, with
// the §5.1 optimization, only the suffix at or above cacheTS — in both
// read rounds. Candidates are validated per write timestamp: safe(c)
// needs b+1 objects confirming the exact history entry, invalid(c)
// discards a candidate once t+b+1 objects contradict it.
type regularReadState struct {
	readBase
	cacheTS types.TS

	// lastTSR implements the Fig. 6 line 18/23 guard: accept an object's
	// ack only with a strictly higher echoed control timestamp.
	lastTSR map[types.ObjectID]types.ReaderTS

	// hist[rnd][i] is the history object i reported in round rnd.
	hist map[wire.Round]map[types.ObjectID]types.History

	// candidates interns the tuples collected from round-1 histories'
	// non-nil w entries, keyed canonically.
	candidates map[string]types.WTuple

	resp2 objSet

	// Fast-path bookkeeping (populated only with fast set): the
	// canonical key of the first round-1 history, the history itself,
	// and whether every later round-1 reply matched byte-for-byte.
	fast        bool
	r1Seen      bool
	r1Key       string
	r1Hist      types.History
	r1Unanimous bool
}

func newRegularReadState(cfg quorum.Config, j types.ReaderID) *regularReadState {
	return &regularReadState{
		readBase: readBase{cfg: cfg, j: j, respFirst: make(objSet)},
		lastTSR:  make(map[types.ObjectID]types.ReaderTS),
		hist: map[wire.Round]map[types.ObjectID]types.History{
			wire.Round1: make(map[types.ObjectID]types.History),
			wire.Round2: make(map[types.ObjectID]types.History),
		},
		candidates:  make(map[string]types.WTuple),
		resp2:       make(objSet),
		r1Unanimous: true,
	}
}

// historyKey canonically encodes a history for byte-identity
// comparison: sorted timestamps, each with its pw pair and (when
// present) the complete tuple's canonical key, all length-prefixed so
// distinct histories cannot collide by re-splitting.
func historyKey(h types.History) string {
	var buf bytes.Buffer
	var tmp [8]byte
	for _, ts := range h.Timestamps() {
		e := h[ts]
		binary.BigEndian.PutUint64(tmp[:], uint64(ts))
		buf.Write(tmp[:])
		pk := tsvalKey(e.PW)
		binary.BigEndian.PutUint64(tmp[:], uint64(len(pk)))
		buf.Write(tmp[:])
		buf.WriteString(pk)
		if e.W == nil {
			buf.WriteByte(0)
			continue
		}
		buf.WriteByte(1)
		wk := e.W.Key()
		binary.BigEndian.PutUint64(tmp[:], uint64(len(wk)))
		buf.Write(tmp[:])
		buf.WriteString(wk)
	}
	return buf.String()
}

// absorb processes one delivered message; true when it was a fresh,
// well-formed acknowledgement of this READ.
func (s *regularReadState) absorb(msg transport.Message) bool {
	ack, ok := msg.Payload.(wire.ReadAckHist)
	if !ok || !s.acceptHeader(msg.From, ack.ObjectID, ack.Round, ack.TSR) {
		return false
	}
	if ack.TSR <= s.lastTSR[ack.ObjectID] {
		return false
	}
	s.lastTSR[ack.ObjectID] = ack.TSR

	h := ack.History
	s.hist[ack.Round][ack.ObjectID] = h
	if ack.Round == wire.Round1 {
		s.respFirst.add(ack.ObjectID)
		for _, e := range h {
			if e.W != nil {
				s.candidates[e.W.Key()] = *e.W
			}
		}
		if s.fast {
			hk := historyKey(h)
			if !s.r1Seen {
				s.r1Seen, s.r1Key, s.r1Hist = true, hk, h
			} else if hk != s.r1Key {
				s.r1Unanimous = false
			}
		}
	} else {
		s.resp2.add(ack.ObjectID)
	}
	return true
}

// fastDecide evaluates the single-round fast-path predicate after the
// round-1 loop: return the top complete entry of the unanimous
// round-1 history iff
//
//  1. ≥ S−t round-1 replies arrived, ALL carrying byte-identical
//     histories (same timestamps, pw pairs, and complete tuples);
//  2. the highest-timestamp entry is COMPLETE and dominant: its w is
//     non-nil and its pw equals w.tsval — so no responder observed a
//     pre-write newer than the returned write;
//  3. every tuple in the history is conflict-free for this reader
//     (no tsr row above tsrFR, Fig. 6 line 1).
//
// The safety argument mirrors the safe reader's (see
// safeReadState.fastDecide), with history entries as the evidence:
// t+b+1 identical replies leave ≥ t+1 ≥ b+1 honest objects storing the
// exact top entry, so safe(c) of Fig. 6 line 3 holds with round-1
// evidence alone and c is genuine; quorum intersection (|P ∩ Q| ≥
// S−2t = b+1 with any completed write's install set Q) puts an honest
// monotone object in both, so the unanimous top timestamp dominates
// every write completed before the READ began. Note the §5.1 suffix
// optimization never hides the top entry: objects always ship history
// at or above the reader's own cached timestamp, and GC retains the
// newest entry.
func (s *regularReadState) fastDecide() (types.TSVal, bool) {
	if !s.fast || !s.r1Unanimous || !s.r1Seen || len(s.respFirst) < s.cfg.RoundQuorum() {
		return types.TSVal{}, false
	}
	h := s.r1Hist
	top, ok := h[h.MaxTS()]
	if !ok || top.W == nil || !top.PW.Equal(top.W.TSVal) {
		return types.TSVal{}, false // empty suffix, or a write in flight
	}
	for _, e := range h {
		if e.W == nil {
			continue
		}
		for _, vec := range e.W.TSR {
			if vec.Get(s.j) > s.tsrFR {
				return types.TSVal{}, false // forged matrix conflicts with us
			}
		}
	}
	return top.W.TSVal, true
}

// repairHint picks the tuple the slow-path round 2 piggybacks: the
// highest-timestamp candidate whose exact complete entry (w AND the
// matching pw) appears in ≥ b+1 round-1 histories — at least one
// honest object durably stores it, so the hint is genuine and cannot
// launder a forged tuple into honest replicas.
func (s *regularReadState) repairHint() (types.WTuple, bool) {
	if !s.fast || s.r1Unanimous {
		return types.WTuple{}, false
	}
	bestKey, found := "", false
	var best types.WTuple
	for k, c := range s.candidates {
		n := 0
		for _, h := range s.hist[wire.Round1] {
			e, ok := h[c.TSVal.TS]
			if ok && e.W != nil && e.W.Equal(c) && e.PW.Equal(c.TSVal) {
				n++
			}
		}
		if n < s.cfg.SafeThreshold() {
			continue
		}
		// Deterministic tie-break on the canonical key.
		if !found || c.TSVal.TS > best.TSVal.TS ||
			(c.TSVal.TS == best.TSVal.TS && k > bestKey) {
			best, bestKey, found = c, k, true
		}
	}
	if !found {
		return types.WTuple{}, false
	}
	return best, true
}

// entryMismatch reports whether history h contradicts candidate c at
// c's timestamp: entry missing, w nil, pw ≠ c.tsval, or w ≠ c (Fig. 6
// line 2).
func entryMismatch(h types.History, c types.WTuple) bool {
	e, ok := h[c.TSVal.TS]
	if !ok || e.W == nil {
		return true
	}
	return !e.PW.Equal(c.TSVal) || !e.W.Equal(c)
}

// entryMatch reports whether h confirms c at c's timestamp: pw equals
// c.tsval or w equals c (Fig. 6 line 3).
func entryMatch(h types.History, c types.WTuple) bool {
	e, ok := h[c.TSVal.TS]
	if !ok {
		return false
	}
	if e.PW.Equal(c.TSVal) {
		return true
	}
	return e.W != nil && e.W.Equal(c)
}

// invalid counts contradiction witnesses for c across both rounds.
func (s *regularReadState) invalid(c types.WTuple) bool {
	witnesses := make(objSet)
	for _, byObj := range s.hist {
		for id, h := range byObj {
			if entryMismatch(h, c) {
				witnesses.add(id)
			}
		}
	}
	return len(witnesses) >= s.cfg.InvalidThreshold()
}

// safe counts confirmation witnesses for c across both rounds.
func (s *regularReadState) safe(c types.WTuple) bool {
	witnesses := make(objSet)
	for _, byObj := range s.hist {
		for id, h := range byObj {
			if entryMatch(h, c) {
				witnesses.add(id)
			}
		}
	}
	return len(witnesses) >= s.cfg.SafeThreshold()
}

// activeCandidates returns the candidates not yet invalidated.
func (s *regularReadState) activeCandidates() []string {
	var out []string
	for k, c := range s.candidates {
		if !s.invalid(c) {
			out = append(out, k)
		}
	}
	return out
}

// buildConflictGraph materializes the Fig. 6 line 1 relation:
// conflict(i, k) iff object k reported, in round 1, a history entry
// whose tuple c has c.tsrarray[i][j] > tsrFR, for a c still in C.
func (s *regularReadState) buildConflictGraph(active []string) *conflictGraph {
	activeSet := make(map[string]bool, len(active))
	for _, k := range active {
		activeSet[k] = true
	}
	g := newConflictGraph()
	for reporter, h := range s.hist[wire.Round1] {
		for _, e := range h {
			if e.W == nil {
				continue
			}
			if !activeSet[e.W.Key()] {
				continue
			}
			for accusedID, vec := range e.W.TSR {
				if vec.Get(s.j) > s.tsrFR {
					g.addConflict(accusedID, reporter)
				}
			}
		}
	}
	return g
}

// round1Done evaluates the Fig. 6 line 11 condition.
func (s *regularReadState) round1Done() bool {
	return s.round1Quorum(func() *conflictGraph { return s.buildConflictGraph(s.activeCandidates()) })
}

// decide evaluates the Fig. 6 line 14 condition: some highest active
// candidate is safe. Under §5.1, an empty candidate set after a full
// round-2 quorum also terminates (the caller substitutes the cache).
func (s *regularReadState) decide(optimized bool) (types.TSVal, bool) {
	active := s.activeCandidates()
	if len(active) == 0 {
		if optimized && len(s.resp2) >= s.cfg.RoundQuorum() {
			return types.InitTSVal(), true
		}
		return types.TSVal{}, false
	}
	maxTS := types.TS(-1)
	for _, k := range active {
		if ts := s.candidates[k].TSVal.TS; ts > maxTS {
			maxTS = ts
		}
	}
	for _, k := range active {
		c := s.candidates[k]
		if c.TSVal.TS != maxTS {
			continue
		}
		if s.safe(c) {
			return c.TSVal, true
		}
	}
	return types.TSVal{}, false
}
