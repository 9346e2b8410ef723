package recovery_test

import (
	"testing"
	"time"

	"repro/internal/recovery"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// honestState renders the snapshot an honest object holds after writes
// 1..ts of register reg.
func honestState(reg string, ts types.TS, readers int) wire.RegState {
	s := newRegStore(0, readers)
	seed(s, reg, ts)
	snap := s.get(reg).Snapshot()
	return wire.RegState{Reg: reg, TS: snap.TS, History: snap.History, TSR: snap.TSR}
}

// forgedState is a lying donor's donation for reg: an inflated
// timestamp with a fabricated value and reader-timestamp vector.
func forgedState(reg string, readers int) wire.RegState {
	w := types.WTuple{TSVal: types.TSVal{TS: 999, Val: types.Value("FORGED")}, TSR: types.NewTSRMatrix()}
	tsr := types.NewTSRVector(readers)
	for j := range tsr {
		tsr[j] = 1 << 40
	}
	return wire.RegState{
		Reg: reg,
		TS:  999,
		History: types.History{
			998: {PW: w.TSVal.Clone(), W: &w},
			999: {PW: w.TSVal.Clone(), W: &w},
		},
		TSR: tsr,
	}
}

// TestValidatedRejectsLyingDonor: with per-entry b+1 cross-validation,
// a single lying donor in the collected quorum cannot smuggle a forged
// row, an inflated timestamp, or an inflated reader-timestamp vector
// into the install — while every row the honest donors agree on
// survives, including the newest completed write.
func TestValidatedRejectsLyingDonor(t *testing.T) {
	const readers = 2
	honest := honestState("x", 3, readers)
	resps := []wire.StateResp{
		{ObjectID: 1, Regs: []wire.RegState{honest}},
		{ObjectID: 2, Regs: []wire.RegState{honest}},
		{ObjectID: 3, Regs: []wire.RegState{forgedState("x", readers), forgedState("phantom", readers)}},
	}

	// Blind dominant merge would install the forgery — the regression
	// the hardening closes.
	blind := recovery.Dominant(resps)
	if len(blind) == 0 || blind[0].TS != 999 {
		t.Fatalf("precondition: dominant merge no longer trusts the liar (got %+v)", blind)
	}

	merged := recovery.Validated(resps, 2) // b+1 with b = 1
	if len(merged) != 1 {
		t.Fatalf("validated merge installed %d registers, want only x: %+v", len(merged), merged)
	}
	st := merged[0]
	if st.Reg != "x" {
		t.Fatalf("validated merge kept %q — the liar's phantom register must not be born", st.Reg)
	}
	if st.TS != honest.TS {
		t.Fatalf("validated ts %d, want the honest %d", st.TS, honest.TS)
	}
	if _, forged := st.History[999]; forged {
		t.Fatal("forged history row installed")
	}
	for ts, entry := range honest.History {
		got, ok := st.History[ts]
		if !ok || !got.Equal(entry) {
			t.Fatalf("honest row at ts %d lost or mutated", ts)
		}
	}
	for j, v := range st.TSR {
		if v != honest.TSR[j] {
			t.Fatalf("tsr[%d] = %d, want the honest %d (liar inflated it)", j, v, honest.TSR[j])
		}
	}
}

// TestValidatedOneVotePerDonorPerRegister: a lying donor cannot stuff
// the ballot by listing the same forged register twice in one donation
// — duplicates within a response count as one voucher, so the forgery
// still dies below the b+1 threshold.
func TestValidatedOneVotePerDonorPerRegister(t *testing.T) {
	const readers = 1
	honest := honestState("x", 3, readers)
	forged := forgedState("x", readers)
	resps := []wire.StateResp{
		{ObjectID: 1, Regs: []wire.RegState{honest}},
		{ObjectID: 2, Regs: []wire.RegState{honest}},
		// The liar presents its forgery twice in the SAME response.
		{ObjectID: 3, Regs: []wire.RegState{forged, forged}},
	}
	merged := recovery.Validated(resps, 2)
	if len(merged) != 1 || merged[0].TS != honest.TS {
		t.Fatalf("validated merge %+v, want only the honest state at ts %d", merged, honest.TS)
	}
	if _, bad := merged[0].History[999]; bad {
		t.Fatal("duplicated forgery within one donation gathered b+1 vouchers")
	}
	for j, v := range merged[0].TSR {
		if v != honest.TSR[j] {
			t.Fatalf("tsr[%d] = %d inflated by the duplicated donation", j, v)
		}
	}
}

// TestValidatedKeepsFreshCompletedWrite: quorum intersection in
// miniature — when only b+1 of the donors have the newest completed
// write (the rest are one write behind), cross-validation still
// installs it: freshness is not sacrificed for safety.
func TestValidatedKeepsFreshCompletedWrite(t *testing.T) {
	fresh := honestState("y", 5, 1)
	stale := honestState("y", 4, 1)
	resps := []wire.StateResp{
		{ObjectID: 1, Regs: []wire.RegState{fresh}},
		{ObjectID: 2, Regs: []wire.RegState{fresh}},
		{ObjectID: 3, Regs: []wire.RegState{stale}},
	}
	merged := recovery.Validated(resps, 2)
	if len(merged) != 1 || merged[0].TS != 5 {
		t.Fatalf("validated merge %+v, want ts 5 retained", merged)
	}
}

// TestValidatedSingleVoucherDegradesToDominant: vouchers ≤ 1 (b = 0)
// is exactly the dominant merge — no agreement to wait for.
func TestValidatedSingleVoucherDegradesToDominant(t *testing.T) {
	resps := []wire.StateResp{
		{ObjectID: 1, Regs: []wire.RegState{honestState("z", 2, 1)}},
		{ObjectID: 2, Regs: []wire.RegState{honestState("z", 3, 1)}},
	}
	dom := recovery.Dominant(resps)
	val := recovery.Validated(resps, 1)
	if len(dom) != len(val) || val[0].TS != dom[0].TS {
		t.Fatalf("vouchers=1 diverged from dominant: %+v vs %+v", val, dom)
	}
}

// lyingDonor is a base object that answers StateReq with forged state —
// the Byzantine state donor the CrossValidate policy defends against.
type lyingDonor struct {
	id      types.ObjectID
	readers int
}

func (d *lyingDonor) Handle(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	m, ok := req.(wire.StateReq)
	if !ok {
		return nil, false
	}
	return wire.StateResp{
		ObjectID: d.id,
		Seq:      m.Seq,
		Regs:     []wire.RegState{forgedState("a", d.readers), forgedState("phantom", d.readers)},
	}, true
}

// TestManagerCrossValidateSurvivesLyingDonor: the end-to-end catch-up
// with a lying donor in the quorum. Policy.CrossValidate on: the
// recovering object installs the honest, agreed state and none of the
// forgery — the regression test for the Byzantine-state-donor gap left
// open by the recovery subsystem's first cut.
func TestManagerCrossValidateSurvivesLyingDonor(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	const readers = 2

	// Recovering object 0; honest donors 1 and 2 (both at ts 4);
	// lying donor 3. Quorum 3 of the 3 siblings, so the liar is always
	// inside the collected set.
	rec := newRegStore(0, readers)
	seed(rec, "a", 4)
	guard := recovery.NewGuard(0, rec, rec)
	if err := net.Serve(transport.Object(0), guard); err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.ObjectID{1, 2} {
		donor := newRegStore(id, readers)
		seed(donor, "a", 4)
		// Honest donors answer StateReq through their own recovery
		// guards, like every guarded object in the store.
		if err := net.Serve(transport.Object(id), recovery.NewGuard(id, donor, donor)); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Serve(transport.Object(3), &lyingDonor{id: 3, readers: readers}); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Register(transport.Recovery(0))
	if err != nil {
		t.Fatal(err)
	}
	siblings := []transport.NodeID{transport.Object(1), transport.Object(2), transport.Object(3)}
	policy := recovery.Policy{Quorum: 3, Retry: 5 * time.Millisecond, CrossValidate: true}.WithDefaults(1, 1)
	if policy.Vouchers != 2 {
		t.Fatalf("defaulted vouchers %d, want b+1 = 2", policy.Vouchers)
	}
	mgr := recovery.NewManager(guard, conn, siblings, policy)
	defer mgr.Close()

	guard.Forget() // amnesia: wipes ts 4, must rebuild from the donors
	deadline := time.Now().Add(10 * time.Second)
	for guard.Fenced() {
		if time.Now().After(deadline) {
			t.Fatal("catch-up with a lying donor never completed")
		}
		time.Sleep(time.Millisecond)
	}

	if got := maxTS(rec, "a"); got != 4 {
		t.Fatalf("recovered register a at ts %d, want the honest 4", got)
	}
	snap := rec.get("a").Snapshot()
	if _, forged := snap.History[999]; forged {
		t.Fatal("forged row installed despite cross-validation")
	}
	rec.mu.Lock()
	_, phantom := rec.regs["phantom"]
	rec.mu.Unlock()
	if phantom {
		t.Fatal("liar's phantom register was born")
	}
}
