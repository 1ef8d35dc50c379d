package coherence

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/intmap"
	"repro/internal/sim"
)

// fingerprintWords returns the words AppendFingerprint emits for s.
func fingerprintWords(s *System) []uint64 {
	var w []uint64
	s.AppendFingerprint(func(v uint64) { w = append(w, v) })
	return w
}

// set assigns v to *p and returns the undo.
func set[T any](p *T, v T) func() {
	old := *p
	*p = v
	return func() { *p = old }
}

// put stores v under addr in m and returns the undo.
func put[V any](m *intmap.Map[V], addr cache.Addr, v V) func() {
	k := uint64(addr)
	old, had := m.Get(k)
	m.Set(k, v)
	return func() {
		if had {
			m.Set(k, old)
		} else {
			m.Delete(k)
		}
	}
}

// move re-keys src's entry at from into dst at to (either may equal its
// counterpart) and returns the undo.
func move[V any](src *intmap.Map[V], from cache.Addr, dst *intmap.Map[V], to cache.Addr) func() {
	v, _ := src.Get(uint64(from))
	src.Delete(uint64(from))
	dst.Set(uint64(to), v)
	return func() {
		dst.Delete(uint64(to))
		src.Set(uint64(from), v)
	}
}

// swapEntries exchanges the directory entries of two resident blocks,
// leaving the lines' tags and data in place, and returns the undo.
func swapEntries(s *System, a, b cache.Addr) func() {
	ea, eb := s.bankFor(a).entry(a), s.bankFor(b).entry(b)
	swap := func() {
		ea.Sharers, eb.Sharers = eb.Sharers, ea.Sharers
		ea.Dir, eb.Dir = eb.Dir, ea.Dir
		ea.Owner, eb.Owner = eb.Owner, ea.Owner
		ea.Fwd, eb.Fwd = eb.Fwd, ea.Fwd
	}
	swap()
	return swap
}

// movePin moves one pin from block from's line to block to's and
// returns the undo.
func movePin(s *System, from, to cache.Addr) func() {
	bf, bt := s.bankFor(from), s.bankFor(to)
	bf.unpin(from)
	bt.pin(to, bt.entry(to))
	return func() {
		bt.unpin(to)
		bf.pin(from, bf.entry(from))
	}
}

// withEvents swaps in an engine holding s's pending events, at the same
// time and in the same order, with the last one edited (it stays last),
// and returns the undo.
func withEvents(s *System, edit func(rel *sim.Cycle, h *sim.Handler, p *sim.Payload)) func() {
	type event struct {
		rel sim.Cycle
		h   sim.Handler
		p   sim.Payload
	}
	var evs []event
	s.Eng.ForEachPending(func(rel sim.Cycle, h sim.Handler, p sim.Payload) {
		evs = append(evs, event{rel, h, p})
	})
	last := &evs[len(evs)-1]
	edit(&last.rel, &last.h, &last.p)
	eng := sim.NewEngine()
	eng.RunTo(s.Eng.Now())
	for _, e := range evs {
		eng.ScheduleEvent(e.rel, e.h, e.p)
	}
	return set(&s.Eng, eng)
}

// Addresses of the state populateLive sets directly. L1s 2 and 3 and,
// two-level, hubs 2 and 3 see no traffic, so an entry moved between
// them leaves every other word in place.
const (
	wbBlock    = blockA + 3*64
	imageBlock = blockA + 4*64
	idleRecord = blockA + 5*64
)

// populateLive drives a four-L1 system into a live state in which every
// structure the fingerprint encodes holds something: lines in L1s 0 and
// 1, directory entries, LLC lines and an open DRAM row from settled
// accesses, then L1 1's store to L1 0's modified block in flight (an
// MSHR, a busy transaction, pending events). What that leaves empty is
// set directly: a queued request, a pinned grant, a writeback-buffer
// entry in idle L1 2, a memory-image entry and, two-level, a pending ack
// aggregation and up-request at hub 0 and a record at idle hub 2.
func populateLive(t *testing.T, s *System) {
	t.Helper()
	s.AccessSync(0, blockA, true, false, 0x11)
	s.AccessSync(1, blockA+64, false, false, 0)
	s.AccessSync(1, blockA+128, false, true, 0)
	s.Quiesce()
	s.Submit(1, Access{Addr: blockA, Write: true, Value: 0x22})
	b := s.bankFor(blockA)
	for b.txnOf(blockA) == nil && s.Eng.Step() {
	}
	txn := b.txnOf(blockA)
	if txn == nil || s.L1s[1].mshrs.Len() != 1 || s.Eng.Pending() == 0 {
		t.Fatal("the store is not in flight")
	}
	txn.queued = append(txn.queued, Msg{Kind: MsgGETS, Addr: blockA, Requestor: 0, Data: 5})
	bp := s.bankFor(blockA + 64)
	bp.pin(blockA+64, bp.entry(blockA+64))
	s.L1s[2].wb.Set(uint64(wbBlock), wbEntry{data: 0x44, dirty: true})
	s.memWrite(imageBlock, 0x55)
	if s.twoLevel {
		s.hubs[0].pending.Set(uint64(blockA), 1)
		s.hubs[0].upReqs.Set(uint64(blockA), 1)
		s.hubs[2].record.Set(uint64(idleRecord), 1)
	}
}

// fingerprintCase changes one piece of a live system's state and returns
// the undo.
type fingerprintCase struct {
	name   string
	change func() (undo func())
}

// fingerprintCases lists one change per encoded field of a system
// prepared by populateLive.
func fingerprintCases(s *System) []fingerprintCase {
	ms := s.L1s[1].mshrOf(blockA)
	b := s.bankFor(blockA)
	e, txn := b.entry(blockA), b.txnOf(blockA)
	q := &txn.queued[0]
	wb := &s.L1s[2].wb
	image := &s.bankFor(imageBlock).image
	pinned := s.bankFor(blockA + 64).entry(blockA + 64)
	cases := []fingerprintCase{
		{"L1 line", func() func() {
			ln := s.L1s[0].arr.Lookup(blockA)
			return set(&ln.Data, ln.Data+1)
		}},
		{"L1 of a writeback entry", func() func() { return move(wb, wbBlock, &s.L1s[3].wb, wbBlock) }},
		{"MSHR block", func() func() { return move(&s.L1s[1].mshrs, blockA, &s.L1s[1].mshrs, blockA+1) }},
		{"MSHR state", func() func() { return set(&ms.state, ms.state+1) }},
		{"MSHR write-protection", func() func() { return set(&ms.wp, !ms.wp) }},
		{"merged access kind", func() func() { return set(&ms.pending[0].Write, !ms.pending[0].Write) }},
		{"merged access write-protection", func() func() { return set(&ms.pending[0].WP, !ms.pending[0].WP) }},
		{"merged access value", func() func() { return set(&ms.pending[0].Value, ms.pending[0].Value+1) }},
		{"writeback block", func() func() { return move(wb, wbBlock, wb, wbBlock+1) }},
		{"writeback data", func() func() { return put(wb, wbBlock, wbEntry{data: 0x45, dirty: true}) }},
		{"writeback dirty", func() func() { return put(wb, wbBlock, wbEntry{data: 0x44}) }},
		{"directory block", func() func() { return swapEntries(s, blockA, blockA+128) }},
		{"directory state", func() func() { return set(&e.Dir, e.Dir+1) }},
		{"directory owner", func() func() { return set(&e.Owner, e.Owner+1) }},
		{"directory forwarder", func() func() { return set(&e.Fwd, e.Fwd+1) }},
		{"directory LLC dirty", func() func() { return set(&e.Dir, e.Dir^dirLLCDirty) }},
		{"directory write-protection", func() func() { return set(&e.Dir, e.Dir^dirWP) }},
		{"directory sharers", func() func() { return set(&e.Sharers, e.Sharers^0b100) }},
		{"transaction block", func() func() { return move(&b.busy, blockA, &b.busy, blockA+1) }},
		{"request", func() func() { return set(&txn.req.Data, txn.req.Data+1) }},
		{"waited acks", func() func() { return set(&txn.waitAcks, txn.waitAcks+1) }},
		{"deferred grant", func() func() { return set(&txn.pendKind, txn.pendKind+1) }},
		{"waits for unblock", func() func() { return set(&txn.waitUnblock, !txn.waitUnblock) }},
		{"waits for writeback", func() func() { return set(&txn.waitWB, !txn.waitWB) }},
		{"deferred grant data", func() func() { return set(&txn.pendData, txn.pendData+1) }},
		{"queued address", func() func() { return set(&q.Addr, q.Addr+1) }},
		{"queued kind", func() func() { return set(&q.Kind, MsgGETX) }},
		{"queued source", func() func() { return set(&q.Src, q.Src+1) }},
		{"queued requestor", func() func() { return set(&q.Requestor, q.Requestor+1) }},
		{"queued served-by", func() func() { return set(&q.Served, q.Served+1) }},
		{"queued cluster-last", func() func() { return set(&q.ClusterLast, !q.ClusterLast) }},
		{"queued write-protection", func() func() { return set(&q.WP, !q.WP) }},
		{"queued dirty", func() func() { return set(&q.Dirty, !q.Dirty) }},
		{"queued from-writeback", func() func() { return set(&q.FromWB, !q.FromWB) }},
		{"queued exclusive", func() func() { return set(&q.Excl, !q.Excl) }},
		{"queued owned", func() func() { return set(&q.Owned, !q.Owned) }},
		{"queued make-forward", func() func() { return set(&q.MakeForward, !q.MakeForward) }},
		{"queued data", func() func() { return set(&q.Data, q.Data+1) }},
		{"pin block", func() func() { return movePin(s, blockA+64, blockA+128) }},
		{"pin count", func() func() { return set(&pinned.Pins, 2) }},
		{"LLC line", func() func() {
			ln := s.bankFor(blockA + 64).arr.Lookup(blockA + 64)
			return set(&ln.Data, ln.Data+1)
		}},
		{"memory image block", func() func() { return move(image, imageBlock, image, imageBlock+1) }},
		{"memory image value", func() func() { return put(image, imageBlock, 0x56) }},
		{"DRAM", func() func() {
			other := dram.New(s.Mem.Config())
			other.AccessAt(s.Eng.Now(), 1<<30, false)
			return set(&s.Mem, other)
		}},
		{"event delay", func() func() {
			return withEvents(s, func(rel *sim.Cycle, _ *sim.Handler, _ *sim.Payload) { *rel++ })
		}},
		{"event handler", func() func() {
			return withEvents(s, func(_ *sim.Cycle, h *sim.Handler, _ *sim.Payload) {
				if *h == sim.Handler(s.L1s[3]) {
					*h = s.L1s[2]
				} else {
					*h = s.L1s[3]
				}
			})
		}},
		{"event closure", func() func() {
			undo := withEvents(s, func(*sim.Cycle, *sim.Handler, *sim.Payload) {})
			s.Eng.Schedule(1, func() {})
			return undo
		}},
	}
	for _, f := range []struct {
		name string
		edit func(p *sim.Payload)
	}{
		{"A", func(p *sim.Payload) { p.A++ }},
		{"B", func(p *sim.Payload) { p.B++ }},
		{"X", func(p *sim.Payload) { p.X++ }},
		{"Y", func(p *sim.Payload) { p.Y++ }},
		{"Z", func(p *sim.Payload) { p.Z++ }},
		{"K", func(p *sim.Payload) { p.K++ }},
		{"F", func(p *sim.Payload) { p.F++ }},
		{"Aux", func(p *sim.Payload) { p.Aux++ }},
		{"Op", func(p *sim.Payload) { p.Op++ }},
	} {
		edit := f.edit
		cases = append(cases, fingerprintCase{"event payload " + f.name, func() func() {
			return withEvents(s, func(_ *sim.Cycle, _ *sim.Handler, p *sim.Payload) { edit(p) })
		}})
	}
	if s.twoLevel {
		h := s.hubs[0]
		cases = append(cases,
			fingerprintCase{"hub block", func() func() {
				undoRecord := move(&h.record, blockA, &h.record, blockA+1)
				undoPending := move(&h.pending, blockA, &h.pending, blockA+1)
				undoUpReqs := move(&h.upReqs, blockA, &h.upReqs, blockA+1)
				return func() { undoUpReqs(); undoPending(); undoRecord() }
			}},
			fingerprintCase{"hub record", func() func() { return put(&h.record, blockA, h.recordOf(blockA)^0b10) }},
			fingerprintCase{"hub pending acks", func() func() { return put(&h.pending, blockA, 2) }},
			fingerprintCase{"hub up-requests", func() func() { return put(&h.upReqs, blockA, 2) }},
			fingerprintCase{"hub of a record", func() func() {
				return move(&s.hubs[2].record, idleRecord, &s.hubs[3].record, idleRecord)
			}},
		)
	}
	return cases
}

// TestAppendFingerprintCoversState changes one piece of state at a time
// on a live flat system and a live two-level system: every change must
// change the fingerprint, and undoing it must restore the original
// words. The model checker's exact state counts miss most of these: in
// its small configurations other encoded state implies the field.
func TestAppendFingerprintCoversState(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SystemConfig
	}{
		{"flat", testConfig(MESI, 4)},
		{"two-level", clusterTestConfig(MESI, 4, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNewSystem(tc.cfg)
			populateLive(t, s)
			base := fingerprintWords(s)
			if !slices.Equal(fingerprintWords(s), base) {
				t.Fatal("two fingerprints of one state differ")
			}
			for _, c := range fingerprintCases(s) {
				undo := c.change()
				if slices.Equal(fingerprintWords(s), base) {
					t.Errorf("%s: the change left the fingerprint unchanged", c.name)
				}
				undo()
				if !slices.Equal(fingerprintWords(s), base) {
					t.Errorf("%s: undoing the change did not restore the fingerprint", c.name)
				}
			}
		})
	}
}

// TestFingerprintFramingKeepsStatesApart pins where one record ends in
// the fingerprint: the queue length ahead of a transaction's queued
// requests, a word that encodes no state of its own, and the seven words
// every pending event emits, closure events included (a closure is a
// handler of its own with a zero payload). Without that framing each pair
// of states below would fingerprint alike.
func TestFingerprintFramingKeepsStatesApart(t *testing.T) {
	s := MustNewSystem(testConfig(MESI, 4))
	msgWord := func(m Msg) uint64 {
		var w []uint64
		m.appendFingerprint(func(v uint64) { w = append(w, v) })
		return w[1]
	}
	words := func(busy map[cache.Addr]*txn, schedule func(*sim.Engine)) []uint64 {
		var table intmap.Map[*txn]
		for addr, t := range busy {
			table.Set(uint64(addr), t)
		}
		defer set(&s.banks[0].busy, table)()
		defer set(&s.Eng, sim.NewEngine())()
		schedule(s.Eng)
		return fingerprintWords(s)
	}
	idle := func(*sim.Engine) {}

	// Three queued requests against the same queue emptied, its tail
	// re-read as a second transaction: m1's address as the block, m1's
	// kind word as the request address, and so on.
	m1 := Msg{Kind: MsgGETS, Addr: blockA + 64, Src: 1}
	m2 := Msg{Addr: blockA + 128, Data: 9} // kind word 0, like no waits
	m3 := Msg{Kind: MsgPUTS, Addr: blockA, Src: 2}
	req := Msg{Kind: MsgGETX, Src: 2, Addr: cache.Addr(msgWord(m1)), Data: uint64(m2.Addr)}
	m1.Data = msgWord(req)
	queued := words(map[cache.Addr]*txn{blockA: {queued: []Msg{m1, m2, m3}}}, idle)
	split := words(map[cache.Addr]*txn{
		blockA:  {},
		m1.Addr: {req: req, pendData: m2.Data, queued: []Msg{m3}},
	}, idle)
	if slices.Equal(queued, split) {
		t.Error("queued requests fingerprint like a second transaction")
	}

	// One payload event against closures due at its words: each closure
	// emits its own seven words, so the streams cannot coincide.
	event := words(nil, func(e *sim.Engine) {
		e.ScheduleEvent(1, s.L1s[3], sim.Payload{A: 3, B: 3, Y: 5, Aux: 5, Op: 5})
	})
	closures := words(nil, func(e *sim.Engine) {
		for _, rel := range []sim.Cycle{1, 3, 3, 3, 5, 5, 5} {
			e.Schedule(rel, func() {})
		}
	})
	if slices.Equal(event, closures) {
		t.Error("closure events fingerprint like a payload event")
	}
}
