package coherence

import (
	"repro/internal/cache"
	"repro/internal/proto"
)

// This file is the bridge between the runtime controllers and the
// canonical transition tables in internal/proto. The proto enums were
// laid out to mirror cache.LineState, Transient, DirState and MsgKind,
// so every conversion is a cast plus an offset; proto_bridge_test.go
// asserts the alignment value by value and name by name.

// protoEvent maps a message kind to its transition-table event.
func protoEvent(k MsgKind) proto.Event { return proto.EvGETS + proto.Event(k) }

// cpuEvent maps a CPU examination to its transition-table event.
func cpuEvent(write bool) proto.Event {
	if write {
		return proto.EvStore
	}
	return proto.EvLoad
}

// protoState returns the L1's transition-table state for a block: the
// MSHR transient state if a transaction is outstanding, else the stable
// line state (L1I when not resident). It is stats-neutral (Lookup, not
// Probe): dispatch consults it before the action body performs the
// accounted array access.
func (l *L1) protoState(block cache.Addr) proto.L1State {
	if ms := l.mshrOf(block); ms != nil {
		return proto.L1ISD + proto.L1State(ms.state)
	}
	if ln := l.arr.Lookup(block); ln != nil {
		return proto.L1State(ln.State)
	}
	return proto.L1I
}

// protoDirState returns the bank's transition-table state for a block:
// DirBusy if a blocking transaction is in flight, else the entry state
// (DirI when the block is not LLC-resident).
func (b *bank) protoDirState(addr cache.Addr) proto.DirState {
	_, st := b.lookup(addr)
	return st
}

// lookup returns addr's transition-table state and, unless a transaction
// holds the block (DirBusy), its entry (nil when not resident). It reads
// the LLC line only for a block no transaction holds.
func (b *bank) lookup(addr cache.Addr) (*dirEntry, proto.DirState) {
	if b.busy.Has(uint64(addr)) {
		return nil, proto.DirBusy
	}
	e := b.entry(addr)
	if e == nil {
		return nil, proto.DirI
	}
	return e, proto.DirState(e.state())
}

// ctrlState returns a controller's transition-table state for a block:
// the L1's protoState, or the home bank's protoDirState for DirID.
func (s *System) ctrlState(ctrl int, block cache.Addr) uint8 {
	if ctrl == DirID {
		return uint8(s.bankFor(block).protoDirState(block))
	}
	return uint8(s.L1s[ctrl].protoState(block))
}
