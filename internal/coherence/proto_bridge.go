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
	if ms, ok := l.mshrs[block]; ok {
		return proto.L1ISD + proto.L1State(ms.state)
	}
	if ln := l.arr.Lookup(block); ln != nil {
		return proto.L1State(ln.State)
	}
	return proto.L1I
}

// protoDirState returns the bank's transition-table state for a block:
// DirBusy if a blocking transaction is in flight, else the entry state
// (DirI when absent).
func (b *bank) protoDirState(addr cache.Addr) proto.DirState {
	if _, ok := b.busy[addr]; ok {
		return proto.DirBusy
	}
	if e, ok := b.entries[addr]; ok {
		return proto.DirState(e.state)
	}
	return proto.DirI
}

// ctrlState returns a controller's transition-table state for a block:
// the L1's protoState, or the home bank's protoDirState for DirID.
func (s *System) ctrlState(ctrl int, block cache.Addr) uint8 {
	if ctrl == DirID {
		return uint8(s.bankFor(block).protoDirState(block))
	}
	return uint8(s.L1s[ctrl].protoState(block))
}
