package core

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"

	"repro/internal/cache"
	"repro/internal/mmu"
)

// ArchMemHash hashes the machine's architectural memory contents in
// virtual-address space: for every process in creation order, every
// faulted-in page, every block whose value has diverged from its initial
// token, it hashes (process index, virtual address, value). Keying by
// virtual rather than physical address makes the hash invariant under
// physical-frame assignment, which depends on demand-paging *order* —
// a timing artifact that fault injection legitimately perturbs in
// multithreaded runs. Two runs of the same workload under different
// timing-fault plans must produce identical hashes; that is the
// machine-level metamorphic oracle (internal/soak).
func (m *Machine) ArchMemHash() string {
	h := sha256.New()
	var buf []byte
	m.forEachArchValue(func(pi int, va mmu.VAddr, v uint64) {
		buf = appendArchLine(buf, pi, va, v)
		if len(buf) >= 4096 {
			h.Write(buf)
			buf = buf[:0]
		}
	})
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// ArchMemDump renders the exact lines ArchMemHash hashes, one per block:
// "process virtual-address value". Diffing two dumps pinpoints which
// blocks moved when the soak oracle reports a hash divergence.
func (m *Machine) ArchMemDump() string {
	var buf []byte
	m.forEachArchValue(func(pi int, va mmu.VAddr, v uint64) {
		buf = appendArchLine(buf, pi, va, v)
	})
	return string(buf)
}

// appendArchLine appends one block's line: the process index in decimal,
// then the virtual address and the value in lowercase hex.
func appendArchLine(buf []byte, pi int, va mmu.VAddr, v uint64) []byte {
	buf = strconv.AppendInt(buf, int64(pi), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, uint64(va), 16)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, v, 16)
	return append(buf, '\n')
}

// forEachArchValue visits the architectural memory image in canonical
// order: processes in creation order, pages ascending, blocks ascending.
// The physical image is sorted by address, so each page's blocks are one
// run of it.
func (m *Machine) forEachArchValue(visit func(pi int, va mmu.VAddr, v uint64)) {
	vals := m.Sys.MemValues()
	for pi, p := range m.processes {
		for _, vpn := range p.AS.MappedVPNs() {
			va := mmu.VAddr(vpn * mmu.PageSize)
			pte := p.AS.PTEOf(va)
			if pte == nil || !pte.Present {
				continue
			}
			base := cache.Addr(pte.PFN * mmu.PageSize)
			end := base + mmu.PageSize
			i := sort.Search(len(vals), func(i int) bool { return vals[i].Addr >= base })
			for ; i < len(vals) && vals[i].Addr < end; i++ {
				visit(pi, va+mmu.VAddr(vals[i].Addr-base), vals[i].Value)
			}
		}
	}
}
