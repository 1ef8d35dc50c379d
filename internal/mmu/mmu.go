// Package mmu models the memory-management substrate SwiftDir relies on:
// per-process virtual address spaces with page tables whose entries carry
// the Read/Write permission bit, mmap with PROT_*/MAP_* semantics, demand
// paging, copy-on-write, kernel same-page merging (KSM), and per-core
// TLBs. The package reproduces the paper's §IV-A observation chain:
//
//   - a file-backed MAP_PRIVATE mapping (writable shared-library segment)
//     yields PTEs with R/W = 0 (write-protected, copy-on-write);
//   - a MAP_SHARED mapping without PROT_WRITE (read-only library text)
//     yields PTEs with R/W = 0;
//   - KSM's write_protect_page sets R/W = 0 on merged pages;
//
// so exploitable shared data are exactly the write-protected data, and the
// translation result exposes that bit for the cache hierarchy to hitchhike
// (§IV-B).
package mmu

import (
	"errors"
	"fmt"
	"sort"
)

// PageSize is the virtual-memory page size in bytes.
const PageSize = 4096

// VAddr is a virtual byte address; PAddr is a physical byte address.
type (
	VAddr uint64
	PAddr uint64
)

// Prot is an mmap protection mask.
type Prot uint8

// Protection bits, mirroring POSIX PROT_*.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// MapFlags is an mmap flags mask.
type MapFlags uint8

// Mapping flags, mirroring the subset of MAP_* the paper discusses.
const (
	MapPrivate MapFlags = 1 << iota
	MapShared
	MapAnonymous
)

// Errors reported by translation.
var (
	ErrUnmapped        = errors.New("mmu: access to unmapped address")
	ErrWriteProtection = errors.New("mmu: write to write-protected page")
	ErrBadMap          = errors.New("mmu: invalid mmap arguments")
)

// PTE is a page-table entry. Writable is the R/W field the paper keys on:
// Writable == false marks the page write-protected, the exact category
// SwiftDir narrows its protection scope to.
type PTE struct {
	PFN      uint64
	Present  bool
	Writable bool
	CoW      bool // write triggers copy-on-write rather than a fault
	Dirty    bool
	Accessed bool
}

// physPage is a physical frame. Content is a 64-bit token standing in for
// the page's bytes; KSM compares and merges frames by this token.
type physPage struct {
	content uint64
	refs    int
}

// PhysMem is the machine-wide physical memory allocator shared by all
// address spaces. Frames are handed out sequentially above base. It also
// plays the role of the page cache: frames backing file pages are cached
// here with a reference of their own, so they survive even when every
// mapper has copy-on-written away from them.
type PhysMem struct {
	basePFN   uint64
	nextPFN   uint64
	pages     map[uint64]*physPage
	fileCache map[fileKey]uint64 // (file, page index) -> PFN

	Allocated uint64 // frames ever allocated
	Freed     uint64 // frames released (refs hit zero)
}

type fileKey struct {
	file *File
	idx  uint64
}

// NewPhysMem returns an allocator whose first frame starts at basePFN.
func NewPhysMem(basePFN uint64) *PhysMem {
	return &PhysMem{
		basePFN:   basePFN,
		nextPFN:   basePFN,
		pages:     make(map[uint64]*physPage),
		fileCache: make(map[fileKey]uint64),
	}
}

// filePage returns the frame backing page idx of f, materializing it on
// first use. The page cache keeps one reference; the caller's mapping gets
// another.
func (pm *PhysMem) filePage(f *File, idx uint64) uint64 {
	key := fileKey{file: f, idx: idx}
	if pfn, ok := pm.fileCache[key]; ok {
		pm.ref(pfn)
		return pfn
	}
	content := f.seed*0x9E3779B97F4A7C15 + idx + 1
	pfn := pm.alloc(content) // ref held by the page cache
	pm.fileCache[key] = pfn
	pm.ref(pfn) // ref for the mapper
	return pfn
}

func (pm *PhysMem) alloc(content uint64) uint64 {
	pfn := pm.nextPFN
	pm.nextPFN++
	pm.pages[pfn] = &physPage{content: content, refs: 1}
	pm.Allocated++
	return pfn
}

func (pm *PhysMem) get(pfn uint64) *physPage {
	p := pm.pages[pfn]
	if p == nil {
		panic(fmt.Sprintf("mmu: dangling PFN %#x", pfn))
	}
	return p
}

func (pm *PhysMem) ref(pfn uint64) { pm.get(pfn).refs++ }
func (pm *PhysMem) unref(pfn uint64) {
	p := pm.get(pfn)
	p.refs--
	if p.refs == 0 {
		delete(pm.pages, pfn)
		pm.Freed++
	}
}

// Content returns the content token of a frame.
func (pm *PhysMem) Content(pfn uint64) uint64 { return pm.get(pfn).content }

// Refs returns the reference count of a frame.
func (pm *PhysMem) Refs(pfn uint64) int { return pm.get(pfn).refs }

// LivePages returns the number of allocated frames.
func (pm *PhysMem) LivePages() int { return len(pm.pages) }

// File is a shared backing object (a shared library, a data file). Pages
// materialize lazily in the PhysMem page cache; every address space
// mapping the same file page gets the same physical frame, which is how
// shared libraries create genuinely shared memory across processes.
type File struct {
	Name string
	seed uint64
}

// NewFile creates a backing file whose page contents derive from seed.
func NewFile(name string, seed uint64) *File {
	return &File{Name: name, seed: seed}
}

// vma is a virtual memory area created by Mmap.
type vma struct {
	start, end VAddr // [start, end)
	prot       Prot
	flags      MapFlags
	file       *File
	fileOff    uint64 // page-aligned offset into file
}

// AddressSpace is one process's view of memory.
type AddressSpace struct {
	pm    *PhysMem
	vmas  []vma
	table map[uint64]*PTE // VPN -> PTE
	next  VAddr           // next mmap placement

	// Stats
	Faults    uint64 // demand-paging faults
	CoWFaults uint64 // copy-on-write duplications
}

// NewAddressSpace creates an empty address space over pm.
func NewAddressSpace(pm *PhysMem) *AddressSpace {
	return &AddressSpace{
		pm:    pm,
		table: make(map[uint64]*PTE),
		next:  0x4000_0000, // leave low memory unmapped to catch bugs
	}
}

// PhysMem returns the allocator backing this address space.
func (as *AddressSpace) PhysMem() *PhysMem { return as.pm }

func vpn(v VAddr) uint64   { return uint64(v) / PageSize }
func pageOf(v VAddr) VAddr { return v &^ (PageSize - 1) }

// Mmap establishes a mapping of length bytes (rounded up to pages) and
// returns its base address. file may be nil for anonymous mappings. The
// semantics follow mmap(2) as analyzed in §IV-A of the paper.
func (as *AddressSpace) Mmap(length int, prot Prot, flags MapFlags, file *File, offset uint64) (VAddr, error) {
	if length <= 0 {
		return 0, fmt.Errorf("%w: length %d", ErrBadMap, length)
	}
	if flags&MapPrivate != 0 && flags&MapShared != 0 {
		return 0, fmt.Errorf("%w: both MAP_PRIVATE and MAP_SHARED", ErrBadMap)
	}
	if flags&(MapPrivate|MapShared) == 0 {
		return 0, fmt.Errorf("%w: neither MAP_PRIVATE nor MAP_SHARED", ErrBadMap)
	}
	if file == nil && flags&MapAnonymous == 0 {
		return 0, fmt.Errorf("%w: file-backed mapping without file", ErrBadMap)
	}
	if offset%PageSize != 0 {
		return 0, fmt.Errorf("%w: offset %d not page-aligned", ErrBadMap, offset)
	}
	pages := (length + PageSize - 1) / PageSize
	base := as.next
	as.next += VAddr(pages+1) * PageSize // guard page between mappings
	as.vmas = append(as.vmas, vma{
		start: base, end: base + VAddr(pages)*PageSize,
		prot: prot, flags: flags, file: file, fileOff: offset,
	})
	return base, nil
}

func (as *AddressSpace) findVMA(v VAddr) *vma {
	for i := range as.vmas {
		if v >= as.vmas[i].start && v < as.vmas[i].end {
			return &as.vmas[i]
		}
	}
	return nil
}

// mkPTE creates the PTE for a freshly faulted page, applying the R/W-bit
// rules the paper extracts from Linux 5.16 (§IV-A2):
//
//   - MAP_PRIVATE file-backed  -> R/W=0, copy-on-write
//   - MAP_SHARED without PROT_WRITE -> R/W=0
//   - otherwise (writable shared file page, or anonymous private heap)
//     -> R/W=1
func mkPTE(v *vma, pfn uint64) *PTE {
	writable := v.prot&ProtWrite != 0
	cow := false
	switch {
	case v.file != nil && v.flags&MapPrivate != 0:
		// Private mapping of a file: even if PROT_WRITE, the first
		// store must duplicate the page (copy-on-write), so the R/W
		// field is cleared.
		cow = writable
		writable = false
	case v.flags&MapShared != 0 && v.prot&ProtWrite == 0:
		writable = false
	}
	return &PTE{PFN: pfn, Present: true, Writable: writable, CoW: cow}
}

// fault services a demand-paging fault for the page containing v.
func (as *AddressSpace) fault(v VAddr) (*PTE, error) {
	area := as.findVMA(v)
	if area == nil {
		return nil, fmt.Errorf("%w: %#x", ErrUnmapped, uint64(v))
	}
	as.Faults++
	var pfn uint64
	if area.file != nil {
		pageIdx := area.fileOff/PageSize + (uint64(pageOf(v)-area.start))/PageSize
		pfn = as.pm.filePage(area.file, pageIdx)
	} else {
		pfn = as.pm.alloc(0) // zero-filled anonymous page
	}
	pte := mkPTE(area, pfn)
	as.table[vpn(v)] = pte
	return pte, nil
}

// Result is the outcome of a translation: the physical address, the
// write-protection status read from the PTE's R/W field (the bit SwiftDir
// transmits to the coherence controller), and accounting of the work the
// walk performed so callers can charge time.
type Result struct {
	PAddr          PAddr
	WriteProtected bool
	Faulted        bool // demand-paging fault serviced
	CoW            bool // copy-on-write duplication performed
}

// Translate walks the page table for v (no TLB; see TLB.Translate for the
// cached path). For isWrite on a write-protected page it either performs
// copy-on-write (if the PTE allows) or returns ErrWriteProtection.
func (as *AddressSpace) Translate(v VAddr, isWrite bool) (Result, error) {
	var res Result
	pte, ok := as.table[vpn(v)]
	if !ok || !pte.Present {
		var err error
		pte, err = as.fault(v)
		if err != nil {
			return res, err
		}
		res.Faulted = true
	}
	if isWrite && !pte.Writable {
		if !pte.CoW {
			return res, fmt.Errorf("%w: %#x", ErrWriteProtection, uint64(v))
		}
		as.copyOnWrite(pte)
		res.CoW = true
	}
	pte.Accessed = true
	if isWrite {
		pte.Dirty = true
	}
	res.PAddr = PAddr(pte.PFN*PageSize) + PAddr(uint64(v)%PageSize)
	res.WriteProtected = !pte.Writable
	return res, nil
}

// copyOnWrite spawns a private duplicate of pte's frame and redirects the
// PTE to it with R/W = 1.
func (as *AddressSpace) copyOnWrite(pte *PTE) {
	as.CoWFaults++
	old := pte.PFN
	content := as.pm.Content(old)
	pte.PFN = as.pm.alloc(content)
	pte.Writable = true
	pte.CoW = false
	as.pm.unref(old)
}

// PTEOf returns the current PTE for an address, or nil if not yet faulted
// in. Exposed for tests and for KSM.
func (as *AddressSpace) PTEOf(v VAddr) *PTE { return as.table[vpn(v)] }

// WritePage sets the content token of the page containing v, faulting it
// in if needed. It models a program initializing page contents and is the
// hook dedup tests use to create identical pages. The write obeys
// protection (it performs CoW when required).
func (as *AddressSpace) WritePage(v VAddr, content uint64) error {
	if _, err := as.Translate(v, true); err != nil {
		return err
	}
	pte := as.table[vpn(v)]
	as.pm.get(pte.PFN).content = content
	return nil
}

// ReadPage returns the content token of the page containing v, faulting it
// in if needed.
func (as *AddressSpace) ReadPage(v VAddr) (uint64, error) {
	if _, err := as.Translate(v, false); err != nil {
		return 0, err
	}
	return as.pm.Content(as.table[vpn(v)].PFN), nil
}

// Munmap removes the mapping(s) overlapping [addr, addr+length), as
// munmap(2) does for whole VMAs (partial unmapping splits are not
// modeled: the range must cover each overlapped VMA entirely). Present
// pages release their frame references. The caller must shoot down TLB
// entries for the range.
func (as *AddressSpace) Munmap(addr VAddr, length int) error {
	if length <= 0 {
		return fmt.Errorf("%w: munmap length %d", ErrBadMap, length)
	}
	start := pageOf(addr)
	end := pageOf(addr + VAddr(length) + PageSize - 1)
	// Validate: every overlapped VMA must be fully covered.
	for i := range as.vmas {
		v := &as.vmas[i]
		if start < v.end && v.start < end {
			if v.start < start || v.end > end {
				return fmt.Errorf("%w: munmap [%#x,%#x) partially covers VMA [%#x,%#x)",
					ErrBadMap, uint64(start), uint64(end), uint64(v.start), uint64(v.end))
			}
		}
	}
	// Drop PTEs and release frames.
	for v := start; v < end; v += PageSize {
		if pte := as.table[vpn(v)]; pte != nil && pte.Present {
			as.pm.unref(pte.PFN)
			delete(as.table, vpn(v))
		}
	}
	// Remove covered VMAs.
	kept := as.vmas[:0]
	for _, v := range as.vmas {
		if start < v.end && v.start < end {
			continue
		}
		kept = append(kept, v)
	}
	as.vmas = kept
	return nil
}

// Fork clones the address space as fork(2) does: the child shares every
// present frame with the parent, and all writable private pages become
// copy-on-write in BOTH processes (their PTE R/W bits are cleared). This
// is the third mass producer of write-protected memory after read-only
// shared libraries and KSM: right after a fork, the paper's protection
// scope covers essentially the whole address space, and pages leave it
// one copy-on-write at a time.
func (as *AddressSpace) Fork() *AddressSpace {
	child := NewAddressSpace(as.pm)
	child.vmas = append([]vma(nil), as.vmas...)
	child.next = as.next
	for vp, pte := range as.table {
		if !pte.Present {
			continue
		}
		as.pm.ref(pte.PFN)
		cp := *pte
		area := as.findVMA(VAddr(vp * PageSize))
		sharedMapping := area != nil && area.flags&MapShared != 0
		if pte.Writable && !sharedMapping {
			// Writable private page: arm copy-on-write on both sides.
			// MAP_SHARED mappings keep shared, writable frames, as on
			// Linux.
			pte.Writable = false
			pte.CoW = true
			cp.Writable = false
			cp.CoW = true
		}
		child.table[vp] = &cp
	}
	return child
}

// MmapFixed is Mmap with a caller-chosen base address (MAP_FIXED): the
// mapping is placed exactly at addr (which must be page-aligned) and the
// call fails if it would overlap an existing mapping. Trace replay uses
// this to reconstruct a recorded address-space layout.
func (as *AddressSpace) MmapFixed(addr VAddr, length int, prot Prot, flags MapFlags, file *File, offset uint64) error {
	if addr%PageSize != 0 {
		return fmt.Errorf("%w: fixed address %#x not page-aligned", ErrBadMap, uint64(addr))
	}
	if length <= 0 {
		return fmt.Errorf("%w: length %d", ErrBadMap, length)
	}
	pages := (length + PageSize - 1) / PageSize
	end := addr + VAddr(pages)*PageSize
	for i := range as.vmas {
		if addr < as.vmas[i].end && as.vmas[i].start < end {
			return fmt.Errorf("%w: fixed mapping [%#x,%#x) overlaps [%#x,%#x)",
				ErrBadMap, uint64(addr), uint64(end),
				uint64(as.vmas[i].start), uint64(as.vmas[i].end))
		}
	}
	// Reuse Mmap's argument validation by constructing the VMA the same
	// way after the checks it performs.
	probe, err := as.Mmap(length, prot, flags, file, offset)
	if err != nil {
		return err
	}
	// Relocate the just-created VMA to the fixed base.
	v := &as.vmas[len(as.vmas)-1]
	if v.start != probe {
		return fmt.Errorf("%w: internal mmap bookkeeping", ErrBadMap)
	}
	v.start = addr
	v.end = end
	return nil
}

// Mprotect changes the protection of the pages overlapping [addr,
// addr+length), as mprotect(2) does, splitting VMAs at the range
// boundaries so the change is page-exact. Hardening a region to
// read-only clears the R/W bit of its present PTEs — from SwiftDir's
// point of view the region becomes write-protected data and is handled in
// state S from then on (the "enlarged protection scope" case of §I).
// Relaxing a region to writable restores the R/W bit for exclusively
// owned private pages; shared frames (file-backed private or KSM-merged)
// keep R/W = 0 with copy-on-write armed and resolve on the next store.
// The caller must shoot down stale TLB entries (TLB.InvalidatePage /
// TLB.Flush), as an OS would.
func (as *AddressSpace) Mprotect(addr VAddr, length int, prot Prot) error {
	if length <= 0 {
		return fmt.Errorf("%w: mprotect length %d", ErrBadMap, length)
	}
	start := pageOf(addr)
	end := pageOf(addr + VAddr(length) + PageSize - 1)
	// Every page must belong to a mapping.
	for v := start; v < end; v += PageSize {
		if as.findVMA(v) == nil {
			return fmt.Errorf("%w: mprotect over unmapped page %#x", ErrUnmapped, uint64(v))
		}
	}
	as.splitVMAAt(start)
	as.splitVMAAt(end)
	for i := range as.vmas {
		v := &as.vmas[i]
		if v.start >= start && v.end <= end {
			v.prot = prot
		}
	}
	for v := start; v < end; v += PageSize {
		if pte := as.table[vpn(v)]; pte != nil && pte.Present {
			switch {
			case prot&ProtWrite == 0:
				pte.Writable = false
				pte.CoW = false
			case as.pm.Refs(pte.PFN) > 1:
				// Shared frames stay write-protected; a store after
				// re-enabling PROT_WRITE goes through copy-on-write.
				pte.Writable = false
				pte.CoW = true
			default:
				pte.Writable = true
				pte.CoW = false
			}
		}
	}
	return nil
}

// splitVMAAt divides the VMA containing boundary (if any) into two VMAs
// meeting at it, so protections can change page-exactly.
func (as *AddressSpace) splitVMAAt(boundary VAddr) {
	for i := range as.vmas {
		v := &as.vmas[i]
		if boundary > v.start && boundary < v.end {
			upper := *v
			upper.start = boundary
			if v.file != nil {
				upper.fileOff = v.fileOff + uint64(boundary-v.start)
			}
			v.end = boundary
			as.vmas = append(as.vmas, upper)
			return
		}
	}
}

// MappedVPNs returns the faulted-in virtual page numbers in ascending
// order (used by KSM scans and invariant checks).
func (as *AddressSpace) MappedVPNs() []uint64 {
	out := make([]uint64, 0, len(as.table))
	for v := range as.table {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
