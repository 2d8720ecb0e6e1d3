// Package addrmap defines the simulated physical address space of an SMTp
// machine and the page-granular assignment of addresses to home nodes.
//
// Layout (48-bit physical space):
//
//	[0, DirBase)          cacheable, coherent application data, page-placed
//	[DirBase, CodeBase)   per-home directory entries (cacheable, local-only,
//	                      "unmapped" in the paper's sense: no TLB access)
//	[CodeBase, MMIOBase)  protocol handler code (read via the I-cache)
//	[MMIOBase, ...)       uncached memory-controller registers (switch,
//	                      ldctxt, send header/address registers)
package addrmap

import "encoding/binary"

// NodeID identifies a node (processor + memory + NI) in the machine.
type NodeID int

// Region bases. Application data lives below DirBase.
const (
	DirBase  uint64 = 1 << 40
	CodeBase uint64 = 1 << 41
	MMIOBase uint64 = 1 << 42

	// AppCodeBase is where workload generators place application text so
	// instruction fetches never alias coherent data or protocol handlers.
	AppCodeBase = CodeBase + (1 << 30)

	// PageSize is the virtual-memory page size (paper Table 2).
	PageSize = 4096

	// CoherenceLineSize is the unit of coherence: the 128-byte L2 line a
	// directory entry covers.
	CoherenceLineSize = 128
)

// IsAppData reports whether addr is coherent application data.
func IsAppData(addr uint64) bool { return addr < DirBase }

// IsDirectory reports whether addr falls in the directory region.
func IsDirectory(addr uint64) bool { return addr >= DirBase && addr < CodeBase }

// IsCode reports whether addr falls in the protocol-code region.
func IsCode(addr uint64) bool { return addr >= CodeBase && addr < MMIOBase }

// IsMMIO reports whether addr is an uncached controller register.
func IsMMIO(addr uint64) bool { return addr >= MMIOBase }

// LineAddr returns addr rounded down to its coherence line.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(CoherenceLineSize-1) }

// PageOf returns the page number containing addr.
func PageOf(addr uint64) uint64 { return addr / PageSize }

// Map assigns application pages to home nodes. The zero assignment is
// round-robin by page number; workloads override placement per page to model
// the paper's "proper page placement to minimize remote accesses".
type Map struct {
	nodes    int
	explicit map[uint64]NodeID // page -> home, overrides round-robin
}

// NewMap returns a map over n nodes (n >= 1).
func NewMap(n int) *Map {
	if n < 1 {
		panic("addrmap: need at least one node")
	}
	return &Map{nodes: n, explicit: make(map[uint64]NodeID)}
}

// Nodes returns the node count.
func (m *Map) Nodes() int { return m.nodes }

// Place assigns the page containing addr (and nothing else) to home.
func (m *Map) Place(addr uint64, home NodeID) {
	if int(home) < 0 || int(home) >= m.nodes {
		panic("addrmap: home out of range")
	}
	m.explicit[PageOf(addr)] = home
}

// PlaceRange assigns every page overlapping [addr, addr+size) to home.
func (m *Map) PlaceRange(addr, size uint64, home NodeID) {
	if size == 0 {
		return
	}
	for p := PageOf(addr); p <= PageOf(addr+size-1); p++ {
		m.Place(p*PageSize, home)
	}
}

// HomeOf returns the home node of an application-data address. Directory and
// code addresses are local by construction, so HomeOf must only be called on
// application data.
func (m *Map) HomeOf(addr uint64) NodeID {
	if !IsAppData(addr) {
		panic("addrmap: HomeOf on non-application address")
	}
	if h, ok := m.explicit[PageOf(addr)]; ok {
		return h
	}
	return NodeID(PageOf(addr) % uint64(m.nodes))
}

// DirEntrySize returns the directory entry size in bytes for a machine of n
// nodes: 32 bits up to 16 nodes, 64 bits beyond (paper §3).
func DirEntrySize(nodes int) int {
	if nodes <= 16 {
		return 4
	}
	return 8
}

// DirAddrOf returns the address of the directory entry covering the
// application line containing addr. Directory entries for all lines homed at
// a node are packed contiguously (by global line number) in that node's
// directory region; entries for different homes never share a cache line
// only if their global line numbers are far apart — which matches a real
// home's local directory array since each node only ever touches entries for
// lines it homes.
func DirAddrOf(addr uint64, nodes int) uint64 {
	line := addr / CoherenceLineSize
	return DirBase + line*uint64(DirEntrySize(nodes))
}

// Memory geometry: the sparse store hands out 64 KiB slabs, found by a
// two-level radix walk. The top level splits the 48-bit space into 4 GiB
// groups (the region bases above land on distinct, small group indices) and
// is a lazily grown slice; each group holds a lazily allocated table of
// slab pointers. A value access is therefore two shifts, a mask and two
// slice indexes — no hashing, no map.
const (
	addrBits = 48

	SlabShift = 16
	SlabSize  = 1 << SlabShift // backing-store slab (64 KiB)
	slabMask  = SlabSize - 1

	groupShift = 32
	groupSlabs = 1 << (groupShift - SlabShift) // slab pointers per group
	groupMask  = groupSlabs - 1
)

type slab = [SlabSize]byte

// Memory is a sparse per-node backing store. Only protocol state (directory
// entries) carries meaningful values; application data is timing-only.
// Reads of untouched memory return zero without allocating backing storage;
// slabs are allocated (zeroed) on first write.
type Memory struct {
	groups [][]*slab // [addr>>32][addr>>16 & groupMask]
}

// NewMemory returns an empty store.
func NewMemory() *Memory { return &Memory{} }

// slabOf returns the slab covering addr, or nil when absent and !alloc.
func (m *Memory) slabOf(addr uint64, alloc bool) *slab {
	hi := int(addr >> groupShift)
	if hi >= len(m.groups) {
		if !alloc {
			return nil
		}
		g := make([][]*slab, hi+1)
		copy(g, m.groups)
		m.groups = g
	}
	grp := m.groups[hi]
	if grp == nil {
		if !alloc {
			return nil
		}
		grp = make([]*slab, groupSlabs)
		m.groups[hi] = grp
	}
	mid := int(addr>>SlabShift) & groupMask
	s := grp[mid]
	if s == nil {
		if !alloc {
			return nil
		}
		s = new(slab)
		grp[mid] = s
	}
	return s
}

// Read64 returns the little-endian 8-byte value at addr (need not be
// aligned, but must not straddle a 64 KiB slab; directory entries are 4- or
// 8-byte aligned and never do).
func (m *Memory) Read64(addr uint64) uint64 {
	s := m.slabOf(addr, false)
	if s == nil {
		return 0
	}
	off := addr & slabMask
	return binary.LittleEndian.Uint64(s[off : off+8])
}

// Write64 stores the little-endian 8-byte value at addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	s := m.slabOf(addr, true)
	off := addr & slabMask
	binary.LittleEndian.PutUint64(s[off:off+8], v)
}

// Read32 returns the little-endian 4-byte value at addr.
func (m *Memory) Read32(addr uint64) uint32 {
	s := m.slabOf(addr, false)
	if s == nil {
		return 0
	}
	off := addr & slabMask
	return binary.LittleEndian.Uint32(s[off : off+4])
}

// Write32 stores the little-endian 4-byte value at addr.
func (m *Memory) Write32(addr uint64, v uint32) {
	s := m.slabOf(addr, true)
	off := addr & slabMask
	binary.LittleEndian.PutUint32(s[off:off+4], v)
}

// SlabCount reports the number of allocated backing slabs (test and
// observability aid: footprint = SlabCount * SlabSize).
func (m *Memory) SlabCount() int {
	n := 0
	for _, g := range m.groups {
		for _, s := range g {
			if s != nil {
				n++
			}
		}
	}
	return n
}
