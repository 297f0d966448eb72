package mss

// Catalog maps MSS files onto tape cartridges. Placement is deterministic
// (a hash of the MSS path), so repeated requests for one file always hit
// the same cartridge — which is what makes mount reuse and §6's
// coalescing observations meaningful.
type Catalog struct {
	cartridges int
}

// NewCatalog builds a catalog over the given cartridge count.
func NewCatalog(cartridges int) *Catalog {
	if cartridges < 1 {
		cartridges = 1
	}
	return &Catalog{cartridges: cartridges}
}

// Cartridge reports which cartridge holds the file.
func (c *Catalog) Cartridge(mssPath string) int {
	return int(hash64(mssPath) % uint64(c.cartridges))
}

// OffsetFrac reports the file's fractional position along its tape,
// in [0, 1); it scales the seek portion of an access.
func (c *Catalog) OffsetFrac(mssPath string) float64 {
	// Use a different fold of the hash than Cartridge so position and
	// cartridge are independent.
	h := hash64(mssPath)
	return float64((h>>17)%10000) / 10000
}

// hash64 is 64-bit FNV-1a, written out so hashing a path allocates
// nothing.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// MountCache remembers the last k cartridges left mounted on a drive
// pool, approximating per-drive mount state: a request whose cartridge is
// still mounted skips the robot or operator entirely.
type MountCache struct {
	cap   int
	order []int
	in    map[int]bool
}

// NewMountCache holds up to cap cartridges (one per drive).
func NewMountCache(cap int) *MountCache {
	if cap < 1 {
		cap = 1
	}
	return &MountCache{cap: cap, in: make(map[int]bool, cap)}
}

// Mounted reports whether the cartridge is currently mounted.
func (m *MountCache) Mounted(cart int) bool { return m.in[cart] }

// Mount records that the cartridge is now on a drive, evicting the
// oldest mount if the pool is full.
func (m *MountCache) Mount(cart int) {
	if m.in[cart] {
		return
	}
	if len(m.order) >= m.cap {
		delete(m.in, m.order[0])
		m.order = m.order[:copy(m.order, m.order[1:])] // one slot per drive: shifting beats reallocating
	}
	m.order = append(m.order, cart)
	m.in[cart] = true
}

// Len reports how many cartridges are mounted.
func (m *MountCache) Len() int { return len(m.order) }
