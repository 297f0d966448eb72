package migration

import "filemig/internal/units"

// Accessors the tests inspect caches and policies through.

// Exponent reports the current fitted exponent.
func (p *AdaptiveSTP) Exponent() float64 { return p.k }

// Used reports current occupancy.
func (c *Cache) Used() units.Bytes { return c.used }

// Resident reports the number of resident files.
func (c *Cache) Resident() int { return c.nres }
