package sledlib

import "sleds/internal/core"

// SLEDs returns the raw SLED vector retrieved at PickInit (before
// adjustment), as a copy.
func (p *Picker) SLEDs() []core.SLED {
	out := make([]core.SLED, len(p.sleds))
	copy(out, p.sleds)
	return out
}

// Remaining reports how many advised reads are left.
func (p *Picker) Remaining() int {
	if p.finished {
		return 0
	}
	return len(p.chunks) - p.next
}
