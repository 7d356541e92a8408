package device

// MountedCartridges returns the cartridge indices currently mounted, one
// entry per drive (-1 for an empty drive).
func (t *TapeLibrary) MountedCartridges() []int {
	out := make([]int, len(t.drives))
	for i, d := range t.drives {
		out[i] = d.cartridge
	}
	return out
}

// IsMounted reports whether the cartridge holding off is in a drive.
func (t *TapeLibrary) IsMounted(off int64) bool {
	cart := t.CartridgeOf(off)
	for _, d := range t.drives {
		if d.cartridge == cart {
			return true
		}
	}
	return false
}
