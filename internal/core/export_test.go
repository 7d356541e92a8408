package core

import (
	"fmt"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// ResetHealth clears all fault observations.
func (t *Table) ResetHealth() {
	for i := range t.devs {
		t.devs[i].health, t.devs[i].faulted = health{}, false
	}
}

// underLoad inflates a device entry by its current queueing state at
// virtual time now (see queued).
func (t *Table) underLoad(id device.ID, e Entry, now simclock.Duration) Entry {
	if t.load == nil {
		return e
	}
	return queued(e, t.load.QueueDepth(id), t.load.InFlightRemaining(id, now))
}

// DeviceUnderLoad returns the entry for a device with the current
// queueing state folded into the latency — the estimate FSLEDS_GET
// reports for this device's uncached pages at virtual time now.
func (t *Table) DeviceUnderLoad(id device.ID, now simclock.Duration) (Entry, bool) {
	e, ok := t.Device(id)
	if !ok {
		return e, false
	}
	return t.underLoad(id, e, now), true
}

// deviceAt returns the entry in effect at a device byte offset, consulting
// zones when installed: the oracle's stateless per-page lookup, where the
// production walk uses a monotone zoneCursor.
func (t *Table) deviceAt(id device.ID, off int64) (Entry, bool) {
	if r := t.rec(id); r != nil && r.zones != nil {
		zs := r.zones
		cur := zs[0].Entry
		for _, z := range zs {
			if z.FromByte > off {
				break
			}
			cur = z.Entry
		}
		return cur, true
	}
	return t.Device(id)
}

// queryRef is the reference FSLEDS_GET: the original per-page scan that
// Query replaced with the O(runs) skeleton + overlay. It is kept test-only
// as the sole oracle the equivalence properties and benchmarks compare
// against; every estimate (zone lookup, load folding, health penalty,
// confidence) is computed per page in the exact order the historical
// implementation used, so Query must reproduce its float results
// bit-for-bit.
func queryRef(k *vfs.Kernel, t *Table, n *vfs.Inode) ([]SLED, error) {
	if n.IsDir() {
		return nil, fmt.Errorf("core: %q is a directory", n.Name())
	}
	if !t.haveMem {
		return nil, fmt.Errorf("core: sleds table has no memory entry (boot fill missing?)")
	}
	size := n.Size()
	if size == 0 {
		return nil, nil
	}
	ps := int64(k.PageSize())
	pages := (size + ps - 1) / ps
	now := k.Clock.Now()

	var out []SLED
	for p := int64(0); p < pages; p++ {
		var e Entry
		conf := 1.0
		if k.PageResident(n, p) {
			e = t.mem
		} else {
			dev := k.DeviceForPage(n, p)
			var ok bool
			e, ok = t.deviceAt(dev, n.Extent()+p*ps)
			if !ok {
				return nil, fmt.Errorf("core: no sleds table entry for device %d (file %q)", dev, n.Name())
			}
			e = t.underLoad(dev, e, now)
			if pen := t.HealthPenalty(dev, now); pen > 0 {
				conf = confidence(e.Latency, pen)
				e.Latency += pen
			}
		}
		length := ps
		if (p+1)*ps > size {
			length = size - p*ps
		}
		cur := SLED{Offset: p * ps, Length: length, Latency: e.Latency, Bandwidth: e.Bandwidth, Confidence: conf}
		if len(out) > 0 && out[len(out)-1].SameEstimates(cur) && out[len(out)-1].End() == cur.Offset {
			out[len(out)-1].Length += cur.Length
		} else {
			out = append(out, cur)
		}
	}
	return out, nil
}
